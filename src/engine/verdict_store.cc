#include "engine/verdict_store.h"

#include <algorithm>
#include <bit>

#include "common/logging.h"

namespace sqlts {

VerdictStore::VerdictStore(int64_t window) {
  while (max_blocks_ * kKernelBlock < window) max_blocks_ *= 2;
}

VerdictStore::Block& VerdictStore::At(int slot, int64_t abs_pos,
                                      int64_t live_from) {
  if (slot >= static_cast<int>(slots_.size())) slots_.resize(slot + 1);
  std::vector<Block>& ring = slots_[slot];
  const int64_t index = abs_pos / kKernelBlock;
  for (;;) {
    if (!ring.empty()) {
      Block& b = ring[index & (ring.size() - 1)];
      if (b.index == index) return b;
      if (b.index < live_from / kKernelBlock ||
          static_cast<int64_t>(ring.size()) >= max_blocks_) {
        return b = Block{index};
      }
    }
    // Doubling a power-of-two ring keeps distinct indexes distinct, so
    // every cached block survives the move.
    std::vector<Block> grown(ring.empty() ? 1 : 2 * ring.size());
    for (const Block& b : ring) {
      if (b.index >= 0) grown[b.index & (grown.size() - 1)] = b;
    }
    ring.swap(grown);
  }
}

void VerdictStore::Fill(Block* b, const PredicateKernel& kernel,
                        const SequenceView& seq, int64_t pos, int64_t abs_pos,
                        uint64_t* new_true) {
  const int lane = static_cast<int>(abs_pos % kKernelBlock);
  const int64_t pos0 = pos - lane;  // view position of the block's lane 0
  int lane_end =
      static_cast<int>(std::min<int64_t>(kKernelBlock, seq.size() - pos0));
  SQLTS_CHECK(lane < lane_end && !b->Known(lane))
      << "fill at lane " << lane << " of " << lane_end;
  // Evaluate only through the last lane the fill can write: a block
  // first missed at a later lane already knows its tail.
  uint64_t open;
  int w = (lane_end - 1) >> 6;
  while ((open = LaneSpan(w, lane, lane_end) & ~b->known[w]) == 0) --w;
  lane_end = 64 * w + 64 - std::countl_zero(open);
  BlockVerdict fresh;
  kernel.EvalBlock(seq, pos0, lane, lane_end, &scratch_, &fresh);
  for (int w = 0; w < kKernelWords; ++w) {
    const uint64_t fill = LaneSpan(w, lane, lane_end) & ~b->known[w];
    b->known[w] |= fill;
    b->true_bits[w] |= fresh.true_bits[w] & fill;
    if (new_true != nullptr) new_true[w] = fresh.true_bits[w] & fill;
  }
}

void VerdictStore::Seed(int slot, int64_t abs_pos, int64_t live_from,
                        const uint64_t* lanes) {
  Block& b = At(slot, abs_pos, live_from);
  for (int w = 0; w < kKernelWords; ++w) {
    const uint64_t add = lanes[w] & ~b.known[w];
    b.known[w] |= add;
    b.true_bits[w] |= add;
    b.inferred[w] |= add;
  }
}

}  // namespace sqlts
