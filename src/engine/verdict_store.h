#ifndef SQLTS_ENGINE_VERDICT_STORE_H_
#define SQLTS_ENGINE_VERDICT_STORE_H_

#include <cstdint>
#include <vector>

#include "expr/kernel.h"

namespace sqlts {

/// Per-position verdicts of tuple-local predicates over one cluster: the
/// one cache behind single-query vectorized evaluation and multi-query
/// sharing.  Each slot (a kernel, or a catalog predicate) keeps a ring
/// of kKernelBlock-lane blocks keyed by absolute position / kKernelBlock;
/// a lane holds a known bit, the TRUE-collapsed verdict, and whether a
/// subsumption edge inferred it.  Fill rule: a miss at position p runs
/// the kernel from p to the end of p's block or the last buffered tuple
/// and writes only lanes not known yet, so every verdict written is
/// final and an evicted block costs only a re-evaluation
/// (docs/VECTORIZED.md §3).  Not thread-safe.
class VerdictStore {
 public:
  struct Block {
    int64_t index = -1;  // absolute position / kKernelBlock; -1 = empty
    uint64_t known[kKernelWords] = {};
    uint64_t true_bits[kKernelWords] = {};
    uint64_t inferred[kKernelWords] = {};

    bool Known(int l) const { return (known[l >> 6] >> (l & 63)) & 1; }
    bool True(int l) const { return (true_bits[l >> 6] >> (l & 63)) & 1; }
    bool Inferred(int l) const { return (inferred[l >> 6] >> (l & 63)) & 1; }
  };

  /// A ring holds at most `window` positions, rounded up to a
  /// power-of-two number of blocks.
  explicit VerdictStore(int64_t window);

  /// The block of `slot` holding `abs_pos`.  A ring starts empty; an
  /// entry holding another block is cleared and reused when that block
  /// lies wholly below `live_from` (the lowest position the caller can
  /// still test) or the ring is full, and otherwise the ring doubles.
  Block& At(int slot, int64_t abs_pos, int64_t live_from);

  /// The fill rule for kernel slot block `b` after a miss at absolute
  /// position `abs_pos`, view position `pos` of `seq`.  A non-null
  /// `new_true` receives the lanes this fill made known and TRUE.
  void Fill(Block* b, const PredicateKernel& kernel, const SequenceView& seq,
            int64_t pos, int64_t abs_pos, uint64_t* new_true);

  /// Marks `lanes` of the block holding `abs_pos` in `slot` known, TRUE
  /// and inferred, except lanes already known.
  void Seed(int slot, int64_t abs_pos, int64_t live_from,
            const uint64_t* lanes);

 private:
  int64_t max_blocks_ = 1;
  std::vector<std::vector<Block>> slots_;  // [slot][index % ring size]
  KernelScratch scratch_;
};

}  // namespace sqlts

#endif  // SQLTS_ENGINE_VERDICT_STORE_H_
