#ifndef SQLTS_ENGINE_MATCH_H_
#define SQLTS_ENGINE_MATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "expr/eval.h"

namespace sqlts {

/// One pattern occurrence: the input span matched by each pattern
/// element (0-based element index; positions are sequence positions
/// within the cluster).
struct Match {
  std::vector<GroupSpan> spans;

  int64_t first() const { return spans.front().first; }
  int64_t last() const { return spans.back().last; }
  std::string ToString() const;
};

/// Cost accounting for the paper's metric ("the number of times that an
/// element of input is tested against a pattern element", Sec 7) plus
/// auxiliary counters.
struct SearchStats {
  int64_t evaluations = 0;   ///< predicate tests actually executed
  int64_t presat_skips = 0;  ///< tests skipped thanks to presatisfied φ=1
  int64_t jumps = 0;         ///< shift/next resumptions taken
  int64_t matches = 0;
  /// Columnar-storage counters (src/colstore/): row blocks the query's
  /// file(s) hold, how many the zone maps proved irrelevant, and the
  /// encoded payload bytes actually fetched.  Zero on in-memory
  /// execution.  These are I/O accounting, not part of the matcher's
  /// answer, and are deliberately excluded from checkpoint
  /// serialization.
  int64_t blocks_total = 0;
  int64_t blocks_skipped = 0;
  int64_t bytes_read = 0;

  SearchStats& operator+=(const SearchStats& o) {
    evaluations += o.evaluations;
    presat_skips += o.presat_skips;
    jumps += o.jumps;
    matches += o.matches;
    blocks_total += o.blocks_total;
    blocks_skipped += o.blocks_skipped;
    bytes_read += o.bytes_read;
    return *this;
  }
};

/// One point of the Figure-5 search-path curve: which input element was
/// tested against which pattern element at each step.
struct TracePoint {
  int64_t i;  ///< input position (0-based)
  int j;      ///< pattern element (1-based)
};
using SearchTrace = std::vector<TracePoint>;

}  // namespace sqlts

#endif  // SQLTS_ENGINE_MATCH_H_
