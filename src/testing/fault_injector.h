#ifndef SQLTS_TESTING_FAULT_INJECTOR_H_
#define SQLTS_TESTING_FAULT_INJECTOR_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>

#include "common/governance.h"
#include "common/thread_annotations.h"

namespace sqlts {
namespace fuzz {

/// Deterministic, seeded fault injection for the streaming path.
///
/// Hook() produces a FaultHook (see common/governance.h) that fires at
/// the engine's named sites — "stream.push", "matcher.append",
/// "shard.enqueue" — and, per site visit, draws from a seeded PRNG to
/// decide whether that visit fails and how:
///  - an injected source/IO error (typed IoError Status),
///  - a simulated allocation failure (kResourceExhausted Status),
///  - a thrown exception (exercises the shard workers' boundary).
///
/// The generator is guarded by a mutex, so concurrent shard workers may
/// share one injector; with a single caller the fault sequence is fully
/// reproducible from the seed.  Counters record what was injected for
/// assertions.
class FaultInjector {
 public:
  struct Options {
    /// Per-visit probability (0..1) of failing "stream.push" with an
    /// injected source error.
    double push_error_prob = 0.0;
    /// Per-visit probability of failing "matcher.append" with a
    /// simulated allocation failure.
    double alloc_failure_prob = 0.0;
    /// Per-visit probability of failing "shard.enqueue".
    double queue_failure_prob = 0.0;
    /// Per-visit probability (any site) of throwing std::runtime_error
    /// instead of returning a Status — only meaningful on sites reached
    /// from shard workers, whose exception boundary it exercises.
    double throw_prob = 0.0;
  };

  FaultInjector(uint64_t seed, Options options);

  /// The hook to install as ExecGovernance::fault_hook.  The injector
  /// must outlive every executor holding the hook.
  FaultHook Hook();

  /// Total faults injected (errors + throws).
  int64_t injected() const;
  /// Faults injected at `site`.
  int64_t injected_at(std::string_view site) const;

 private:
  Status OnSite(std::string_view site);
  /// Next uniform draw in [0, 1); advances the guarded PRNG state.
  double NextUniform() REQUIRES(mu_);

  Options options_;
  mutable ts::Mutex mu_;
  uint64_t state_ GUARDED_BY(mu_);  // splitmix64 state
  int64_t injected_ GUARDED_BY(mu_) = 0;
  std::map<std::string, int64_t> per_site_ GUARDED_BY(mu_);
};

}  // namespace fuzz
}  // namespace sqlts

#endif  // SQLTS_TESTING_FAULT_INJECTOR_H_
