// Seeded input generators and query texts of the four workloads.  The
// program under test only ever sees what these functions return.
#ifndef SQLTS_BENCH_E2E_INPUTS_H_
#define SQLTS_BENCH_E2E_INPUTS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace e2e {

/// Seed 1987 reproduces ROADMAP's baseline DJIA series and the
/// `bench_storage` dataset exactly; the pinned counts hold on it.  (The
/// held-out seed, 7919, is named in check.py and README.md.)
constexpr uint64_t kDefaultSeed = 1987;

/// Independent sub-seed `stream` of `seed` (splitmix64).
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// djia_batch: one 6,300-day synthetic DJIA cluster (SynthesizeDjia).
constexpr int64_t kDjiaDays = 6300;
sqlts::Table MakeDjia(uint64_t seed);
/// The paper's Example 10 relaxed double bottom, unclustered.
std::string DjiaQuery();

/// market_*: kMarketInstruments synthetic DJIA-like series of
/// kMarketDays days each, rows in date-major order (one row per
/// instrument per day, as a daily feed delivers them).
constexpr int kMarketInstruments = 48;
constexpr int64_t kMarketDays = 1260;
sqlts::Table MakeMarket(uint64_t seed);
/// The K = 16 `CLUSTER BY name` query set of market_queryset.
std::vector<std::string> MarketQuerySet();
/// Example 10 clustered by instrument (market_stream).
std::string MarketStreamQuery();

/// sqlc_*: bench_storage's 2,000 instruments x 1,000 days; ~0.2% of the
/// instruments live in a high price band with planted jumps.
constexpr int kStorageInstruments = 2000;
constexpr int kStorageDays = 1000;
sqlts::Table MakeStorageQuotes(uint64_t seed);
/// Anchored double rise: zone maps refute all but the planted clusters.
std::string SkipQuery();
/// Clustered V-rebound: ratio predicates no zone map can refute.
std::string FullQuery();

/// Rewrites a library query's `FROM djia SEQUENCE BY date` into its
/// per-instrument form `FROM quote CLUSTER BY name SEQUENCE BY date`.
std::string ClusterByName(const std::string& query);

}  // namespace e2e

#endif  // SQLTS_BENCH_E2E_INPUTS_H_
