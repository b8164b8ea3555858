#include "inputs.h"

#include <cstdio>

#include "common/logging.h"
#include "types/date.h"
#include "workload/generators.h"
#include "workload/patterns.h"

namespace e2e {

using sqlts::Date;
using sqlts::Schema;
using sqlts::Table;
using sqlts::TypeKind;
using sqlts::Value;

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

namespace {

Date FirstDay() { return *Date::Parse("1974-01-02"); }

}  // namespace

Table MakeDjia(uint64_t seed) {
  return sqlts::PricesToQuoteTable(
      "DJIA", FirstDay(), sqlts::SynthesizeDjia(kDjiaDays, seed));
}

std::string DjiaQuery() { return sqlts::PaperExampleQuery(10); }

Table MakeMarket(uint64_t seed) {
  std::vector<Table> series;
  series.reserve(kMarketInstruments);
  for (int i = 0; i < kMarketInstruments; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "M%03d", i);
    series.push_back(sqlts::PricesToQuoteTable(
        name, FirstDay(), sqlts::SynthesizeDjia(kMarketDays, SubSeed(seed, i))));
  }
  Table market(sqlts::QuoteSchema());
  for (int64_t d = 0; d < kMarketDays; ++d) {
    for (const Table& s : series) SQLTS_CHECK_OK(market.AppendRow(s.GetRow(d)));
  }
  return market;
}

std::string ClusterByName(const std::string& query) {
  const std::string from = "FROM djia SEQUENCE BY date";
  const size_t at = query.find(from);
  SQLTS_CHECK(at != std::string::npos) << "unexpected query shape: " << query;
  std::string out = query;
  out.replace(at, from.size(), "FROM quote CLUSTER BY name SEQUENCE BY date");
  return out;
}

std::vector<std::string> MarketQuerySet() {
  std::vector<std::string> set;
  for (const sqlts::NamedPattern& p : sqlts::TechnicalPatternLibrary()) {
    set.push_back(ClusterByName(p.query));
  }
  for (double band : {0.01, 0.015, 0.03}) {
    set.push_back(ClusterByName(sqlts::RelaxedDoubleBottomQuery(band)));
    set.push_back(ClusterByName(sqlts::RelaxedDoubleTopQuery(band)));
    set.push_back(ClusterByName(sqlts::VReboundQuery(0.05, band)));
  }
  set.push_back(ClusterByName(sqlts::PaperExampleQuery(10)));
  set.push_back(ClusterByName(sqlts::BreakoutQuery(0.015, 0.04)));
  return set;
}

std::string MarketStreamQuery() {
  return ClusterByName(sqlts::PaperExampleQuery(10));
}

Table MakeStorageQuotes(uint64_t seed) {
  Schema s;
  SQLTS_CHECK_OK(s.AddColumn("name", TypeKind::kString));
  SQLTS_CHECK_OK(s.AddColumn("date", TypeKind::kDate));
  SQLTS_CHECK_OK(s.AddColumn("price", TypeKind::kDouble));
  Table t(s);
  const Date d0 = *Date::Parse("1999-01-04");
  // bench_storage's xorshift state at the default seed; other seeds
  // move it by an odd multiplier (never to the all-zero fixed point).
  uint64_t rng = 0x9e3779b97f4a7c15ull +
                 (seed - kDefaultSeed) * 0x2545f4914f6cdd1dull;
  if (rng == 0) rng = 1;
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int n = 0; n < kStorageInstruments; ++n) {
    char name[16];
    std::snprintf(name, sizeof(name), "S%d", n);
    const bool hot = n % 500 == 137;  // ~0.2% of clusters hold matches
    double price = hot ? 150.0 : 10.0 + static_cast<double>(next() % 90);
    for (int d = 0; d < kStorageDays; ++d) {
      const bool jump = hot && d % 50 == 25;
      price += jump ? 8.0
                    : static_cast<double>(next() % 200) / 100.0 - 0.995;
      const double lo = hot ? 150.0 : 10.0, hi = hot ? 250.0 : 110.0;
      if (price < lo) price = lo;
      if (price > hi) {
        // Hot series saw-tooth back to the bottom of their band so the
        // planted jumps keep firing instead of saturating at the cap.
        price = hot ? 150.0 + static_cast<double>(next() % 10) : hi;
      }
      SQLTS_CHECK_OK(
          t.AppendRow({Value::String(name),
                       Value::FromDate(Date(d0.days_since_epoch() + d)),
                       Value::Double(price)}));
    }
  }
  return t;
}

std::string SkipQuery() {
  return "SELECT X.name, X.date FROM quote CLUSTER BY name SEQUENCE BY date "
         "AS (X, Y) WHERE X.price > 150 AND Y.price > X.price + 5";
}

std::string FullQuery() { return ClusterByName(sqlts::VReboundQuery()); }

}  // namespace e2e
