#include "storage/sequence.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <functional>
#include <string_view>
#include <unordered_map>

#include "common/logging.h"

namespace sqlts {
namespace {

/// One key column, its type settled once from the schema.
struct KeyColumn {
  const Value* cells;
  TypeKind type;
};

/// Lexicographic CompareKeyCells over `cols` for table rows `a` and `b`.
int CompareRows(const std::vector<KeyColumn>& cols, int64_t a, int64_t b) {
  for (const KeyColumn& col : cols) {
    const int c = CompareKeyCells(col.type, col.cells[a], col.cells[b]);
    if (c != 0) return c;
  }
  return 0;
}

uint64_t Mix(uint64_t h) {  // splitmix64 finalizer
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  h *= 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

/// Hash of one cell, consistent with CompareKeyCells equality: every
/// NULL hashes alike, as do every NaN and both zeros.
uint64_t HashKeyCell(TypeKind type, const Value& v) {
  if (v.holds_null()) return 0x6e756c6cULL;
  switch (type) {
    case TypeKind::kDate:
      return static_cast<uint64_t>(v.date_if()->days_since_epoch());
    case TypeKind::kInt64:
      return static_cast<uint64_t>(*v.int64_if());
    case TypeKind::kDouble: {
      const double d = *v.double_if();
      if (std::isnan(d)) return 0x4e614eULL;
      return d == 0.0 ? 0 : std::bit_cast<uint64_t>(d);
    }
    case TypeKind::kString:
      return std::hash<std::string_view>{}(*v.string_if());
    case TypeKind::kBool:
      return *v.bool_if() ? 1 : 2;
    case TypeKind::kNull:
      break;
  }
  return 0;
}

}  // namespace

StatusOr<ClusteredSequence> ClusteredSequence::Build(
    const Table* table, const std::vector<std::string>& cluster_by,
    const std::vector<std::string>& sequence_by) {
  SQLTS_CHECK(table != nullptr);
  auto resolve = [&](const std::vector<std::string>& names)
      -> StatusOr<std::vector<KeyColumn>> {
    std::vector<KeyColumn> cols;
    for (const std::string& name : names) {
      SQLTS_ASSIGN_OR_RETURN(int idx, table->schema().FindColumn(name));
      cols.push_back({table->column_data(idx).data(),
                      table->schema().column(idx).type});
    }
    return cols;
  };
  SQLTS_ASSIGN_OR_RETURN(std::vector<KeyColumn> cluster_cols,
                         resolve(cluster_by));
  SQLTS_ASSIGN_OR_RETURN(std::vector<KeyColumn> seq_cols,
                         resolve(sequence_by));

  // Group rows by cluster key, numbering groups in first-appearance
  // order.  A group is keyed by its first row; a probe row finds it by
  // hash and CompareRows equality.
  auto hash = [&](int64_t r) {
    uint64_t h = 0;
    for (const KeyColumn& col : cluster_cols) {
      h = Mix(h ^ HashKeyCell(col.type, col.cells[r]));
    }
    return h;
  };
  auto equal = [&](int64_t a, int64_t b) {
    return CompareRows(cluster_cols, a, b) == 0;
  };
  std::unordered_map<int64_t, int, decltype(hash), decltype(equal)> group_of(
      16, hash, equal);
  std::vector<std::vector<int64_t>> groups;
  int g = -1;
  for (int64_t r = 0; r < table->num_rows(); ++r) {
    // Cluster-major input (and no CLUSTER BY at all): a row whose key
    // equals the previous row's key joins its group without a lookup.
    if (r == 0 || !equal(r, r - 1)) {
      auto [it, inserted] =
          group_of.try_emplace(r, static_cast<int>(groups.size()));
      if (inserted) groups.emplace_back();
      g = it->second;
    }
    groups[g].push_back(r);
  }

  ClusteredSequence out;
  out.keys_.reserve(groups.size());
  out.clusters_.reserve(groups.size());
  // Sort each group by the sequence key (stable, so ties keep row-index
  // order).  Time series nearly always arrive in order, so an O(n) scan
  // for an inversion comes first and most groups skip the sort.
  auto less = [&](int64_t a, int64_t b) {
    return CompareRows(seq_cols, a, b) < 0;
  };
  for (std::vector<int64_t>& group : groups) {
    Row key;
    key.reserve(cluster_cols.size());
    for (const KeyColumn& col : cluster_cols) {
      key.push_back(col.cells[group.front()]);
    }
    out.keys_.push_back(std::move(key));
    if (!std::is_sorted(group.begin(), group.end(), less)) {
      std::stable_sort(group.begin(), group.end(), less);
    }
    out.clusters_.emplace_back(table, std::move(group));
  }
  return out;
}

}  // namespace sqlts
