#ifndef SQLTS_STORAGE_SEQUENCE_H_
#define SQLTS_STORAGE_SEQUENCE_H_

#include <string>
#include <vector>

#include "common/statusor.h"
#include "storage/table.h"
#include "types/numeric_ops.h"

namespace sqlts {

/// Three-way comparison of two cells of one CLUSTER BY or SEQUENCE BY
/// column whose schema type is `type`.  This is the one order both
/// ClusteredSequence::Build and the streaming order guard use, so a
/// stream is accepted exactly when batch would keep its arrival order:
///  - NULL equals NULL and sorts before every value;
///  - doubles follow num::CompareF64: NaN equals NaN and sorts above
///    every number, and -0.0 equals 0.0.  An int64 cell of a double
///    column (a pushed stream row that AppendRow has not converted yet)
///    compares as the double AppendRow would store;
///  - bools order false before true, strings bytewise, dates by day.
/// Every other cell must hold `type`: AppendRow and FromColumns make
/// each column homogeneous, so the comparison cannot fail.
inline int CompareKeyCells(TypeKind type, const Value& x, const Value& y) {
  const bool xn = x.holds_null(), yn = y.holds_null();
  if (xn || yn) return xn == yn ? 0 : (xn ? -1 : 1);
  auto three_way = [](const auto& a, const auto& b) {
    return a < b ? -1 : (b < a ? 1 : 0);
  };
  switch (type) {
    case TypeKind::kDate:
      return three_way(*x.date_if(), *y.date_if());
    case TypeKind::kInt64:
      return three_way(*x.int64_if(), *y.int64_if());
    case TypeKind::kDouble: {
      auto f64 = [](const Value& v) {
        const double* d = v.double_if();
        return d != nullptr ? *d : static_cast<double>(*v.int64_if());
      };
      return num::CompareF64(f64(x), f64(y));
    }
    case TypeKind::kString: {
      const int c = x.string_if()->compare(*y.string_if());
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    }
    case TypeKind::kBool:
      return three_way(*x.bool_if(), *y.bool_if());
    case TypeKind::kNull:
      break;
  }
  return 0;
}

/// One cluster of a table: an ordered run of row indices, all sharing the
/// same CLUSTER BY key, sorted by the SEQUENCE BY key.  This is the input
/// stream the pattern matchers traverse (paper Fig. 1).
class SequenceView {
 public:
  /// Owning form: the view keeps its own row-index vector.
  SequenceView(const Table* table, std::vector<int64_t> rows)
      : table_(table), owned_rows_(std::move(rows)), rows_(&owned_rows_) {}

  /// Borrowing form: `rows` must outlive the view (used by the
  /// streaming matcher, whose index grows with every push).
  SequenceView(const Table* table, const std::vector<int64_t>* rows)
      : table_(table), rows_(rows) {}

  SequenceView(const SequenceView& o)
      : table_(o.table_), owned_rows_(o.owned_rows_) {
    rows_ = o.rows_ == &o.owned_rows_ ? &owned_rows_ : o.rows_;
  }
  SequenceView(SequenceView&& o) noexcept
      : table_(o.table_), owned_rows_(std::move(o.owned_rows_)) {
    rows_ = o.rows_ == &o.owned_rows_ ? &owned_rows_ : o.rows_;
  }
  SequenceView& operator=(const SequenceView&) = delete;
  SequenceView& operator=(SequenceView&&) = delete;

  /// Number of tuples in this cluster's sequence.
  int64_t size() const { return static_cast<int64_t>(rows_->size()); }

  /// Value of column `col` of the tuple at sequence position `pos`
  /// (0-based).  Out-of-range positions are checked invariants; use
  /// `InRange` first for previous/next navigation.
  const Value& at(int64_t pos, int col) const {
    return table_->at((*rows_)[pos], col);
  }

  bool InRange(int64_t pos) const { return pos >= 0 && pos < size(); }

  /// Underlying table row index of sequence position `pos`.
  int64_t row_index(int64_t pos) const { return (*rows_)[pos]; }

  /// Raw row-index array (size() entries; the vectorized kernels hoist
  /// this once per block instead of indexing through at() per cell).
  const int64_t* row_data() const { return rows_->data(); }

  const Table& table() const { return *table_; }

 private:
  const Table* table_;  // not owned
  std::vector<int64_t> owned_rows_;
  const std::vector<int64_t>* rows_;
};

/// Result of applying CLUSTER BY + SEQUENCE BY to a table: one
/// SequenceView per distinct cluster key, clusters ordered by first
/// appearance, tuples within a cluster stably sorted by the sequence key.
class ClusteredSequence {
 public:
  /// Partitions `table` by `cluster_by` columns (may be empty: a single
  /// cluster, or none for an empty table) and stably sorts each
  /// partition by `sequence_by` columns ascending, both under
  /// CompareKeyCells: NULL keys form one cluster and sort first, NaN
  /// keys form one cluster and sort last, and -0.0 and 0.0 are one key.
  /// Ties keep row-index order, and `cluster_key(i)` holds the cells of
  /// cluster i's first row in table order.  NotFound if a named column
  /// is missing; nothing else fails.  Linear time when each cluster's
  /// rows already arrive in sequence order (the usual case for time
  /// series).
  static StatusOr<ClusteredSequence> Build(
      const Table* table, const std::vector<std::string>& cluster_by,
      const std::vector<std::string>& sequence_by);

  int num_clusters() const { return static_cast<int>(clusters_.size()); }
  const SequenceView& cluster(int i) const { return clusters_[i]; }
  /// The cluster key values (one per CLUSTER BY column) of cluster `i`.
  const Row& cluster_key(int i) const { return keys_[i]; }

 private:
  std::vector<SequenceView> clusters_;
  std::vector<Row> keys_;
};

}  // namespace sqlts

#endif  // SQLTS_STORAGE_SEQUENCE_H_
