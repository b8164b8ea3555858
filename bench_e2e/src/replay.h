// Traced replays: each re-runs one executor's single-threaded path as
// the sequence of public calls it makes, with every call inside a span
// of its layer.  Steps that only exist inside an executor (result
// assembly, loop bookkeeping) fall into `other`.  A replay must return
// exactly what the public call returns; CheckParity enforces it.
#ifndef SQLTS_BENCH_E2E_REPLAY_H_
#define SQLTS_BENCH_E2E_REPLAY_H_

#include <string>
#include <string_view>
#include <vector>

#include "colstore/columnar_executor.h"
#include "engine/executor.h"
#include "harness.h"
#include "multiquery/multi_executor.h"

namespace e2e {

/// QueryExecutor::Execute (sequential path).
sqlts::Status ReplayExecute(const sqlts::Table& input,
                            std::string_view query_text,
                            const sqlts::ExecOptions& options, Tracer* tracer,
                            sqlts::QueryResult* out);

/// MultiQueryExecutor::Execute (sequential path).
sqlts::Status ReplayQuerySet(const sqlts::Table& input,
                             const std::vector<std::string>& queries,
                             const sqlts::ExecOptions& options, Tracer* tracer,
                             sqlts::QuerySetResult* out);

/// ColumnarExecutor::ExecuteFile (sequential cluster-major fast path;
/// fails on a file whose layout would take the full-decode fallback).
sqlts::Status ReplayColumnarFile(const std::string& path,
                                 std::string_view query_text,
                                 const sqlts::ColumnarExecOptions& options,
                                 Tracer* tracer, sqlts::QueryResult* out);

/// Rows and SearchStats of `replayed` equal those of `reference`.
sqlts::Status CheckParity(const sqlts::QueryResult& replayed,
                          const sqlts::QueryResult& reference);

/// Adds one search's counters to the run's engine.* counts.
void CountSearch(Tracer* tracer, const sqlts::SearchStats& stats);

}  // namespace e2e

#endif  // SQLTS_BENCH_E2E_REPLAY_H_
