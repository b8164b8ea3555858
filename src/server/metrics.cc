#include "server/metrics.h"

namespace sqlts {

Json ServerMetrics::Snapshot(const MultiQueryStats* live) const {
  Json o = Json::Obj();
  Json sessions = Json::Obj();
  sessions.Set("active", Json::Int(sessions_active.load()));
  sessions.Set("peak", Json::Int(sessions_peak.load()));
  sessions.Set("admitted", Json::Int(sessions_admitted.load()));
  sessions.Set("waiting", Json::Int(sessions_waiting.load()));
  sessions.Set("rejected", Json::Int(sessions_rejected.load()));
  o.Set("sessions", std::move(sessions));

  Json queries = Json::Obj();
  queries.Set("in_flight", Json::Int(queries_in_flight.load()));
  queries.Set("completed", Json::Int(queries_completed.load()));
  queries.Set("cancelled", Json::Int(queries_cancelled.load()));
  queries.Set("rejected", Json::Int(queries_rejected.load()));
  queries.Set("failed", Json::Int(queries_failed.load()));
  o.Set("queries", std::move(queries));

  Json wire = Json::Obj();
  wire.Set("rows_sent", Json::Int(rows_sent.load()));
  wire.Set("frames_received", Json::Int(frames_received.load()));
  wire.Set("protocol_errors", Json::Int(protocol_errors.load()));
  o.Set("wire", std::move(wire));

  Json storage = Json::Obj();
  storage.Set("datasets_columnar", Json::Int(storage_datasets_columnar.load()));
  storage.Set("blocks_total", Json::Int(storage_blocks_total.load()));
  storage.Set("blocks_skipped", Json::Int(storage_blocks_skipped.load()));
  storage.Set("bytes_read", Json::Int(storage_bytes_read.load()));
  o.Set("storage", std::move(storage));

  MultiQueryStats total;
  int64_t runs;
  Json errors = Json::Obj();
  {
    ts::MutexLock lock(mu_);
    total = workload_;
    runs = coalesced_runs_;
    for (const auto& [code, count] : errors_by_code_) {
      errors.Set(code, Json::Int(count));
    }
  }
  o.Set("errors_by_code", std::move(errors));
  if (live != nullptr) {
    total.shared_lookups += live->shared_lookups;
    total.shared_evals += live->shared_evals;
    total.cache_hits += live->cache_hits;
    total.inferred_hits += live->inferred_hits;
    total.private_evals += live->private_evals;
    total.tuples_scanned += live->tuples_scanned;
  }
  Json workload = Json::Obj();
  workload.Set("coalesced_runs", Json::Int(runs));
  workload.Set("tuples_scanned", Json::Int(total.tuples_scanned));
  workload.Set("shared_lookups", Json::Int(total.shared_lookups));
  workload.Set("shared_evals", Json::Int(total.shared_evals));
  workload.Set("cache_hits", Json::Int(total.cache_hits));
  workload.Set("inferred_hits", Json::Int(total.inferred_hits));
  workload.Set("private_evals", Json::Int(total.private_evals));
  workload.Set("dedup_hit_rate", total.shared_lookups > 0
                                     ? Json::Double(total.dedup_hit_rate())
                                     : Json::Double(0.0));
  o.Set("workload", std::move(workload));
  return o;
}

}  // namespace sqlts
