// Cold-path export of the host-performance substrate counters.
//
// The host kernels' hot paths update kf::HostPerfCounters (process-wide
// lock-free atomics — a registry lookup allocates and is far too expensive
// per run). This shim snapshots those atomics into `hostperf.*` metrics so
// dashboards and the bench JSON see them alongside the executor metrics:
//
//   hostperf.pool_hits            arena checkouts served from the pool
//   hostperf.pool_misses          checkouts that had to construct fresh
//   hostperf.pool_hit_rate_ppm    hits / (hits+misses), parts per million
//   hostperf.arena_reused_bytes   capacity handed back out instead of malloc'd
//   hostperf.typed_predicates     SELECT members run on typed kernels
//   hostperf.fallback_predicates  SELECT members run as typed column programs
//
// Call it wherever a run's metrics are finalized (QueryExecutor does after
// every execution). Counters are cumulative since process start; the gauges
// overwrite, so the registry always shows the latest snapshot.
#ifndef KF_OBS_HOSTPERF_EXPORT_H_
#define KF_OBS_HOSTPERF_EXPORT_H_

#include "obs/metrics_registry.h"

namespace kf::obs {

void RecordHostPerfMetrics(MetricsRegistry& registry);

}  // namespace kf::obs

#endif  // KF_OBS_HOSTPERF_EXPORT_H_
