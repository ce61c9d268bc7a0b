#ifndef SHAPLEY_OBS_STATS_JSON_H_
#define SHAPLEY_OBS_STATS_JSON_H_

#include "shapley/net/json.h"
#include "shapley/net/server.h"
#include "shapley/service/shapley_service.h"

namespace shapley::obs {

/// The ONE serialization path for every stats struct in the stack:
/// `/v1/stats` (backend) and the router's fleet-sum stats both emit
/// through these functions, and the key order below is CANONICAL: a test
/// asserts the rendered bytes, so reordering a field is a deliberate wire
/// change, not an accident.

/// Keys, in order: requests_submitted, requests_completed, requests_failed,
/// requests_inflight, verdict_cache_hits, verdict_cache_misses,
/// pool_threads, pool_tasks_executed, cache_entries, cache_bytes,
/// cache_hits, cache_misses, cache_evictions.
net::Json ServiceStatsJson(const ServiceStats& stats);

/// Keys, in order: connections_accepted, connections_rejected,
/// connections_live, requests_served.
net::Json ServerCountersJson(const net::ServerCounters& counters);

/// The conservation invariant every ServiceStats snapshot must satisfy at
/// quiescence: submitted == completed + failed + inflight (each request is
/// in exactly one of the three terminal-or-pending states). A LIVE snapshot
/// may transiently violate it — the counters are read one atomic at a time
/// while requests move between states — so assert it only after a drain;
/// /metrics exposes the signed error as a gauge for the same reason.
bool StatsConserved(const ServiceStats& stats);

/// submitted - (completed + failed + inflight), as a signed value.
long long StatsConservationError(const ServiceStats& stats);

}  // namespace shapley::obs

#endif  // SHAPLEY_OBS_STATS_JSON_H_
