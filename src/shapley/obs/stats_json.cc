#include "shapley/obs/stats_json.h"

namespace shapley::obs {

using net::Json;

net::Json ServiceStatsJson(const ServiceStats& stats) {
  Json json;
  json.Set("requests_submitted",
           Json::Number(uint64_t{stats.requests_submitted}));
  json.Set("requests_completed",
           Json::Number(uint64_t{stats.requests_completed}));
  json.Set("requests_failed", Json::Number(uint64_t{stats.requests_failed}));
  json.Set("requests_inflight",
           Json::Number(uint64_t{stats.requests_inflight}));
  json.Set("verdict_cache_hits",
           Json::Number(uint64_t{stats.verdict_cache_hits}));
  json.Set("verdict_cache_misses",
           Json::Number(uint64_t{stats.verdict_cache_misses}));
  json.Set("pool_threads", Json::Number(uint64_t{stats.pool_threads}));
  json.Set("pool_tasks_executed",
           Json::Number(uint64_t{stats.pool_tasks_executed}));
  json.Set("cache_entries", Json::Number(uint64_t{stats.cache_entries}));
  json.Set("cache_bytes", Json::Number(uint64_t{stats.cache_bytes}));
  json.Set("cache_hits", Json::Number(uint64_t{stats.cache_hits}));
  json.Set("cache_misses", Json::Number(uint64_t{stats.cache_misses}));
  json.Set("cache_evictions", Json::Number(uint64_t{stats.cache_evictions}));
  return json;
}

net::Json ServerCountersJson(const net::ServerCounters& counters) {
  Json json;
  json.Set("connections_accepted",
           Json::Number(uint64_t{counters.connections_accepted}));
  json.Set("connections_rejected",
           Json::Number(uint64_t{counters.connections_rejected}));
  json.Set("connections_live",
           Json::Number(uint64_t{counters.connections_live}));
  json.Set("requests_served",
           Json::Number(uint64_t{counters.requests_served}));
  return json;
}

bool StatsConserved(const ServiceStats& stats) {
  return StatsConservationError(stats) == 0;
}

long long StatsConservationError(const ServiceStats& stats) {
  return static_cast<long long>(stats.requests_submitted) -
         static_cast<long long>(stats.requests_completed +
                                stats.requests_failed +
                                stats.requests_inflight);
}

}  // namespace shapley::obs
