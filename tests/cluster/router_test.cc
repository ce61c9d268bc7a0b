// End-to-end tests of the shard router over REAL TCP: a router process
// fronting three in-process `serve` stacks on ephemeral ports.
//
//  (a) a mixed exact + sampling + structured-failure batch submitted
//      THROUGH the router comes back BIT-IDENTICAL to in-process
//      ShapleyService::Compute(), and lands on exactly the backends the
//      rendezvous shard map predicts;
//  (b) failover: with one backend killed — before the batch, or mid-batch
//      via HttpServer::Abort() (a crash simulation: connections die both
//      ways) — every id is still answered, bit-identical, with the
//      retried requests landing on the key's fallback shard and ZERO
//      drops;
//  (c) when no backend can serve a shard, the router answers a structured
//      kUpstreamUnavailable (HTTP 503), never a dropped or mangled id;
//  (d) the cluster surface: /v1/cluster, fleet-summed /v1/stats, proxied
//      /v1/engines, /healthz with role "router", and the health poller
//      restoring a flapped backend;
//  (e) RetagNdjsonLine rewrites ONLY the id — unknown response fields
//      cross the router verbatim (forward compatibility);
//  (f) the router's /v1/debug/hot is ONE merged fleet view: folding each
//      backend's own sketches client-side with MergeHeavySummaries
//      reproduces it exactly, and the counts are exact under capacity;
//  (g) the router's own deck records every routed single and batch line
//      (/v1/debug/flight), captures forwarded bodies verbatim
//      (/v1/debug/slow) and keeps its sketches empty.

#include "shapley/cluster/router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "shapley/cluster/shard_map.h"
#include "shapley/common/version.h"
#include "shapley/data/parser.h"
#include "shapley/net/client.h"
#include "shapley/net/codec.h"
#include "shapley/net/server.h"
#include "shapley/obs/heavy.h"
#include "shapley/obs/slowlog.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley {
namespace {

using cluster::RouterOptions;
using cluster::ShardRouter;
using net::Json;
using net::ShapleyClient;

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema,
                    std::string_view text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

/// One backend serving stack on an ephemeral port.
struct Stack {
  explicit Stack(ServiceOptions service_options = {.threads = 2})
      : service(service_options), server(&service) {
    server.Start();
  }
  ShapleyService service;
  net::HttpServer server;
};

/// Router options tuned for tests: no background poller (health changes
/// only through observed failures — deterministic), fast dial retries so
/// failover to a dead port costs milliseconds, not the production backoff.
RouterOptions FastRouterOptions() {
  RouterOptions options;
  options.health_poll_ms = 0;
  options.client.connect_attempts = 2;
  options.client.base_backoff_ms = 1;
  options.client.max_backoff_ms = 2;
  return options;
}

/// N backend stacks plus a router over them, torn down in reverse order.
struct Fleet {
  explicit Fleet(size_t n, RouterOptions options = FastRouterOptions()) {
    for (size_t i = 0; i < n; ++i) {
      backends.push_back(std::make_unique<Stack>());
      specs.push_back("127.0.0.1:" +
                      std::to_string(backends.back()->server.port()));
    }
    router = std::make_unique<ShardRouter>(specs, options);
    router->Start();
  }
  ~Fleet() { router->Stop(); }

  /// The placement the router must agree with: any process with the same
  /// backend list computes the same rendezvous ranking.
  size_t HomeShard(const SvcRequest& request) const {
    return cluster::ShardMap(specs).Rank(cluster::ShardKeyFor(request))[0];
  }

  std::vector<std::unique_ptr<Stack>> backends;
  std::vector<std::string> specs;
  std::unique_ptr<ShardRouter> router;
};

/// The full bit-identical comparison the acceptance criterion names:
/// values, ranked order, engine, verdict, ApproxInfo and error codes.
void ExpectBitIdentical(const std::vector<SvcResponse>& actual,
                        const std::vector<SvcResponse>& expected) {
  ASSERT_EQ(actual.size(), expected.size());
  for (size_t i = 0; i < expected.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(actual[i].ok(), expected[i].ok());
    EXPECT_EQ(actual[i].values, expected[i].values);
    EXPECT_EQ(actual[i].ranked, expected[i].ranked);
    EXPECT_EQ(actual[i].engine, expected[i].engine);
    EXPECT_EQ(actual[i].verdict.query_class, expected[i].verdict.query_class);
    ASSERT_EQ(actual[i].approx.has_value(), expected[i].approx.has_value());
    if (expected[i].approx.has_value()) {
      EXPECT_EQ(actual[i].approx->samples, expected[i].approx->samples);
      EXPECT_EQ(actual[i].approx->fact_samples,
                expected[i].approx->fact_samples);
      EXPECT_EQ(actual[i].approx->fact_half_widths,
                expected[i].approx->fact_half_widths);
      EXPECT_EQ(actual[i].approx->strategy, expected[i].approx->strategy);
    }
    ASSERT_EQ(actual[i].error.has_value(), expected[i].error.has_value());
    if (expected[i].error.has_value()) {
      EXPECT_EQ(actual[i].error->code, expected[i].error->code);
    }
  }
}

/// A cheap lifted-side instance; distinct `j` → distinct constants →
/// distinct canonical fingerprint → an independent shard-map key.
SvcRequest EasyInstance(const std::shared_ptr<Schema>& schema, int j) {
  const std::string a = "a" + std::to_string(j);
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(
      schema, "R(" + a + ") S(" + a + ",b) | S(" + a + ",c)");
  return request;
}

/// An instance sized to take real time — a fixed-count sampling run (no
/// early stopping, so the cost is a known ~tens of thousands of query
/// evaluations, far longer than the kill delay below) that is still
/// BIT-IDENTICAL wherever it executes (pure function of seed and
/// instance). `j`-dependent constants make every instance its own
/// shard-map key.
SvcRequest SlowInstance(const std::shared_ptr<Schema>& schema, int j) {
  SvcRequest request;
  request.query = ParseQuery(schema, "S(x,y), R(x), !T(y)");
  std::string db_text;
  for (int i = 0; i < 12; ++i) {
    const std::string a = "a" + std::to_string(j) + "_" + std::to_string(i);
    db_text += "R(" + a + ") ";
    db_text += "S(" + a + ",b" + std::to_string(i % 4) + ") ";
  }
  db_text += "T(b0) T(b1) | T(b2)";
  request.db = ParsePartitionedDatabase(schema, db_text);
  request.engine = "sampling";
  request.approx.epsilon = 0.025;
  request.approx.delta = 0.05;
  request.approx.seed = 5 + static_cast<uint64_t>(j);
  request.approx.strategy = ApproxStrategy::kHoeffding;
  return request;
}

/// The mixed batch of the acceptance criterion: exact lifted, exact
/// brute, sampling under every adaptive strategy, two structured
/// failures, a ranked mode — plus `extra_easy` distinct easy instances so
/// the batch demonstrably spans every shard.
std::vector<SvcRequest> MixedBatch(const std::shared_ptr<Schema>& schema,
                                   int extra_easy) {
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  QueryPtr negated = ParseQuery(schema, "S(x,y), R(x), !T(y)");
  PartitionedDatabase db = ParsePartitionedDatabase(
      schema, "R(a) R(b) S(a,c) S(b,d) T(c) | T(d) S(a,d)");

  std::vector<SvcRequest> requests;
  {
    SvcRequest r;  // → lifted (tractable side of the dichotomy).
    r.query = easy;
    r.db = db;
    requests.push_back(r);
  }
  {
    SvcRequest r;  // → guarded brute force (#P-hard side).
    r.query = hard;
    r.db = db;
    requests.push_back(r);
  }
  for (ApproxStrategy strategy :
       {ApproxStrategy::kHoeffding, ApproxStrategy::kBernstein,
        ApproxStrategy::kStratified}) {
    SvcRequest r;  // → sampling by explicit override, per strategy.
    r.query = negated;
    r.db = db;
    r.engine = "sampling";
    r.approx.epsilon = 0.1;
    r.approx.seed = 11;
    r.approx.strategy = strategy;
    requests.push_back(r);
  }
  {
    SvcRequest r;  // → kUnsupportedQuery (lifted cannot take negation).
    r.query = negated;
    r.db = db;
    r.engine = "lifted";
    requests.push_back(r);
  }
  {
    SvcRequest r;  // → kInvalidRequest (unknown engine).
    r.query = easy;
    r.db = db;
    r.engine = "no-such-engine";
    requests.push_back(r);
  }
  for (int j = 0; j < extra_easy; ++j) {
    requests.push_back(EasyInstance(schema, j));
  }
  return requests;
}

std::vector<SvcResponse> ReferenceResponses(
    const std::vector<SvcRequest>& requests) {
  ShapleyService reference(ServiceOptions{.threads = 2});
  std::vector<SvcResponse> expected;
  for (const SvcRequest& request : requests) {
    expected.push_back(reference.Compute(request));
  }
  return expected;
}

TEST(RouterTest, MixedBatchThroughRouterIsBitIdenticalToInProcessCompute) {
  auto schema = Schema::Create();
  std::vector<SvcRequest> requests = MixedBatch(schema, /*extra_easy=*/12);
  std::vector<SvcResponse> expected = ReferenceResponses(requests);
  // A one-backend fleet (every key homes on it) and a three-backend one.
  for (size_t backends : {size_t{1}, size_t{3}}) {
    SCOPED_TRACE(std::to_string(backends) + " backends");
    Fleet fleet(backends);

    // The test computes the placement the router MUST produce — rendezvous
    // hashing is deterministic from (key, backend ids) alone.
    std::vector<size_t> expected_routed(fleet.backends.size(), 0);
    for (const SvcRequest& request : requests) {
      ++expected_routed[fleet.HomeShard(request)];
    }

    ShapleyClient client("127.0.0.1", fleet.router->port());
    std::vector<SvcResponse> actual = client.ComputeBatch(requests);
    ExpectBitIdentical(actual, expected);

    // Every backend served exactly its predicted share (no failures, so
    // routed == home-shard group size), and the batch genuinely scattered.
    size_t shards_used = 0;
    for (size_t i = 0; i < fleet.backends.size(); ++i) {
      SCOPED_TRACE("backend " + std::to_string(i));
      EXPECT_EQ(fleet.router->backend(i)->routed(), expected_routed[i]);
      EXPECT_EQ(fleet.router->backend(i)->failed(), 0u);
      if (expected_routed[i] > 0) ++shards_used;
    }
    // 19 independent keys: one backend serves them all, three split them.
    EXPECT_GE(shards_used, std::min<size_t>(backends, 2));

    // Identical instances always revisit their home shard: a repeat batch
    // doubles every per-backend count instead of re-spraying.
    std::vector<SvcResponse> again = client.ComputeBatch(requests);
    ExpectBitIdentical(again, expected);
    for (size_t i = 0; i < fleet.backends.size(); ++i) {
      EXPECT_EQ(fleet.router->backend(i)->routed(), 2 * expected_routed[i]);
    }
  }
}

TEST(RouterTest, ComputeProxiesBackendStatusAndBodyVerbatim) {
  auto schema = Schema::Create();
  Fleet fleet(3);
  ShapleyClient client("127.0.0.1", fleet.router->port());

  SvcRequest ok_request = EasyInstance(schema, 0);
  SvcResponse ok_response = client.Compute(ok_request);
  EXPECT_TRUE(ok_response.ok());
  EXPECT_EQ(client.last_status(), 200);

  // A structured backend failure keeps its documented status through the
  // proxy hop — the router forwards, it does not reinterpret.
  SvcRequest invalid = EasyInstance(schema, 1);
  invalid.engine = "no-such-engine";
  SvcResponse invalid_response = client.Compute(invalid);
  ASSERT_TRUE(invalid_response.error.has_value());
  EXPECT_EQ(invalid_response.error->code, SvcErrorCode::kInvalidRequest);
  EXPECT_EQ(client.last_status(), 400);
}

TEST(RouterTest, KillBeforeBatchFailsOverWithZeroDrops) {
  auto schema = Schema::Create();
  std::vector<SvcRequest> requests = MixedBatch(schema, /*extra_easy=*/12);
  Fleet fleet(3);

  // Kill the backend that owns the most requests. With the poller off the
  // router still believes it healthy, so the scatter MUST discover the
  // crash through transport failures and re-route — the path under test.
  std::vector<size_t> owned(fleet.backends.size(), 0);
  for (const SvcRequest& request : requests) {
    ++owned[fleet.HomeShard(request)];
  }
  size_t victim = 0;
  for (size_t i = 1; i < owned.size(); ++i) {
    if (owned[i] > owned[victim]) victim = i;
  }
  ASSERT_GE(owned[victim], 1u);
  fleet.backends[victim]->server.Abort();

  std::vector<SvcResponse> expected = ReferenceResponses(requests);
  ShapleyClient client("127.0.0.1", fleet.router->port());
  std::vector<SvcResponse> actual = client.ComputeBatch(requests);

  // Zero drops, bit-identical — the victim's whole share was re-sent to
  // each key's fallback shard and answered there.
  ExpectBitIdentical(actual, expected);
  EXPECT_FALSE(fleet.router->backend(victim)->healthy());
  EXPECT_EQ(fleet.router->backend(victim)->failed(), owned[victim]);
  size_t retried = 0;
  for (size_t i = 0; i < fleet.backends.size(); ++i) {
    retried += fleet.router->backend(i)->retried();
  }
  EXPECT_EQ(retried, owned[victim]);
}

TEST(RouterTest, KillMidBatchFailsOverWithZeroDrops) {
  auto schema = Schema::Create();
  // Six slow, mutually distinct #P-hard instances: by pigeonhole some
  // backend owns at least two, and each takes long enough that NO line of
  // its sub-batch has streamed when the kill lands 40 ms in.
  std::vector<SvcRequest> requests;
  for (int j = 0; j < 6; ++j) requests.push_back(SlowInstance(schema, j));

  Fleet fleet(3);
  std::vector<size_t> owned(fleet.backends.size(), 0);
  for (const SvcRequest& request : requests) {
    ++owned[fleet.HomeShard(request)];
  }
  size_t victim = 0;
  for (size_t i = 1; i < owned.size(); ++i) {
    if (owned[i] > owned[victim]) victim = i;
  }
  ASSERT_GE(owned[victim], 2u);

  std::vector<SvcResponse> actual;
  std::thread submitter([&] {
    ShapleyClient client("127.0.0.1", fleet.router->port());
    actual = client.ComputeBatch(requests);
  });
  // Let the scatter reach every backend, then crash the busiest one with
  // its sub-batch in flight: connections die both ways, mid-stream.
  std::this_thread::sleep_for(std::chrono::milliseconds(40));
  fleet.backends[victim]->server.Abort();
  submitter.join();

  // Every id answered exactly once and bit-identical to in-process ground
  // truth — the undelivered ids were recomputed on their fallback shards.
  std::vector<SvcResponse> expected = ReferenceResponses(requests);
  ExpectBitIdentical(actual, expected);
  EXPECT_FALSE(fleet.router->backend(victim)->healthy());
  size_t retried = 0;
  for (size_t i = 0; i < fleet.backends.size(); ++i) {
    retried += fleet.router->backend(i)->retried();
  }
  EXPECT_EQ(retried, owned[victim]);
}

TEST(RouterTest, AllBackendsDownYieldStructuredUpstreamUnavailable) {
  auto schema = Schema::Create();
  Fleet fleet(1);
  fleet.backends[0]->server.Abort();

  ShapleyClient client("127.0.0.1", fleet.router->port());

  // Single compute: the dial fails, the shard is marked down, and the
  // router answers the documented 503 — a structured error, not a hangup.
  SvcResponse response = client.Compute(EasyInstance(schema, 0));
  ASSERT_TRUE(response.error.has_value());
  EXPECT_EQ(response.error->code, SvcErrorCode::kUpstreamUnavailable);
  EXPECT_EQ(client.last_status(), 503);

  // Batch: every id gets its own kUpstreamUnavailable line, none dropped.
  std::vector<SvcRequest> requests = {EasyInstance(schema, 1),
                                      EasyInstance(schema, 2)};
  std::vector<SvcResponse> responses = client.ComputeBatch(requests);
  ASSERT_EQ(responses.size(), requests.size());
  for (const SvcResponse& r : responses) {
    ASSERT_TRUE(r.error.has_value());
    EXPECT_EQ(r.error->code, SvcErrorCode::kUpstreamUnavailable);
  }

  int status = 0;
  const std::string body = client.RawGet("/v1/cluster", &status);
  ASSERT_EQ(status, 200);
  std::optional<Json> cluster = Json::Parse(body);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(*cluster->Find("requests_unserved")->IfUint64(), 3u);
  const Json::Array* shards = cluster->Find("shards")->IfArray();
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->size(), 1u);
  EXPECT_EQ((*shards)[0].Find("healthy")->IfBool(), false);
}

TEST(RouterTest, ClusterStatsEnginesAndHealthzDescribeTheFleet) {
  auto schema = Schema::Create();
  Fleet fleet(3);
  ShapleyClient client("127.0.0.1", fleet.router->port());

  std::vector<SvcRequest> requests;
  for (int j = 0; j < 5; ++j) requests.push_back(EasyInstance(schema, j));
  for (const SvcResponse& r : client.ComputeBatch(requests)) {
    ASSERT_TRUE(r.ok());
  }

  // /healthz: answered by the router itself, with the router role.
  int status = 0;
  std::optional<Json> health = Json::Parse(client.RawGet("/healthz", &status));
  ASSERT_EQ(status, 200);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(*health->Find("status")->IfString(), "ok");
  EXPECT_EQ(*health->Find("version")->IfString(), kShapleyVersion);
  EXPECT_EQ(*health->Find("role")->IfString(), "router");

  // /v1/cluster: the shard map with per-backend health and counters.
  std::optional<Json> cluster =
      Json::Parse(client.RawGet("/v1/cluster", &status));
  ASSERT_EQ(status, 200);
  ASSERT_TRUE(cluster.has_value());
  EXPECT_EQ(*cluster->Find("role")->IfString(), "router");
  EXPECT_EQ(*cluster->Find("hash")->IfString(), "rendezvous-fnv1a64");
  EXPECT_EQ(*cluster->Find("requests_routed")->IfUint64(), 5u);
  EXPECT_EQ(*cluster->Find("requests_failed_over")->IfUint64(), 0u);
  EXPECT_EQ(*cluster->Find("requests_unserved")->IfUint64(), 0u);
  const Json::Array* shards = cluster->Find("shards")->IfArray();
  ASSERT_NE(shards, nullptr);
  ASSERT_EQ(shards->size(), fleet.backends.size());
  uint64_t routed_total = 0;
  for (size_t i = 0; i < shards->size(); ++i) {
    const Json& shard = (*shards)[i];
    EXPECT_EQ(*shard.Find("id")->IfString(), fleet.specs[i]);
    EXPECT_EQ(shard.Find("healthy")->IfBool(), true);
    routed_total += *shard.Find("routed")->IfUint64();
    EXPECT_EQ(*shard.Find("failed")->IfUint64(), 0u);
  }
  EXPECT_EQ(routed_total, 5u);

  // /v1/stats through the router LOOKS like one backend: the fleet's
  // service counters summed (probes are /healthz-only and touch none of
  // them), plus the router's own server block.
  Json stats = client.Stats();
  const Json* service = stats.Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_EQ(*service->Find("requests_submitted")->IfUint64(), 5u);
  EXPECT_EQ(*service->Find("requests_completed")->IfUint64(), 5u);
  EXPECT_EQ(*service->Find("requests_inflight")->IfUint64(), 0u);
  ASSERT_NE(stats.Find("server"), nullptr);
  EXPECT_GE(*stats.Find("server")->Find("requests_served")->IfUint64(), 1u);

  // /v1/engines: proxied from a healthy backend, same registry.
  Json engines = client.Engines();
  const Json::Array* list = engines.Find("engines")->IfArray();
  ASSERT_NE(list, nullptr);
  bool saw_sampling = false;
  for (const Json& engine : *list) {
    if (*engine.Find("name")->IfString() == "sampling") saw_sampling = true;
  }
  EXPECT_TRUE(saw_sampling);
}

TEST(RouterTest, HealthPollerRestoresAFlappedBackend) {
  RouterOptions options = FastRouterOptions();
  options.health_poll_ms = 50;
  Fleet fleet(2, options);

  // Flap a live backend down by hand: only a successful probe may restore
  // it, and the poller supplies exactly that.
  fleet.router->backend(0)->set_healthy(false);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!fleet.router->backend(0)->healthy() &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(fleet.router->backend(0)->healthy());
}

TEST(RouterTest, RetagNdjsonLinePreservesUnknownFieldsVerbatim) {
  // A response line from some FUTURE backend: fields this build has never
  // heard of, nested arbitrarily. The router may rewrite the id and
  // NOTHING else.
  const std::string line =
      R"js({"id":3,"values":[{"fact":"R(a)","value":"1/2"}],)js"
      R"js("future_field":{"deep":[1,2,{"x":"y"}]},"another":true})js";
  const std::string retagged = cluster::RetagNdjsonLine(line, 41);
  EXPECT_EQ(retagged,
            R"js({"id":41,"values":[{"fact":"R(a)","value":"1/2"}],)js"
            R"js("future_field":{"deep":[1,2,{"x":"y"}]},"another":true})js");

  // The id moves to the front even when the input buried it.
  EXPECT_EQ(cluster::RetagNdjsonLine(R"js({"a":1,"id":9})js", 2),
            R"js({"id":2,"a":1})js");

  // Undecodable lines throw (the batch gather treats that as a transport
  // failure of the shard) instead of forwarding garbage under a new id.
  EXPECT_THROW(cluster::RetagNdjsonLine("not json", 1), std::runtime_error);
}

TEST(RouterTest, DebugHotMergesBackendSketchesIntoOneFleetView) {
  auto schema = Schema::Create();
  Fleet fleet(3);
  ShapleyClient router_client("127.0.0.1", fleet.router->port());

  // 8 distinct shard keys (spanning the fleet), each computed 3 times so
  // real counts accrue on whichever backend owns the key.
  for (int round = 0; round < 3; ++round) {
    for (int j = 0; j < 8; ++j) {
      const SvcResponse response =
          router_client.Compute(EasyInstance(schema, j));
      EXPECT_TRUE(response.ok());
    }
  }

  // Fold each backend's OWN sketches client-side...
  obs::HeavySummary keys_fold;
  obs::HeavySummary classes_fold;
  for (const auto& backend : fleet.backends) {
    ShapleyClient direct("127.0.0.1", backend->server.port());
    int status = 0;
    const std::string body = direct.RawGet("/v1/debug/hot", &status);
    ASSERT_EQ(status, 200);
    const auto parsed = Json::Parse(body);
    ASSERT_TRUE(parsed.has_value());
    const Json* sketches = parsed->Find("sketches");
    ASSERT_NE(sketches, nullptr);
    ASSERT_NE(sketches->Find("shard_key"), nullptr);
    ASSERT_NE(sketches->Find("query_class"), nullptr);
    const auto keys = obs::ParseHeavySummary(*sketches->Find("shard_key"));
    const auto classes =
        obs::ParseHeavySummary(*sketches->Find("query_class"));
    ASSERT_TRUE(keys.has_value());
    ASSERT_TRUE(classes.has_value());
    keys_fold = obs::MergeHeavySummaries(keys_fold, *keys);
    classes_fold = obs::MergeHeavySummaries(classes_fold, *classes);
  }

  // ...and the router's /v1/debug/hot must report EXACTLY that fold: the
  // router keeps no sketch of its own, so nothing is ever double-counted.
  int status = 0;
  const std::string hot = router_client.RawGet("/v1/debug/hot", &status);
  ASSERT_EQ(status, 200);
  const auto parsed = Json::Parse(hot);
  ASSERT_TRUE(parsed.has_value());
  ASSERT_NE(parsed->Find("role"), nullptr);
  EXPECT_EQ(parsed->Find("role")->Dump(), "\"router\"");
  ASSERT_NE(parsed->Find("backends"), nullptr);
  EXPECT_EQ(parsed->Find("backends")->IfUint64().value_or(0), 3u);
  const Json* sketches = parsed->Find("sketches");
  ASSERT_NE(sketches, nullptr);
  ASSERT_NE(sketches->Find("shard_key"), nullptr);
  ASSERT_NE(sketches->Find("query_class"), nullptr);
  const auto merged_keys =
      obs::ParseHeavySummary(*sketches->Find("shard_key"));
  const auto merged_classes =
      obs::ParseHeavySummary(*sketches->Find("query_class"));
  ASSERT_TRUE(merged_keys.has_value());
  ASSERT_TRUE(merged_classes.has_value());
  EXPECT_EQ(merged_keys->hitters, keys_fold.hitters);
  EXPECT_EQ(merged_keys->total, keys_fold.total);
  EXPECT_EQ(merged_keys->evictions, keys_fold.evictions);
  EXPECT_EQ(merged_classes->hitters, classes_fold.hitters);
  EXPECT_EQ(merged_classes->total, classes_fold.total);

  // Under capacity the fleet view is EXACT: 8 distinct keys, 3 hits each,
  // and one query class carrying all 24 requests.
  EXPECT_EQ(merged_keys->total, 24u);
  ASSERT_EQ(merged_keys->hitters.size(), 8u);
  for (const obs::HeavyHitter& hitter : merged_keys->hitters) {
    EXPECT_EQ(hitter.count, 3u);
    EXPECT_EQ(hitter.error, 0u);
  }
  EXPECT_EQ(merged_classes->total, 24u);
  ASSERT_EQ(merged_classes->hitters.size(), 1u);
  EXPECT_EQ(merged_classes->hitters[0].count, 24u);
}

// The router's own deck lives in its HttpServer: one flight digest per
// routed single and per routed batch line (engine = the backend that
// served it), slow captures of the forwarded bytes, and no sketch hits.
TEST(RouterTest, DebugFlightAndSlowRecordEveryRoutedRequest) {
  auto schema = Schema::Create();
  RouterOptions options = FastRouterOptions();
  options.server.slow_threshold_ms = 1e-6;  // Every request is "slow".
  Fleet fleet(3, options);
  ShapleyClient client("127.0.0.1", fleet.router->port());

  // A single, a 3-item batch, then a single no backend may serve.
  const SvcRequest single = EasyInstance(schema, 0);
  const std::vector<SvcRequest> items = {EasyInstance(schema, 1),
                                         EasyInstance(schema, 2),
                                         EasyInstance(schema, 3)};
  const SvcRequest unserved = EasyInstance(schema, 4);
  const std::string single_body = net::EncodeRequest(single).Dump();
  std::vector<std::string> item_bodies;
  std::string batch_body = "{\"requests\":[";
  for (const SvcRequest& item : items) {
    item_bodies.push_back(net::EncodeRequest(item).Dump());
    if (item_bodies.size() > 1) batch_body += ',';
    batch_body += item_bodies.back();
  }
  batch_body += "]}";

  int status = 0;
  client.RawCompute(single_body, &status);
  EXPECT_EQ(status, 200);
  size_t lines = 0;
  client.RawBatch(batch_body, [&](const std::string&) { ++lines; });
  EXPECT_EQ(lines, items.size());
  for (size_t i = 0; i < fleet.router->num_backends(); ++i) {
    fleet.router->backend(i)->set_healthy(false);
  }
  client.RawCompute(net::EncodeRequest(unserved).Dump(), &status);
  EXPECT_EQ(status, 503);

  // Flight: five /v1/compute digests in order — the single, the batch
  // lines in completion order, the unserved single.
  std::map<uint64_t, std::string> home_of;  // shard_key_hash → spec.
  for (const SvcRequest* request : {&single, &items[0], &items[1],
                                    &items[2], &unserved}) {
    home_of[cluster::StableHash64(cluster::ShardKeyFor(*request))] =
        fleet.specs[fleet.HomeShard(*request)];
  }
  const auto flight =
      Json::Parse(client.RawGet("/v1/debug/flight", &status));
  ASSERT_EQ(status, 200);
  ASSERT_TRUE(flight.has_value());
  const Json::Array* digests = flight->Find("entries")->IfArray();
  ASSERT_NE(digests, nullptr);
  ASSERT_EQ(digests->size(), 5u);
  std::set<uint64_t> hashes;
  for (size_t i = 0; i < digests->size(); ++i) {
    SCOPED_TRACE("digest " + std::to_string(i));
    const Json& digest = (*digests)[i];
    EXPECT_EQ(*digest.Find("target")->IfString(), "/v1/compute");
    const uint64_t hash = digest.Find("shard_key_hash")->IfUint64().value();
    ASSERT_EQ(home_of.count(hash), 1u);
    hashes.insert(hash);
    const bool last = i + 1 == digests->size();
    EXPECT_EQ(*digest.Find("engine")->IfString(),
              last ? "" : home_of[hash]);
    EXPECT_EQ(digest.Find("status")->IfInt64().value(), last ? 503 : 200);
  }
  EXPECT_EQ(hashes.size(), 5u);
  EXPECT_EQ((*digests)[0].Find("shard_key_hash")->IfUint64().value(),
            cluster::StableHash64(cluster::ShardKeyFor(single)));
  EXPECT_EQ((*digests)[4].Find("shard_key_hash")->IfUint64().value(),
            cluster::StableHash64(cluster::ShardKeyFor(unserved)));

  // Slow-log: every forwarded body verbatim, each batch item standalone
  // under /v1/compute; the unserved single reached no backend and has no
  // entry.
  std::vector<obs::LogEntry> slow;
  ASSERT_TRUE(obs::ParseSlowLogBody(
      client.RawGet("/v1/debug/slow", &status), &slow));
  ASSERT_EQ(status, 200);
  ASSERT_EQ(slow.size(), 4u);
  EXPECT_EQ(slow[0].body, single_body);
  std::multiset<std::string> captured;
  for (const obs::LogEntry& entry : slow) {
    EXPECT_EQ(entry.target, "/v1/compute");
    captured.insert(entry.body);
  }
  EXPECT_EQ(captured,
            std::multiset<std::string>({single_body, item_bodies[0],
                                        item_bodies[1], item_bodies[2]}));

  // The router records no sketch: /v1/debug/hot is the backends' merge.
  const std::string text = fleet.router->metrics()->RenderPrometheus();
  for (const char* sketch : {"shard_key", "query_class"}) {
    EXPECT_NE(text.find(std::string("shapley_heavy_recorded_total{role="
                                    "\"router\",sketch=\"") +
                        sketch + "\"} 0\n"),
              std::string::npos)
        << sketch;
  }
}

}  // namespace
}  // namespace shapley
