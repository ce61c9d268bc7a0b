// End-to-end tests of the network front over REAL TCP sockets on an
// ephemeral port:
//
//  (a) a mixed batch — exact lifted + guarded brute + sampling with
//      strategy overrides + structured failures — submitted through
//      net/client comes back BIT-IDENTICAL to in-process
//      ShapleyService::Compute(), with SvcError codes surfaced as the
//      documented HTTP statuses;
//  (b) the server drains in-flight requests on Stop(): responses already
//      being computed are streamed out, never dropped;
//  (c) transport-level behavior: keep-alive connection reuse, unknown
//      endpoints, malformed HTTP, oversized bodies, /v1/engines and
//      /v1/stats, and Start() throwing when the event loop cannot be
//      created.

#include "shapley/net/server.h"

#include <fcntl.h>
#include <gtest/gtest.h>
#include <sys/resource.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <thread>
#include <vector>

#include "shapley/common/version.h"
#include "shapley/data/parser.h"
#include "shapley/net/client.h"
#include "shapley/net/codec.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley {
namespace {

using net::HttpServer;
using net::Json;
using net::ServerOptions;
using net::ShapleyClient;

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema, const char* text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

/// Serving stack on an ephemeral port, torn down in reverse order.
struct Stack {
  explicit Stack(ServiceOptions service_options = {.threads = 2},
                 ServerOptions server_options = {})
      : service(service_options), server(&service, server_options) {
    server.Start();
  }
  ShapleyService service;
  HttpServer server;
};

TEST(ServerTest, MixedBatchOverTcpIsBitIdenticalToInProcessCompute) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  QueryPtr negated = ParseQuery(schema, "S(x,y), R(x), !T(y)");
  PartitionedDatabase db = ParsePartitionedDatabase(
      schema, "R(a) R(b) S(a,c) S(b,d) T(c) | T(d) S(a,d)");

  // The mix the acceptance criterion names: exact lifted, exact brute,
  // sampling under every strategy override, plus two structured failures.
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
  {
    SvcRequest r;  // → kMaxValue through the wire, for ranked coverage.
    r.query = hard;
    r.db = db;
    r.mode = SvcMode::kMaxValue;
    requests.push_back(r);
  }

  Stack stack;
  // In-process ground truth from an IDENTICAL, independent service (so
  // counters/caches on the serving one cannot interfere).
  ShapleyService reference(ServiceOptions{.threads = 2});
  std::vector<SvcResponse> expected;
  for (const SvcRequest& request : requests) {
    expected.push_back(reference.Compute(request));
  }

  ShapleyClient client("127.0.0.1", stack.server.port());
  std::vector<SvcResponse> actual = client.ComputeBatch(requests);
  ASSERT_EQ(actual.size(), requests.size());

  for (size_t i = 0; i < requests.size(); ++i) {
    SCOPED_TRACE("request " + std::to_string(i));
    EXPECT_EQ(actual[i].ok(), expected[i].ok());
    // Bit-identical payloads: exact rationals AND sampling estimates
    // (same seed → same tallies → same rationals).
    EXPECT_EQ(actual[i].values, expected[i].values);
    EXPECT_EQ(actual[i].ranked, expected[i].ranked);
    EXPECT_EQ(actual[i].engine, expected[i].engine);
    EXPECT_EQ(actual[i].verdict.query_class, expected[i].verdict.query_class);
    if (expected[i].approx.has_value()) {
      ASSERT_TRUE(actual[i].approx.has_value());
      EXPECT_EQ(actual[i].approx->samples, expected[i].approx->samples);
      EXPECT_EQ(actual[i].approx->fact_half_widths,
                expected[i].approx->fact_half_widths);
      EXPECT_EQ(actual[i].approx->strategy, expected[i].approx->strategy);
    }
    if (expected[i].error.has_value()) {
      ASSERT_TRUE(actual[i].error.has_value());
      EXPECT_EQ(actual[i].error->code, expected[i].error->code);
    }
  }
}

TEST(ServerTest, SingleComputeSurfacesDocumentedStatuses) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  QueryPtr negated = ParseQuery(schema, "S(x,y), R(x), !T(y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b)");

  Stack stack;
  ShapleyClient client("127.0.0.1", stack.server.port());

  SvcRequest ok_request;
  ok_request.query = easy;
  ok_request.db = db;
  SvcResponse ok_response = client.Compute(ok_request);
  EXPECT_TRUE(ok_response.ok());
  EXPECT_EQ(client.last_status(), 200);

  SvcRequest unsupported;
  unsupported.query = negated;
  unsupported.db = db;
  unsupported.engine = "lifted";
  SvcResponse unsupported_response = client.Compute(unsupported);
  ASSERT_TRUE(unsupported_response.error.has_value());
  EXPECT_EQ(unsupported_response.error->code,
            SvcErrorCode::kUnsupportedQuery);
  EXPECT_EQ(client.last_status(), 422);

  SvcRequest invalid;
  invalid.query = easy;
  invalid.db = db;
  invalid.engine = "no-such-engine";
  SvcResponse invalid_response = client.Compute(invalid);
  ASSERT_TRUE(invalid_response.error.has_value());
  EXPECT_EQ(invalid_response.error->code, SvcErrorCode::kInvalidRequest);
  EXPECT_EQ(client.last_status(), 400);

  // Two Computes, one client: the keep-alive connection was reused.
  EXPECT_EQ(stack.server.connections_accepted(), 1u);
  EXPECT_EQ(stack.server.requests_served(), 3u);
}

TEST(ServerTest, StopDrainsInFlightBatchWithoutDroppingResponses) {
  auto schema = Schema::Create();
  // #P-hard instances sized to take real time on the brute engine, so
  // Stop() demonstrably lands while work is in flight.
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  std::string db_text;
  for (int i = 0; i < 17; ++i) {
    db_text += "R(a" + std::to_string(i) + ") ";
    db_text += "S(a" + std::to_string(i) + ",b" + std::to_string(i % 3) +
               ") ";
  }
  db_text += "| T(b0) T(b1)";
  PartitionedDatabase db = ParsePartitionedDatabase(schema, db_text);

  std::vector<SvcRequest> requests(6);
  for (SvcRequest& request : requests) {
    request.query = hard;
    request.db = db;
  }

  Stack stack(ServiceOptions{.threads = 2});
  std::vector<SvcResponse> responses;
  std::thread submitter([&] {
    ShapleyClient client("127.0.0.1", stack.server.port());
    responses = client.ComputeBatch(requests);
  });
  // Let the batch reach the service, then close the door mid-flight.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  stack.server.Stop();
  submitter.join();

  // Every response arrived; whatever the service already accepted
  // completed with values (the service keeps draining its own queue).
  ASSERT_EQ(responses.size(), requests.size());
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    ASSERT_TRUE(responses[i].ok()) << responses[i].error->ToString();
    EXPECT_FALSE(responses[i].values.empty());
  }
}

TEST(ServerTest, StopDoesNotWaitOutIdleKeepAliveConnections) {
  ServerOptions options;
  options.read_timeout_ms = 30'000;  // Far beyond what the test tolerates.
  Stack stack(ServiceOptions{.threads = 1}, options);

  // One served request leaves the connection parked in its keep-alive
  // read; Stop() must cut that wait short (SHUT_RD), not sit out the
  // 30-second read timeout.
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x)");
  request.db = ParsePartitionedDatabase(schema, "R(a)");
  ShapleyClient client("127.0.0.1", stack.server.port());
  ASSERT_TRUE(client.Compute(request).ok());

  const auto start = std::chrono::steady_clock::now();
  stack.server.Stop();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_LT(elapsed, std::chrono::seconds(2));
}

TEST(ServerTest, EnginesAndStatsEndpointsReportTheStack) {
  Stack stack;
  ShapleyClient client("127.0.0.1", stack.server.port());

  Json engines = client.Engines();
  const Json::Array* list = engines.Find("engines")->IfArray();
  ASSERT_NE(list, nullptr);
  bool saw_sampling = false;
  for (const Json& engine : *list) {
    if (*engine.Find("name")->IfString() == "sampling") {
      saw_sampling = true;
      EXPECT_EQ(engine.Find("caps")->Find("approximate")->IfBool(), true);
    }
  }
  EXPECT_TRUE(saw_sampling);

  // Serve one request, then check the counters moved.
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b)");
  ASSERT_TRUE(client.Compute(request).ok());

  Json stats = client.Stats();
  const Json* service = stats.Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_GE(*service->Find("requests_submitted")->IfUint64(), 1u);
  EXPECT_GE(*service->Find("requests_completed")->IfUint64(), 1u);
  const Json* server = stats.Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(*server->Find("requests_served")->IfUint64(), 2u);
}

TEST(ServerTest, HealthzIsAnsweredByTheTransportItself) {
  Stack stack;
  ShapleyClient client("127.0.0.1", stack.server.port());

  int status = 0;
  std::optional<Json> health = Json::Parse(client.RawGet("/healthz", &status));
  EXPECT_EQ(status, 200);
  ASSERT_TRUE(health.has_value());
  EXPECT_EQ(*health->Find("status")->IfString(), "ok");
  EXPECT_EQ(*health->Find("version")->IfString(), kShapleyVersion);
  EXPECT_EQ(*health->Find("role")->IfString(), "backend");

  // The probe cost no service work at all: a load balancer can hammer
  // /healthz without perturbing a single service counter.
  Json stats = client.Stats();
  EXPECT_EQ(*stats.Find("service")->Find("requests_submitted")->IfUint64(),
            0u);

  // /healthz is a GET; anything else gets the documented 405.
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/healthz";
  std::string error;
  net::Socket socket = net::ConnectTcp("127.0.0.1", stack.server.port(),
                                       &error);
  ASSERT_TRUE(socket.valid()) << error;
  ASSERT_TRUE(socket.SendAll(net::SerializeRequest(post)));
  net::SocketReader reader(socket.fd(), 5000);
  net::HttpResponse response;
  bool chunked = false;
  ASSERT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
            net::HttpReadResult::kOk);
  EXPECT_EQ(response.status, 405);
}

// The event loop has one readiness backend: when its epoll instance cannot
// be created, Start() throws, as it does when the address cannot be bound.
TEST(ServerTest, StartThrowsWhenEpollCannotBeCreated) {
  ShapleyService service(ServiceOptions{.threads = 1});
  HttpServer server(&service, ServerOptions{});
  // A full Start/Stop first: the restart below must work, and every path
  // Start takes is then warm (UBSan's vptr check opens a pipe for a type
  // it has not seen yet, which the tight limit below would refuse).
  server.Start();
  server.Stop();
  // Leave exactly one descriptor number under this process's limit: the
  // listener takes it and epoll_create1 fails with EMFILE.
  const int next_fd = ::open("/dev/null", O_RDONLY);
  ASSERT_GE(next_fd, 0);
  ::close(next_fd);
  rlimit saved{};
  ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
  rlimit tight = saved;
  tight.rlim_cur = static_cast<rlim_t>(next_fd) + 1;
  // Restores the limit when the try block unwinds, before the handler.
  struct RestoreLimit {
    rlimit limit;
    ~RestoreLimit() { ::setrlimit(RLIMIT_NOFILE, &limit); }
  };
  std::string message;
  try {
    RestoreLimit restore{saved};
    ASSERT_EQ(::setrlimit(RLIMIT_NOFILE, &tight), 0);
    server.Start();
  } catch (const std::runtime_error& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("epoll_create1"), std::string::npos) << message;
  EXPECT_FALSE(server.running());
}

TEST(ServerTest, TransportEdgesAnswerStructurally) {
  ServerOptions options;
  options.max_body_bytes = 2048;
  Stack stack(ServiceOptions{.threads = 1}, options);
  const std::string host = "127.0.0.1";

  auto raw_exchange = [&](const std::string& wire) {
    std::string error;
    net::Socket socket = net::ConnectTcp(host, stack.server.port(), &error);
    EXPECT_TRUE(socket.valid()) << error;
    EXPECT_TRUE(socket.SendAll(wire));
    net::SocketReader reader(socket.fd(), 5000);
    net::HttpResponse response;
    bool chunked = false;
    EXPECT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
              net::HttpReadResult::kOk);
    return response;
  };

  // Unknown endpoint → 404, wrong method → 405, garbage → 400 — each with
  // the one structured error body every client already knows how to read.
  net::HttpRequest get;
  get.method = "GET";
  get.target = "/v2/zap";
  EXPECT_EQ(raw_exchange(net::SerializeRequest(get)).status, 404);
  net::HttpRequest wrong;
  wrong.method = "GET";
  wrong.target = "/v1/compute";
  EXPECT_EQ(raw_exchange(net::SerializeRequest(wrong)).status, 405);
  EXPECT_EQ(raw_exchange("ZAP!\r\n\r\n").status, 400);

  // Oversized body → 413 before the server even reads it in.
  net::HttpRequest big;
  big.method = "POST";
  big.target = "/v1/compute";
  big.body = std::string(4096, 'x');
  net::HttpResponse too_large = raw_exchange(net::SerializeRequest(big));
  EXPECT_EQ(too_large.status, 413);
  std::optional<Json> body = Json::Parse(too_large.body);
  ASSERT_TRUE(body.has_value());
  // Code and transport status agree, per the documented mapping.
  EXPECT_EQ(*body->Find("error")->Find("code")->IfString(),
            "capacity-exceeded");

  // Bad JSON on a real endpoint → 400 with the structured body.
  net::HttpRequest bad_json;
  bad_json.method = "POST";
  bad_json.target = "/v1/compute";
  bad_json.body = "{this is not json";
  EXPECT_EQ(raw_exchange(net::SerializeRequest(bad_json)).status, 400);
}

}  // namespace
}  // namespace shapley
