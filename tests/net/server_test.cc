// End-to-end tests of the network front over REAL TCP sockets on an
// ephemeral port:
//
//  (a) a mixed batch — exact lifted + guarded brute + sampling with
//      strategy overrides + structured failures — submitted through
//      net/client comes back BIT-IDENTICAL to in-process
//      ShapleyService::Compute(), with SvcError codes surfaced as the
//      documented HTTP statuses;
//  (b) the server drains in-flight requests on Stop(): a batch held on a
//      latch mid-flight is finished and streamed out, never dropped;
//  (c) transport-level behavior: keep-alive connection reuse, unknown
//      endpoints, malformed HTTP, oversized bodies, /v1/engines and
//      /v1/stats, and Start() throwing when the event loop cannot be
//      created;
//  (d) one executor: served engines run only on the service pool, so
//      ServiceOptions::threads bounds their concurrency, waiting for a
//      worker shows in queue_ms, latency and the deadline, and a reader
//      that stops reading is cut at the output cap instead of pinning a
//      worker.

#include "shapley/net/server.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "shapley/common/version.h"
#include "shapley/data/parser.h"
#include "shapley/net/client.h"
#include "shapley/net/codec.h"
#include "shapley/obs/metrics.h"
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
                 ServerOptions server_options = {},
                 EngineRegistry registry = EngineRegistry::Default())
      : service(service_options, std::move(registry)),
        server(&service, server_options) {
    server.Start();
  }
  ShapleyService service;
  HttpServer server;
};

/// What a "probe" engine saw: how many of its AllValues calls ran at once,
/// at most, and how many there were. Each call waits until `released` (or,
/// when `hold_first` is set, the first call sleeps that long and the rest
/// pass straight through).
struct ProbeLog {
  std::mutex mutex;
  std::condition_variable changed;
  int active = 0;
  int peak = 0;
  int calls = 0;
  bool released = false;
  std::chrono::milliseconds hold_first{0};
};

class ProbeEngine : public SvcEngine {
 public:
  explicit ProbeEngine(ProbeLog* log) : log_(log) {}
  std::string name() const override { return "probe"; }
  BigRational Value(const BooleanQuery&, const PartitionedDatabase&,
                    const Fact&) override {
    return BigRational(0);
  }
  std::map<Fact, BigRational> AllValues(const BooleanQuery&,
                                        const PartitionedDatabase&) override {
    std::unique_lock<std::mutex> lock(log_->mutex);
    const bool first = log_->calls++ == 0;
    log_->peak = std::max(log_->peak, ++log_->active);
    log_->changed.notify_all();
    if (log_->hold_first.count() > 0) {
      if (first) {
        lock.unlock();
        std::this_thread::sleep_for(log_->hold_first);
        lock.lock();
      }
    } else {
      log_->changed.wait(lock, [this] { return log_->released; });
    }
    --log_->active;
    return {};
  }

 private:
  ProbeLog* log_;
};

EngineRegistry RegistryWithProbe(ProbeLog* log) {
  EngineRegistry registry = EngineRegistry::Default();
  registry.Register({"probe", "records its own concurrency",
                     EngineCaps{.all_query_classes = true},
                     [log] { return std::make_shared<ProbeEngine>(log); }});
  return registry;
}

/// The counter's value in the server's own /metrics rendering.
uint64_t SlowReaderDisconnects(HttpServer& server) {
  const std::string text = server.metrics()->RenderPrometheus();
  const std::string key =
      "shapley_server_eventloop_slow_reader_disconnects_total"
      "{role=\"backend\"} ";
  const size_t at = text.find(key);
  return at == std::string::npos ? 0
                                 : std::stoull(text.substr(at + key.size()));
}

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
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b)");
  request.engine = "probe";
  ProbeLog log;
  Stack stack(ServiceOptions{.threads = 2}, ServerOptions{},
              RegistryWithProbe(&log));
  std::vector<SvcResponse> responses;
  std::thread submitter([&] {
    ShapleyClient client("127.0.0.1", stack.server.port());
    responses = client.ComputeBatch(std::vector<SvcRequest>(6, request));
  });
  // Both workers hold an item on the probe's latch: the batch is in flight.
  {
    std::unique_lock<std::mutex> lock(log.mutex);
    ASSERT_TRUE(log.changed.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return log.active == 2; }));
  }
  bool released_when_stopped = false;
  std::thread stopper([&] {
    stack.server.Stop();
    std::lock_guard<std::mutex> lock(log.mutex);
    released_when_stopped = log.released;
  });
  // Stop() has closed the door; give a Stop() that did not wait time to
  // return before the latch opens.
  while (stack.server.running()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  {
    std::lock_guard<std::mutex> lock(log.mutex);
    log.released = true;
  }
  log.changed.notify_all();
  stopper.join();
  submitter.join();

  // Stop() waited for the batch, and every response arrived.
  EXPECT_TRUE(released_when_stopped);
  ASSERT_EQ(responses.size(), 6u);
  for (size_t i = 0; i < responses.size(); ++i) {
    SCOPED_TRACE("response " + std::to_string(i));
    EXPECT_TRUE(responses[i].ok()) << responses[i].error->ToString();
  }
  EXPECT_EQ(log.calls, 6);
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

// The event loop has one readiness backend: when its epoll instance or its
// wake-up pipe cannot be created, Start() throws, as it does when the
// address cannot be bound — never a "running" server refusing every
// connection.
TEST(ServerTest, StartThrowsWhenEpollCannotBeCreated) {
  ShapleyService service(ServiceOptions{.threads = 1});
  HttpServer server(&service, ServerOptions{});
  // A full Start/Stop first: the restarts below must work, and every path
  // Start takes is then warm (UBSan's vptr check opens a pipe for a type
  // it has not seen yet, which the tight limits below would refuse).
  server.Start();
  server.Stop();
  // Descriptors left under this process's limit → the call that fails:
  // with one, the listener takes it and epoll_create1 fails with EMFILE;
  // with two, the listener and the epoll instance fit and the pipe's two
  // ends do not.
  const std::pair<int, const char*> cases[] = {{1, "epoll_create1"},
                                               {2, "pipe"}};
  for (const auto& [room, failing_call] : cases) {
    SCOPED_TRACE(failing_call);
    const int next_fd = ::open("/dev/null", O_RDONLY);
    ASSERT_GE(next_fd, 0);
    ::close(next_fd);
    rlimit saved{};
    ASSERT_EQ(::getrlimit(RLIMIT_NOFILE, &saved), 0);
    rlimit tight = saved;
    tight.rlim_cur = static_cast<rlim_t>(next_fd + room);
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
    EXPECT_NE(message.find(failing_call), std::string::npos) << message;
    EXPECT_FALSE(server.running());
    server.Stop();  // Cleans up should a Start() have succeeded.
  }
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

// Three single computes and a 4-item batch in flight at once: whatever the
// handler path, no more engines run at a time than the service has
// threads.
TEST(ServerTest, ServedEnginesNeverOutnumberServiceThreads) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b)");
  request.engine = "probe";
  for (size_t threads : {1, 2}) {
    SCOPED_TRACE("threads " + std::to_string(threads));
    ProbeLog log;
    Stack stack(ServiceOptions{.threads = threads}, ServerOptions{},
                RegistryWithProbe(&log));
    std::vector<std::thread> clients;
    std::array<bool, 4> ok{};  // One byte per client: written concurrently.
    for (size_t c = 0; c < 3; ++c) {
      clients.emplace_back([&, c] {
        ShapleyClient client("127.0.0.1", stack.server.port());
        ok[c] = client.Compute(request).ok();
      });
    }
    clients.emplace_back([&] {
      ShapleyClient client("127.0.0.1", stack.server.port());
      const std::vector<SvcResponse> responses =
          client.ComputeBatch(std::vector<SvcRequest>(4, request));
      ok[3] = responses.size() == 4 &&
              std::all_of(responses.begin(), responses.end(),
                          [](const SvcResponse& r) { return r.ok(); });
    });
    // Every request has reached the server and the pool is full; a little
    // longer shows any engine running beyond the bound.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (stack.server.requests_served() < 4 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    {
      std::unique_lock<std::mutex> lock(log.mutex);
      log.changed.wait_until(lock, deadline, [&] {
        return log.active >= static_cast<int>(threads);
      });
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    {
      std::lock_guard<std::mutex> lock(log.mutex);
      log.released = true;
    }
    log.changed.notify_all();
    for (std::thread& client : clients) client.join();

    EXPECT_EQ(stack.server.requests_served(), 4u);
    EXPECT_EQ(ok, (std::array<bool, 4>{true, true, true, true}));
    EXPECT_EQ(log.calls, 7);
    EXPECT_GE(log.peak, 1);
    EXPECT_LE(log.peak, static_cast<int>(threads));
  }
}

// With the only pool worker held for 200 ms, the wait is the requests'
// own: queue_ms and latency count it, and a request whose timeout_ms
// budget runs out while waiting fails without running.
TEST(ServerTest, WaitingForAPoolWorkerCountsAsQueueingAndAgainstTheDeadline) {
  ProbeLog log;
  log.hold_first = std::chrono::milliseconds(200);
  Stack stack(ServiceOptions{.threads = 1}, ServerOptions{},
              RegistryWithProbe(&log));
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b)");
  request.engine = "probe";

  std::thread holder([&] {  // Request A: holds the worker.
    ShapleyClient client("127.0.0.1", stack.server.port());
    EXPECT_TRUE(client.Compute(request).ok());
  });
  {
    std::unique_lock<std::mutex> lock(log.mutex);
    ASSERT_TRUE(log.changed.wait_for(lock, std::chrono::seconds(10),
                                     [&] { return log.calls == 1; }));
  }
  SvcResponse late;
  std::thread timed([&] {  // Request C: a 50 ms budget.
    SvcRequest budgeted = request;
    budgeted.WithTimeout(std::chrono::milliseconds(50));
    ShapleyClient client("127.0.0.1", stack.server.port());
    late = client.Compute(budgeted);
    EXPECT_EQ(client.last_status(), 504);
  });
  SvcRequest queued = request;  // Request B: top-k, to find its digest.
  queued.mode = SvcMode::kTopK;
  ShapleyClient client("127.0.0.1", stack.server.port());
  const SvcResponse response = client.Compute(queued);
  holder.join();
  timed.join();

  ASSERT_TRUE(response.ok()) << response.error->ToString();
  EXPECT_GE(response.stats.queue_ms, 150.0);
  ASSERT_TRUE(late.error.has_value());
  EXPECT_EQ(late.error->code, SvcErrorCode::kDeadlineExceeded);
  EXPECT_EQ(log.calls, 2);  // A and B; C never reached the engine.

  bool found = false;
  for (const auto& entry : stack.server.debug_deck()->flight.Snapshot()) {
    if (entry.digest.mode != "top-k") continue;
    found = true;
    EXPECT_GE(entry.digest.latency_us, 150'000u);
  }
  EXPECT_TRUE(found);
}

// A client that closes, half-closes or resets its connection while its
// request computes leaves the loop nothing to do until the completion: the
// loop must not spin on the hangup in the meantime.
TEST(ServerTest, HangupWhileRequestComputesLeavesTheLoopIdle) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x)");
  request.db = ParsePartitionedDatabase(schema, "R(a)");
  request.engine = "probe";
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/v1/compute";
  post.body = net::EncodeRequest(request).Dump();
  for (const char* hangup : {"close", "half-close", "reset"}) {
    SCOPED_TRACE(hangup);
    ProbeLog log;
    Stack stack(ServiceOptions{.threads = 1}, ServerOptions{},
                RegistryWithProbe(&log));
    std::string error;
    net::Socket socket =
        net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
    ASSERT_TRUE(socket.valid()) << error;
    ASSERT_TRUE(socket.SendAll(net::SerializeRequest(post)));
    {
      std::unique_lock<std::mutex> lock(log.mutex);
      ASSERT_TRUE(log.changed.wait_for(lock, std::chrono::seconds(10),
                                       [&] { return log.calls == 1; }));
    }
    if (std::string(hangup) == "half-close") {
      ::shutdown(socket.fd(), SHUT_WR);
    } else {
      if (std::string(hangup) == "reset") {  // Close with an RST.
        const linger abort_on_close{1, 0};
        ::setsockopt(socket.fd(), SOL_SOCKET, SO_LINGER, &abort_on_close,
                     sizeof(abort_on_close));
      }
      socket.Close();
    }
    // Everything in this process is waiting: the probe on its latch, this
    // thread in sleep_for. Whatever CPU it burns is the loop's.
    rusage before{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &before), 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    rusage after{};
    ASSERT_EQ(::getrusage(RUSAGE_SELF, &after), 0);
    {
      std::lock_guard<std::mutex> lock(log.mutex);
      log.released = true;
    }
    log.changed.notify_all();
    auto cpu_ms = [](const rusage& r) {
      return (r.ru_utime.tv_sec + r.ru_stime.tv_sec) * 1e3 +
             (r.ru_utime.tv_usec + r.ru_stime.tv_usec) / 1e3;
    };
    EXPECT_LT(cpu_ms(after) - cpu_ms(before), 100.0);
  }
}

// A client that posts a batch whose answer is megabytes and never reads:
// the output queue reaches its cap and the connection is cut at once,
// long before the write-stall timeout, while the only pool worker keeps
// serving everyone else.
TEST(ServerTest, ReaderThatStopsReadingIsCutAtTheOutputCap) {
  // One fact with a long name: every answer line is ~20 KB yet cheap to
  // compute, so the stream outgrows the buffers within seconds even in a
  // sanitizer build.
  auto schema = Schema::Create();
  SvcRequest item;
  item.query = ParseQuery(schema, "R(x)");
  item.db = ParsePartitionedDatabase(
      schema, "R(a" + std::string(20'000, 'x') + ")");
  const size_t line_bytes =
      net::EncodeResponse(ShapleyService(ServiceOptions{.threads = 1})
                              .Compute(item),
                          *schema)
          .Dump()
          .size();
  // The stream is half again what the kernel and the server can buffer:
  // the server's send buffer autotunes up to tcp_wmem's maximum, the
  // client's receive buffer is pinned small below, and the output queue
  // holds the cap.
  constexpr int kReceiveBuffer = 16 * 1024;
  ServerOptions options;
  options.write_stall_timeout_ms = 60'000;
  options.max_output_queue_bytes = 64 * 1024;
  size_t send_buffer_max = size_t{4} << 20;
  if (std::ifstream wmem("/proc/sys/net/ipv4/tcp_wmem"); wmem) {
    size_t min = 0, initial = 0;
    wmem >> min >> initial >> send_buffer_max;
  }
  const size_t buffered = send_buffer_max + 2 * kReceiveBuffer +
                          options.max_output_queue_bytes;
  const size_t items = 3 * buffered / (2 * line_bytes) + 1;

  std::string body = "{\"requests\":[";
  const std::string item_text = net::EncodeRequest(item).Dump();
  for (size_t i = 0; i < items; ++i) {
    if (i > 0) body += ',';
    body += item_text;
  }
  body += "]}";
  net::HttpRequest post;
  post.method = "POST";
  post.target = "/v1/batch";
  post.body = std::move(body);
  options.max_body_bytes = post.body.size();
  Stack stack(ServiceOptions{.threads = 1}, options);

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  net::Socket reader(fd);
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &kReceiveBuffer,
                         sizeof(kReceiveBuffer)),
            0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(stack.server.port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const uint64_t cuts_before = SlowReaderDisconnects(stack.server);
  const auto sent = std::chrono::steady_clock::now();
  ASSERT_TRUE(reader.SendAll(net::SerializeRequest(post)));

  SvcResponse other;
  std::thread other_client([&] {
    SvcRequest small;
    small.query = ParseQuery(schema, "R(x), S(x,y)");
    small.db = ParsePartitionedDatabase(schema, "R(a) S(a,b)");
    ShapleyClient client("127.0.0.1", stack.server.port());
    other = client.Compute(small);
  });
  while (SlowReaderDisconnects(stack.server) == cuts_before &&
         std::chrono::steady_clock::now() - sent < std::chrono::seconds(10)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(SlowReaderDisconnects(stack.server), cuts_before + 1);
  other_client.join();
  EXPECT_TRUE(other.ok());

  // The cut is real: reading now drains what the kernel buffered, then
  // the stream ends, short of the full answer.
  const timeval patience{10, 0};
  ASSERT_EQ(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &patience,
                         sizeof(patience)),
            0);
  char buffer[64 * 1024];
  size_t received = 0;
  ssize_t n;
  while ((n = ::recv(fd, buffer, sizeof(buffer), 0)) > 0) {
    received += static_cast<size_t>(n);
  }
  EXPECT_TRUE(n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK))
      << "the connection is still open";
  EXPECT_LT(received, line_bytes * items);
}

}  // namespace
}  // namespace shapley
