// Malformed-wire tests for the hardened HTTP parsing layer, at three
// depths:
//
//  (a) HttpRequestParser unit tests — the incremental parser the event
//      loop feeds byte ranges as they arrive: strict request-line
//      tokenization (exactly three fields), full-consumption size parses
//      (Content-Length: 12abc is NOT 12), duplicate Content-Length
//      rejection (request-smuggling class), Transfer-Encoding rejection,
//      split/byte-at-a-time feeding, pipelined leftovers;
//  (b) the blocking client-side reader path (SocketReader +
//      ReadHttpResponse / ReadChunk) over a socketpair — it shares the
//      parser's strict helpers, including chunk extensions and garbage
//      chunk-size lines;
//  (c) wire-level: raw bytes against a REAL event-loop server must come
//      back 400, and two keep-alive requests in ONE TCP segment must both
//      be served off one connection (pipelining through the loop).

#include "shapley/net/http.h"

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "shapley/net/server.h"
#include "shapley/service/shapley_service.h"

namespace shapley {
namespace {

using net::HttpParseStatus;
using net::HttpRequestParser;

// ---------------------------------------------------------------------------
// (a) Incremental parser.
// ---------------------------------------------------------------------------

HttpParseStatus FeedAll(HttpRequestParser* parser, const std::string& wire,
                        size_t* eaten = nullptr) {
  size_t consumed = 0;
  const HttpParseStatus status = parser->Consume(wire, &consumed);
  if (eaten != nullptr) *eaten = consumed;
  return status;
}

TEST(HttpParseTest, ParsesAWellFormedRequest) {
  HttpRequestParser parser(1 << 20);
  const std::string wire =
      "POST /v1/compute HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\n"
      "hello";
  size_t eaten = 0;
  ASSERT_EQ(FeedAll(&parser, wire, &eaten), HttpParseStatus::kDone);
  EXPECT_EQ(eaten, wire.size());
  net::HttpRequest request = parser.Take();
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.target, "/v1/compute");
  EXPECT_EQ(request.version, "HTTP/1.1");
  EXPECT_EQ(request.body, "hello");
}

TEST(HttpParseTest, RequestLineMustHaveExactlyThreeFields) {
  // A space inside the target must NOT silently parse as target "/a b" —
  // strict tokenization rejects anything that is not exactly three fields.
  for (const char* line : {
           "GET /a b HTTP/1.1",    // four fields
           "GET /a",               // two fields
           "GET  /a HTTP/1.1",     // empty field (double space)
           "GET /a ",              // empty version
           " /a HTTP/1.1",         // empty method
           "GET /a HTTP/9.9",      // not an HTTP/1.x version
           "GET /a HTTP/1.1 ",     // trailing space → empty fourth field
       }) {
    HttpRequestParser parser(1 << 20);
    const std::string wire = std::string(line) + "\r\nHost: x\r\n\r\n";
    EXPECT_EQ(FeedAll(&parser, wire), HttpParseStatus::kMalformed)
        << "line: [" << line << "]";
  }
}

TEST(HttpParseTest, ContentLengthMustConsumeItsFullToken) {
  // (leading spaces are stripped by header parsing, so " 12" is legal;
  // trailing ones are not — "12 " must fail full consumption)
  for (const char* value : {"12abc", "0x10", "12 ", "", "-5", "+5"}) {
    HttpRequestParser parser(1 << 20);
    const std::string wire = "POST /x HTTP/1.1\r\nContent-Length: " +
                             std::string(value) + "\r\n\r\n";
    EXPECT_EQ(FeedAll(&parser, wire), HttpParseStatus::kMalformed)
        << "Content-Length: [" << value << "]";
  }
}

TEST(HttpParseTest, DuplicateContentLengthIsRejected) {
  // Two Content-Length headers — conflicting or even AGREEING — are the
  // request-smuggling vector: upstream and downstream picking different
  // ones desynchronizes the stream. Reject outright.
  for (const char* second : {"6", "5"}) {
    HttpRequestParser parser(1 << 20);
    const std::string wire =
        "POST /x HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: " +
        std::string(second) + "\r\n\r\nhello";
    EXPECT_EQ(FeedAll(&parser, wire), HttpParseStatus::kMalformed)
        << "second value: " << second;
  }
}

TEST(HttpParseTest, TransferEncodingRequestsAreRejected) {
  HttpRequestParser parser(1 << 20);
  const std::string wire =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n";
  EXPECT_EQ(FeedAll(&parser, wire), HttpParseStatus::kMalformed);
}

TEST(HttpParseTest, OversizedDeclaredBodyIsTooLarge) {
  HttpRequestParser parser(/*max_body=*/16);
  const std::string wire = "POST /x HTTP/1.1\r\nContent-Length: 17\r\n\r\n";
  EXPECT_EQ(FeedAll(&parser, wire), HttpParseStatus::kTooLarge);
}

TEST(HttpParseTest, ByteAtATimeFeedingReachesTheSameParse) {
  HttpRequestParser parser(1 << 20);
  const std::string wire =
      "GET /v1/engines HTTP/1.1\r\nHost: a\r\nAccept: */*\r\n\r\n";
  HttpParseStatus status = HttpParseStatus::kNeedMore;
  for (size_t i = 0; i < wire.size(); ++i) {
    size_t consumed = 0;
    status = parser.Consume(std::string_view(&wire[i], 1), &consumed);
    if (i + 1 < wire.size()) {
      ASSERT_EQ(status, HttpParseStatus::kNeedMore) << "at byte " << i;
    }
    EXPECT_EQ(consumed, 1u);
  }
  ASSERT_EQ(status, HttpParseStatus::kDone);
  net::HttpRequest request = parser.Take();
  EXPECT_EQ(request.target, "/v1/engines");
  ASSERT_EQ(request.headers.size(), 2u);
  EXPECT_EQ(request.headers[1].second, "*/*");
}

TEST(HttpParseTest, PipelinedFollowerStaysUnconsumed) {
  HttpRequestParser parser(1 << 20);
  const std::string first =
      "POST /x HTTP/1.1\r\nContent-Length: 3\r\n\r\nabc";
  const std::string second = "GET /y HTTP/1.1\r\n\r\n";
  size_t eaten = 0;
  ASSERT_EQ(FeedAll(&parser, first + second, &eaten),
            HttpParseStatus::kDone);
  // The parser stops at its message boundary: the follower is the
  // caller's to re-feed after Reset().
  ASSERT_EQ(eaten, first.size());
  EXPECT_EQ(parser.Take().body, "abc");
  parser.Reset();
  ASSERT_EQ(FeedAll(&parser, second, &eaten), HttpParseStatus::kDone);
  EXPECT_EQ(parser.Take().target, "/y");
}

// ---------------------------------------------------------------------------
// (b) Blocking-reader path over a socketpair.
// ---------------------------------------------------------------------------

/// Feeds `wire` to a SocketReader through a socketpair (writer end closed,
/// so reads past the payload see clean EOF).
struct WirePipe {
  explicit WirePipe(const std::string& wire) {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    read_end = net::Socket(fds[0]);
    net::Socket write_end(fds[1]);
    EXPECT_TRUE(write_end.SendAll(wire));
  }
  net::Socket read_end;
};

TEST(HttpParseTest, ResponsePathRejectsGarbageAndDuplicateContentLength) {
  {
    WirePipe pipe("HTTP/1.1 200 OK\r\nContent-Length: 12abc\r\n\r\n");
    net::SocketReader reader(pipe.read_end.fd(), 1000);
    net::HttpResponse response;
    bool chunked = false;
    EXPECT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
              net::HttpReadResult::kMalformed);
  }
  {
    WirePipe pipe(
        "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Length: 3\r\n\r\n"
        "ok");
    net::SocketReader reader(pipe.read_end.fd(), 1000);
    net::HttpResponse response;
    bool chunked = false;
    EXPECT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
              net::HttpReadResult::kMalformed);
  }
}

TEST(HttpParseTest, ChunkSizeLinesAreParsedStrictly) {
  {
    // A chunk EXTENSION (";name=value") is legal and ignored.
    WirePipe pipe("5;ext=1\r\nhello\r\n0\r\n\r\n");
    net::SocketReader reader(pipe.read_end.fd(), 1000);
    std::string chunk;
    bool done = false;
    ASSERT_TRUE(net::ReadChunk(&reader, 1 << 20, &chunk, &done));
    EXPECT_FALSE(done);
    EXPECT_EQ(chunk, "hello");
    ASSERT_TRUE(net::ReadChunk(&reader, 1 << 20, &chunk, &done));
    EXPECT_TRUE(done);
  }
  // ffzz used to parse as 0xff with the zz silently dropped; zz, an empty
  // size and a bare extension must all fail too.
  for (const char* line : {"ffzz", "zz", "", ";ext"}) {
    WirePipe pipe(std::string(line) + "\r\nhello\r\n");
    net::SocketReader reader(pipe.read_end.fd(), 1000);
    std::string chunk;
    bool done = false;
    EXPECT_FALSE(net::ReadChunk(&reader, 1 << 20, &chunk, &done))
        << "chunk-size line: [" << line << "]";
  }
}

// ---------------------------------------------------------------------------
// (c) Wire level, against the real event-loop server.
// ---------------------------------------------------------------------------

struct Stack {
  explicit Stack(net::ServerOptions server_options = {})
      : service(ServiceOptions{.threads = 1}),
        server(&service, server_options) {
    server.Start();
  }
  ShapleyService service;
  net::HttpServer server;
};

net::HttpResponse RawExchange(const Stack& stack, const std::string& wire) {
  std::string error;
  net::Socket socket =
      net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
  EXPECT_TRUE(socket.valid()) << error;
  EXPECT_TRUE(socket.SendAll(wire));
  net::SocketReader reader(socket.fd(), 5000);
  net::HttpResponse response;
  bool chunked = false;
  EXPECT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
            net::HttpReadResult::kOk);
  return response;
}

TEST(HttpParseTest, ServerAnswers400ToAllThreeBugClasses) {
  Stack stack;
  // Space in the target.
  EXPECT_EQ(RawExchange(stack, "GET /a b HTTP/1.1\r\nHost: x\r\n\r\n").status,
            400);
  // Content-Length with trailing garbage.
  EXPECT_EQ(
      RawExchange(stack,
                  "POST /v1/compute HTTP/1.1\r\nContent-Length: 12abc\r\n\r\n")
          .status,
      400);
  // Duplicate (conflicting) Content-Length.
  EXPECT_EQ(RawExchange(stack,
                        "POST /v1/compute HTTP/1.1\r\nContent-Length: 5\r\n"
                        "Content-Length: 6\r\n\r\nhello")
                .status,
            400);
}

TEST(HttpParseTest, KeepAlivePipeliningServesBothRequestsFromOneSegment) {
  Stack stack;
  std::string error;
  net::Socket socket =
      net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
  ASSERT_TRUE(socket.valid()) << error;
  // TWO requests in ONE TCP segment: the first is answered inline by the
  // loop (/healthz), the second is dispatched to the pool (/v1/engines) —
  // the loop must serve the buffered follower without another read event.
  const std::string segment =
      "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"
      "GET /v1/engines HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n";
  ASSERT_TRUE(socket.SendAll(segment));
  net::SocketReader reader(socket.fd(), 5000);
  net::HttpResponse first, second;
  bool chunked = false;
  ASSERT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &first, &chunked),
            net::HttpReadResult::kOk);
  EXPECT_EQ(first.status, 200);
  EXPECT_NE(first.body.find("\"ok\""), std::string::npos);
  ASSERT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &second, &chunked),
            net::HttpReadResult::kOk);
  EXPECT_EQ(second.status, 200);
  EXPECT_NE(second.body.find("engines"), std::string::npos);
  // One connection, two requests — pipelining, not reconnection.
  EXPECT_EQ(stack.server.connections_accepted(), 1u);
  EXPECT_EQ(stack.server.requests_served(), 2u);
}

TEST(HttpParseTest, ManyConcurrentKeepAliveConnectionsOnOneLoopThread) {
  // 128 keep-alive connections held open SIMULTANEOUSLY by one
  // single-threaded client, each served two request rounds — the
  // thread-per-connection front needed 128 OS threads for this; the loop
  // needs one (scripts/check.sh pushes the same shape to 512+ against the
  // CLI binary).
  constexpr size_t kConns = 128;
  Stack stack;
  std::vector<net::Socket> sockets;
  sockets.reserve(kConns);
  for (size_t i = 0; i < kConns; ++i) {
    std::string error;
    net::Socket socket =
        net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
    ASSERT_TRUE(socket.valid()) << "conn " << i << ": " << error;
    sockets.push_back(std::move(socket));
  }
  const std::string probe = "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n";
  for (int round = 0; round < 2; ++round) {
    for (net::Socket& socket : sockets) {
      ASSERT_TRUE(socket.SendAll(probe));
    }
    for (net::Socket& socket : sockets) {
      net::SocketReader reader(socket.fd(), 5000);
      net::HttpResponse response;
      bool chunked = false;
      ASSERT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
                net::HttpReadResult::kOk);
      EXPECT_EQ(response.status, 200);
    }
  }
  EXPECT_EQ(stack.server.connections_accepted(), kConns);
  EXPECT_EQ(stack.server.requests_served(), 2 * kConns);
}

TEST(HttpParseTest, PartialRequestTimesOutWith408BeforeClose) {
  // A connection that STARTED a request but never finished it gets told
  // why it is being hung up on: a prebuilt 408 with the structured
  // request-timeout error, then close. (Silent close is for idle
  // keep-alive conns with NO partial request — next test.)
  net::ServerOptions options;
  options.read_timeout_ms = 100;
  Stack stack(options);
  std::string error;
  net::Socket socket =
      net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
  ASSERT_TRUE(socket.valid()) << error;
  // Headers complete, body short 3 bytes — mid-message forever.
  ASSERT_TRUE(socket.SendAll(
      "POST /v1/compute HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"));
  net::SocketReader reader(socket.fd(), 5000);
  net::HttpResponse response;
  bool chunked = false;
  ASSERT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &response, &chunked),
            net::HttpReadResult::kOk);
  EXPECT_EQ(response.status, 408);
  EXPECT_NE(response.body.find("request-timeout"), std::string::npos);
  EXPECT_NE(response.body.find("read timeout"), std::string::npos);
  // After the 408 the server closes: clean EOF, no second response.
  net::HttpResponse after;
  EXPECT_EQ(net::ReadHttpResponse(&reader, 1 << 20, &after, &chunked),
            net::HttpReadResult::kClosed);
  // The timeout is counted in the event-loop metric family.
  const net::HttpResponse metrics = RawExchange(
      stack, "GET /metrics HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n");
  EXPECT_EQ(metrics.status, 200);
  EXPECT_NE(metrics.body.find("shapley_server_eventloop_read_timeouts_total{"
                              "role=\"backend\"} 1"),
            std::string::npos);
}

TEST(HttpParseTest, IdleConnectionsWithNoPartialRequestCloseSilently) {
  net::ServerOptions options;
  options.read_timeout_ms = 100;
  Stack stack(options);
  std::string error;

  // A fresh connection that never sends a byte: silent close, no 408.
  net::Socket fresh =
      net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
  ASSERT_TRUE(fresh.valid()) << error;

  // A keep-alive connection idle BETWEEN requests: the answered request
  // comes back 200, the idle period ends in a silent close — a 408 here
  // would be nonsense (no request is pending).
  net::Socket kept =
      net::ConnectTcp("127.0.0.1", stack.server.port(), &error);
  ASSERT_TRUE(kept.valid()) << error;
  ASSERT_TRUE(kept.SendAll("GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"));
  net::SocketReader kept_reader(kept.fd(), 5000);
  net::HttpResponse served;
  bool chunked = false;
  ASSERT_EQ(net::ReadHttpResponse(&kept_reader, 1 << 20, &served, &chunked),
            net::HttpReadResult::kOk);
  EXPECT_EQ(served.status, 200);

  net::HttpResponse nothing;
  net::SocketReader fresh_reader(fresh.fd(), 5000);
  EXPECT_EQ(net::ReadHttpResponse(&fresh_reader, 1 << 20, &nothing, &chunked),
            net::HttpReadResult::kClosed);
  EXPECT_EQ(net::ReadHttpResponse(&kept_reader, 1 << 20, &nothing, &chunked),
            net::HttpReadResult::kClosed);
}

}  // namespace
}  // namespace shapley
