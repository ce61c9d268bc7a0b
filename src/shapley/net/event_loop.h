#ifndef SHAPLEY_NET_EVENT_LOOP_H_
#define SHAPLEY_NET_EVENT_LOOP_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "shapley/net/http.h"

namespace shapley::net {

/// The readiness core of the network front: ONE loop thread multiplexing
/// the listener and every connection fd through epoll, instead of one OS
/// thread per socket. Each connection runs a small state machine:
///
///   read-accumulate → parse (HttpRequestParser) → dispatch → write-drain
///
/// Reads are non-blocking and incremental; a fully-parsed request is handed
/// to the server's callback ON THE LOOP THREAD, which either answers it
/// inline (transport endpoints: /healthz, /metrics, 400/413/503) or
/// dispatches it and later reports completion from whichever thread
/// finished it. While a request is being served the connection's read side
/// is not watched — pipelined keep-alive bytes wait in the input buffer and
/// are parsed the moment the response finishes (no unbounded buffering of
/// an aggressive pipeliner).
///
/// Write-side backpressure: every connection owns a BOUNDED output queue,
/// and there is one write path for the loop and for completions alike. A
/// write goes to the socket while the peer keeps up, queues the rest for
/// the loop to flush on writability, and never blocks: a write that would
/// take the queue past its cap cuts the connection as a slow reader, and so
/// does a queue that makes no progress for write_stall_timeout_ms.
struct EventLoopOptions {
  size_t max_connections = 1024;
  int read_timeout_ms = 10'000;         ///< Idle/mid-message read cutoff.
  int write_stall_timeout_ms = 10'000;  ///< No write progress → disconnect.
  /// Per-connection output-queue cap: a write past it cuts the connection.
  size_t max_output_queue_bytes = 4 * 1024 * 1024;
  size_t max_body_bytes = 8 * 1024 * 1024;
  /// Prebuilt full wire responses (head + body) the loop answers itself;
  /// all four imply Connection: close.
  std::string response_400;  ///< Malformed HTTP.
  std::string response_413;  ///< Declared body beyond max_body_bytes.
  std::string response_503;  ///< Accepted beyond max_connections.
  /// Read timeout with a PARTIAL request buffered: the peer started
  /// sending and stalled, so it gets told (408) before the close. An idle
  /// keep-alive connection BETWEEN requests still closes silently — there
  /// is nothing to answer. Empty → every read timeout closes silently.
  std::string response_408;
};

/// Monotone counters + live gauges of the loop, mirrored into the
/// shapley_server_eventloop_* metric families by the server.
struct EventLoopStats {
  uint64_t wakeups = 0;       ///< epoll_wait returns.
  uint64_t events = 0;        ///< Readiness events handled.
  uint64_t accepted = 0;
  uint64_t rejected = 0;      ///< 503 at the connection cap.
  uint64_t requests = 0;      ///< Full requests parsed (incl. pipelined).
  uint64_t pipelined = 0;     ///< Follow-up requests parsed from buffered
                              ///< bytes with no intervening read event.
  uint64_t dispatches = 0;    ///< Requests handed to the handler.
  uint64_t deferred_writes = 0;  ///< Writes that hit EAGAIN and queued.
  uint64_t slow_reader_disconnects = 0;
  uint64_t read_timeouts = 0;
  size_t connections_live = 0;
  size_t dispatch_inflight = 0;      ///< Dispatched, not yet completed.
  size_t output_queue_bytes = 0;     ///< Queued across all connections.
};

class EventLoop;

namespace internal {

/// Write-side state of one connection, shared between the loop thread and
/// whatever thread completes the connection's current request. The loop
/// owns the fd; completions only ever touch it under `mutex` and only while
/// `closed` is false.
struct ConnShared {
  std::mutex mutex;
  EventLoop* loop = nullptr;
  uint64_t id = 0;
  int fd = -1;
  bool closed = false;
  std::string pending;   ///< Queued output; loop flushes on writability.
  size_t pending_off = 0;
  size_t cap = 0;
  std::chrono::steady_clock::time_point last_write_progress;
};

/// The epoll instance of one loop (defined in event_loop.cc).
class Poller;

}  // namespace internal

/// ResponseWriter a dispatched request writes its response through, from
/// any thread: bytes go to the peer directly while the socket keeps up, and
/// into the connection's bounded output queue (flushed by the loop on
/// EPOLLOUT) when it does not. Never blocks; returns false once the
/// connection is gone, including when this write cut it as a slow reader.
/// Holds the connection's shared write state, so it stays safe to call even
/// after the loop dropped the connection (it just fails).
class ConnWriter : public ResponseWriter {
 public:
  explicit ConnWriter(std::shared_ptr<internal::ConnShared> shared)
      : shared_(std::move(shared)) {}

  bool SendAll(std::string_view data) override;

 private:
  std::shared_ptr<internal::ConnShared> shared_;
};

class EventLoop {
 public:
  /// What the request callback decided (it runs on the loop thread):
  enum class Disposition {
    kInlineKeep,   ///< Response queued via Respond(); keep the connection.
    kInlineClose,  ///< Response queued; close once the bytes drained.
    kDispatched,   ///< Taken by a worker; CompleteDispatch() will follow.
  };

  /// Called on the LOOP THREAD for every fully-parsed request. `writer` is
  /// valid only for kDispatched (pass it to whatever completes the request;
  /// it owns shared state, not the loop's connection entry).
  using RequestFn = std::function<Disposition(
      uint64_t conn_id, HttpRequest&& request,
      std::shared_ptr<ConnWriter> writer)>;

  EventLoop(EventLoopOptions options, RequestFn on_request);
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Takes the bound listener and spawns the loop thread. Throws
  /// std::runtime_error when epoll_create1 or the wake-up pipe() fails (the
  /// listener is closed).
  void Start(Socket listener);

  /// Graceful drain: stop accepting, cut idle connections immediately,
  /// finish every dispatched request, flush its response, then join.
  /// Idempotent.
  void Stop();

  /// Crash simulation: shutdown(SHUT_RDWR) every connection so in-flight
  /// writes fail mid-stream, then join once the dispatched requests report
  /// completion. Idempotent against Stop().
  void Abort();

  /// Writes an inline response for `conn_id` (LOOP THREAD ONLY — the
  /// request callback's path for transport-answered endpoints), through
  /// the same non-blocking write path as ConnWriter.
  void Respond(uint64_t conn_id, std::string_view data);

  /// Reports a dispatched request finished (any thread). keep_open=false
  /// drains the remaining output and closes.
  void CompleteDispatch(uint64_t conn_id, bool keep_open);

  EventLoopStats stats() const;

 private:
  enum class WriteResult { kSent, kQueued, kClosed };

  /// The one write path (any thread): sends while the socket accepts,
  /// queues the rest up to the cap, and past the cap cuts the connection
  /// as a slow reader. kClosed: the connection is gone, maybe cut by this.
  WriteResult Write(internal::ConnShared& shared, std::string_view data);
  /// Marks the connection closed, drops its queued output and shuts the
  /// socket down; the loop reaps the entry. Caller holds shared.mutex.
  void Cut(internal::ConnShared& shared);
  /// Queues a command for the loop thread and wakes it (any thread).
  void Post(uint64_t conn_id, bool complete, bool keep_open);

  enum class ConnState { kReading, kDispatched, kDraining };

  struct Conn {
    uint64_t id = 0;
    Socket socket;
    std::shared_ptr<internal::ConnShared> shared;
    HttpRequestParser parser;
    std::string inbuf;
    size_t inpos = 0;
    ConnState state = ConnState::kReading;
    bool want_read = false;
    bool want_write = false;
    bool polled = true;  ///< Registered with the poller (Sever removes it).
    bool close_after_drain = false;
    std::chrono::steady_clock::time_point last_read_activity;

    Conn(uint64_t id, Socket socket, size_t max_body)
        : id(id), socket(std::move(socket)), parser(max_body) {}
  };

  struct Command {
    uint64_t conn_id;
    bool complete;   ///< Else a flush: a completion queued output.
    bool keep_open;  ///< Completions only.
  };

  void Run();
  void Wake();
  void AcceptReady();
  void ReadReady(Conn* conn);
  /// Parses every complete request buffered for `conn`; dispatches or
  /// answers inline. `from_completion` marks requests served without a new
  /// read event (pipelining).
  void DrainParsed(Conn* conn, bool from_completion);
  /// Flushes the shared pending queue; arms/disarms writability.
  void FlushWrites(Conn* conn);
  void CloseConn(uint64_t conn_id);
  /// Cuts a connection whose request is still dispatched and stops polling
  /// it; the entry stays until the completion arrives, which closes it.
  void Sever(Conn* conn);
  void UpdateInterest(Conn* conn, bool read, bool write);
  void SweepTimeouts();
  void HandleCommands();
  bool ShouldExit();

  const EventLoopOptions options_;
  const RequestFn on_request_;

  std::unique_ptr<internal::Poller> poller_;
  Socket listener_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  std::thread thread_;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> aborting_{false};

  std::mutex commands_mutex_;
  std::vector<Command> commands_;
  std::atomic<int> waking_{0};  ///< Post() calls between push and Wake().

  uint64_t next_conn_id_ = 16;  // 1 = listener tag, 2 = wakeup tag.
  std::unordered_map<uint64_t, std::unique_ptr<Conn>> conns_;

  // Stats: written by the loop thread (and by completions' writes), read
  // by any scrape.
  std::atomic<uint64_t> wakeups_{0};
  std::atomic<uint64_t> events_{0};
  std::atomic<uint64_t> accepted_{0};
  std::atomic<uint64_t> rejected_{0};
  std::atomic<uint64_t> requests_{0};
  std::atomic<uint64_t> pipelined_{0};
  std::atomic<uint64_t> dispatches_{0};
  std::atomic<uint64_t> deferred_writes_{0};
  std::atomic<uint64_t> slow_reader_disconnects_{0};
  std::atomic<uint64_t> read_timeouts_{0};
  std::atomic<size_t> connections_live_{0};
  std::atomic<size_t> dispatch_inflight_{0};  ///< Written by the loop only.
  std::atomic<size_t> output_queue_bytes_{0};

  friend class ConnWriter;
};

}  // namespace shapley::net

#endif  // SHAPLEY_NET_EVENT_LOOP_H_
