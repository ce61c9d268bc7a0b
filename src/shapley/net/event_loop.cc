#include "shapley/net/event_loop.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <stdexcept>
#include <utility>

namespace shapley::net {

namespace internal {

namespace {

void SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags >= 0) ::fcntl(fd, F_SETFL, flags | O_NONBLOCK);
}

}  // namespace

/// The loop's epoll instance: fds registered under a 64-bit tag, and one
/// Wait translating epoll events into readiness flags.
class Poller {
 public:
  struct Event {
    uint64_t tag = 0;
    bool readable = false;
    bool writable = false;
    bool hangup = false;  ///< The peer stopped sending (or worse).
    bool broken = false;  ///< Nothing can pass either way any more.
  };

  Poller() : epfd_(::epoll_create1(0)) {
    if (epfd_ < 0) {
      throw std::runtime_error(std::string("EventLoop: epoll_create1: ") +
                               std::strerror(errno));
    }
  }
  ~Poller() { ::close(epfd_); }

  Poller(const Poller&) = delete;
  Poller& operator=(const Poller&) = delete;

  void Add(int fd, uint64_t tag, bool read, bool write) {
    epoll_event ev = Event_(tag, read, write);
    ::epoll_ctl(epfd_, EPOLL_CTL_ADD, fd, &ev);
  }

  void Update(int fd, uint64_t tag, bool read, bool write) {
    epoll_event ev = Event_(tag, read, write);
    ::epoll_ctl(epfd_, EPOLL_CTL_MOD, fd, &ev);
  }

  void Remove(int fd) { ::epoll_ctl(epfd_, EPOLL_CTL_DEL, fd, nullptr); }

  /// Fills *out; returns false only on unrecoverable epoll failure.
  bool Wait(int timeout_ms, std::vector<Event>* out) {
    out->clear();
    epoll_event events[64];
    int n;
    do {
      n = ::epoll_wait(epfd_, events, 64, timeout_ms);
    } while (n < 0 && errno == EINTR);
    if (n < 0) return false;
    for (int i = 0; i < n; ++i) {
      Event event;
      event.tag = events[i].data.u64;
      event.readable = (events[i].events & EPOLLIN) != 0;
      event.writable = (events[i].events & EPOLLOUT) != 0;
      event.hangup =
          (events[i].events & (EPOLLHUP | EPOLLRDHUP | EPOLLERR)) != 0;
      event.broken = (events[i].events & (EPOLLHUP | EPOLLERR)) != 0;
      out->push_back(event);
    }
    return true;
  }

 private:
  static epoll_event Event_(uint64_t tag, bool read, bool write) {
    epoll_event ev{};
    // A peer's half-close matters only while reading: watched while the
    // request is dispatched, it would fire on every wait until completion.
    ev.events = (read ? EPOLLIN | EPOLLRDHUP : 0u) | (write ? EPOLLOUT : 0u);
    ev.data.u64 = tag;
    return ev;
  }

  int epfd_;
};

}  // namespace internal

namespace {

constexpr uint64_t kListenerTag = 1;
constexpr uint64_t kWakeTag = 2;
constexpr int kWaitMs = 200;

}  // namespace

// ---------------------------------------------------------------------------
// ConnWriter — the completion-side response path.
// ---------------------------------------------------------------------------

bool ConnWriter::SendAll(std::string_view data) {
  EventLoop* loop = shared_->loop;
  const EventLoop::WriteResult result = loop->Write(*shared_, data);
  // Queued bytes need the loop to watch writability; a cut connection needs
  // it to stop polling the shut socket.
  if (result != EventLoop::WriteResult::kSent) {
    loop->Post(shared_->id, /*complete=*/false, /*keep_open=*/true);
  }
  return result != EventLoop::WriteResult::kClosed;
}

// ---------------------------------------------------------------------------
// EventLoop
// ---------------------------------------------------------------------------

EventLoop::EventLoop(EventLoopOptions options, RequestFn on_request)
    : options_(std::move(options)), on_request_(std::move(on_request)) {}

EventLoop::~EventLoop() { Stop(); }

void EventLoop::Start(Socket listener) {
  // First: a failing epoll_create1 throws before anything is taken over,
  // and the listener closes with the argument.
  poller_ = std::make_unique<internal::Poller>();
  listener_ = std::move(listener);
  internal::SetNonBlocking(listener_.fd());
  int pipe_fds[2];
  if (::pipe(pipe_fds) != 0) {
    const int error = errno;
    listener_.Close();
    poller_.reset();
    throw std::runtime_error(std::string("EventLoop: pipe: ") +
                             std::strerror(error));
  }
  wake_read_fd_ = pipe_fds[0];
  wake_write_fd_ = pipe_fds[1];
  internal::SetNonBlocking(wake_read_fd_);
  internal::SetNonBlocking(wake_write_fd_);
  poller_->Add(listener_.fd(), kListenerTag, /*read=*/true, /*write=*/false);
  poller_->Add(wake_read_fd_, kWakeTag, /*read=*/true, /*write=*/false);
  running_.store(true);
  stopping_.store(false);
  aborting_.store(false);
  thread_ = std::thread([this] { Run(); });
}

void EventLoop::Stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  Wake();
  if (thread_.joinable()) thread_.join();
  // The last completion may still be inside Wake(): the pipe, and this
  // object, must outlive it.
  while (waking_.load(std::memory_order_acquire) > 0) std::this_thread::yield();
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
  wake_read_fd_ = wake_write_fd_ = -1;
}

void EventLoop::Abort() {
  aborting_.store(true);
  Stop();
}

void EventLoop::Wake() {
  if (wake_write_fd_ < 0) return;
  const char byte = 1;
  // EAGAIN means a wake-up is already pending — exactly what we need.
  [[maybe_unused]] const ssize_t n = ::write(wake_write_fd_, &byte, 1);
}

void EventLoop::Post(uint64_t conn_id, bool complete, bool keep_open) {
  {
    std::lock_guard<std::mutex> lock(commands_mutex_);
    commands_.push_back(Command{conn_id, complete, keep_open});
    waking_.fetch_add(1, std::memory_order_relaxed);
  }
  // Outside the lock: on one CPU the woken loop would otherwise preempt
  // this thread only to block on the mutex.
  Wake();
  waking_.fetch_sub(1, std::memory_order_release);
}

void EventLoop::CompleteDispatch(uint64_t conn_id, bool keep_open) {
  Post(conn_id, /*complete=*/true, keep_open);
}

EventLoopStats EventLoop::stats() const {
  EventLoopStats stats;
  stats.wakeups = wakeups_.load(std::memory_order_relaxed);
  stats.events = events_.load(std::memory_order_relaxed);
  stats.accepted = accepted_.load(std::memory_order_relaxed);
  stats.rejected = rejected_.load(std::memory_order_relaxed);
  stats.requests = requests_.load(std::memory_order_relaxed);
  stats.pipelined = pipelined_.load(std::memory_order_relaxed);
  stats.dispatches = dispatches_.load(std::memory_order_relaxed);
  stats.deferred_writes = deferred_writes_.load(std::memory_order_relaxed);
  stats.slow_reader_disconnects =
      slow_reader_disconnects_.load(std::memory_order_relaxed);
  stats.read_timeouts = read_timeouts_.load(std::memory_order_relaxed);
  stats.connections_live = connections_live_.load(std::memory_order_relaxed);
  stats.dispatch_inflight = dispatch_inflight_.load(std::memory_order_relaxed);
  stats.output_queue_bytes =
      output_queue_bytes_.load(std::memory_order_relaxed);
  return stats;
}

void EventLoop::Run() {
  std::vector<internal::Poller::Event> events;
  bool stop_applied = false;
  while (true) {
    HandleCommands();
    const bool stopping = stopping_.load();
    if (stopping && !stop_applied) {
      stop_applied = true;
      // Close the door and cut every connection that is not serving a
      // request: idle keep-alive waits end NOW, not at their read timeout.
      poller_->Remove(listener_.fd());
      listener_.Close();
      const bool aborting = aborting_.load();
      std::vector<uint64_t> cut;
      for (auto& [id, conn] : conns_) {
        if (conn->state == ConnState::kDispatched) {
          // Dispatched connections keep their entry until the completion
          // arrives (the bookkeeping must survive). Under abort — a crash
          // simulation — their write side fails too, so a response being
          // streamed dies mid-flight from the client's point of view.
          if (aborting) Sever(conn.get());
        } else if (conn->state == ConnState::kReading || aborting) {
          cut.push_back(id);
        }
      }
      for (uint64_t id : cut) CloseConn(id);
    }
    if (stop_applied && ShouldExit()) break;

    if (!poller_->Wait(kWaitMs, &events)) break;
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    for (const internal::Poller::Event& event : events) {
      events_.fetch_add(1, std::memory_order_relaxed);
      if (event.tag == kListenerTag) {
        if (!stopping_.load()) AcceptReady();
        continue;
      }
      if (event.tag == kWakeTag) {
        char buf[256];
        while (::read(wake_read_fd_, buf, sizeof(buf)) > 0) {
        }
        continue;
      }
      auto it = conns_.find(event.tag);
      if (it == conns_.end()) continue;
      Conn* conn = it->second.get();
      if (event.writable) {
        FlushWrites(conn);
        if (conns_.find(event.tag) == conns_.end()) continue;
      }
      if (event.readable && conn->state == ConnState::kReading) {
        ReadReady(conn);
        if (conns_.find(event.tag) == conns_.end()) continue;
      }
      if (event.hangup && conn->state == ConnState::kReading) {
        CloseConn(event.tag);
      } else if (event.broken && conn->state == ConnState::kDispatched) {
        Sever(conn);  // No response can reach the peer; stop polling it.
      }
    }
    SweepTimeouts();
  }
  // Loop exit: whatever is left (abort leftovers) goes down hard.
  std::vector<uint64_t> leftover;
  leftover.reserve(conns_.size());
  for (const auto& [id, conn] : conns_) leftover.push_back(id);
  for (uint64_t id : leftover) CloseConn(id);
  listener_.Close();
}

bool EventLoop::ShouldExit() {
  if (aborting_.load()) return dispatch_inflight_ == 0;
  // Graceful: every dispatched request completed AND every connection
  // (including ones still draining their final response) is gone.
  return dispatch_inflight_ == 0 && conns_.empty();
}

void EventLoop::HandleCommands() {
  std::vector<Command> commands;
  {
    std::lock_guard<std::mutex> lock(commands_mutex_);
    commands.swap(commands_);
  }
  for (const Command& command : commands) {
    auto it = conns_.find(command.conn_id);
    if (command.complete) {
      dispatch_inflight_.fetch_sub(1, std::memory_order_relaxed);
      if (it == conns_.end()) continue;  // Closed under the worker.
      Conn* conn = it->second.get();
      bool peer_gone;
      {
        std::lock_guard<std::mutex> lock(conn->shared->mutex);
        peer_gone = conn->shared->closed;
      }
      if (peer_gone) {
        CloseConn(command.conn_id);
        continue;
      }
      if (!command.keep_open || stopping_.load()) {
        conn->state = ConnState::kDraining;
        conn->close_after_drain = true;
        FlushWrites(conn);
        continue;
      }
      // Keep-alive re-arm: a pipelined follow-up may already be buffered —
      // serve it without waiting for another byte off the wire.
      conn->state = ConnState::kReading;
      conn->last_read_activity = std::chrono::steady_clock::now();
      DrainParsed(conn, /*from_completion=*/true);
    } else {  // kFlush
      if (it == conns_.end()) continue;
      FlushWrites(it->second.get());
    }
  }
}

void EventLoop::AcceptReady() {
  while (true) {
    const int fd = ::accept(listener_.fd(), nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (or a transient accept error): back to the poller.
    }
    Socket socket(fd);
    internal::SetNonBlocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    if (conns_.size() >= options_.max_connections) {
      // Back-pressure at the door: a prebuilt 503, best effort — the
      // loop never blocks for a peer that will not read it.
      rejected_.fetch_add(1, std::memory_order_relaxed);
      [[maybe_unused]] const ssize_t n =
          ::send(fd, options_.response_503.data(),
                 options_.response_503.size(), MSG_NOSIGNAL);
      continue;  // Socket closes on scope exit.
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    const uint64_t id = next_conn_id_++;
    auto conn = std::make_unique<Conn>(id, std::move(socket),
                                       options_.max_body_bytes);
    conn->shared = std::make_shared<internal::ConnShared>();
    conn->shared->loop = this;
    conn->shared->id = id;
    conn->shared->fd = fd;
    conn->shared->cap = options_.max_output_queue_bytes;
    conn->shared->last_write_progress = std::chrono::steady_clock::now();
    conn->last_read_activity = conn->shared->last_write_progress;
    conn->want_read = true;
    conn->want_write = false;
    poller_->Add(fd, id, /*read=*/true, /*write=*/false);
    conns_[id] = std::move(conn);
    connections_live_.store(conns_.size(), std::memory_order_relaxed);
  }
}

void EventLoop::UpdateInterest(Conn* conn, bool read, bool write) {
  if (!conn->polled) return;
  if (conn->want_read == read && conn->want_write == write) return;
  conn->want_read = read;
  conn->want_write = write;
  poller_->Update(conn->socket.fd(), conn->id, read, write);
}

void EventLoop::ReadReady(Conn* conn) {
  const uint64_t id = conn->id;
  bool eof = false;
  char buf[16 * 1024];
  while (true) {
    const ssize_t n = ::recv(conn->socket.fd(), buf, sizeof(buf), 0);
    if (n > 0) {
      conn->inbuf.append(buf, static_cast<size_t>(n));
      conn->last_read_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n == 0) {
      eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    CloseConn(id);  // Hard transport error.
    return;
  }
  DrainParsed(conn, /*from_completion=*/false);
  if (conns_.find(id) == conns_.end()) return;
  if (eof && conn->state == ConnState::kReading) {
    // Clean keep-alive close, or a client cut off mid-message — either
    // way there is no request left to serve on this connection.
    CloseConn(id);
  }
}

void EventLoop::DrainParsed(Conn* conn, bool from_completion) {
  const uint64_t id = conn->id;
  size_t parsed_here = 0;
  while (conn->state == ConnState::kReading) {
    const std::string_view data(conn->inbuf.data() + conn->inpos,
                                conn->inbuf.size() - conn->inpos);
    size_t consumed = 0;
    const HttpParseStatus status = conn->parser.Consume(data, &consumed);
    conn->inpos += consumed;
    if (conn->inpos > 64 * 1024) {
      conn->inbuf.erase(0, conn->inpos);
      conn->inpos = 0;
    }
    if (status == HttpParseStatus::kNeedMore) break;
    if (status == HttpParseStatus::kMalformed ||
        status == HttpParseStatus::kTooLarge) {
      Respond(id, status == HttpParseStatus::kMalformed
                      ? options_.response_400
                      : options_.response_413);
      if (conns_.find(id) == conns_.end()) return;  // Respond may close.
      conn->state = ConnState::kDraining;
      conn->close_after_drain = true;
      break;
    }
    // One full request.
    requests_.fetch_add(1, std::memory_order_relaxed);
    if (from_completion || parsed_here > 0) {
      pipelined_.fetch_add(1, std::memory_order_relaxed);
    }
    ++parsed_here;
    HttpRequest request = conn->parser.Take();
    conn->parser.Reset();
    auto writer = std::make_shared<ConnWriter>(conn->shared);
    const Disposition disposition =
        on_request_(id, std::move(request), std::move(writer));
    if (conns_.find(id) == conns_.end()) return;  // Inline send may close.
    if (disposition == Disposition::kDispatched) {
      conn->state = ConnState::kDispatched;
      dispatch_inflight_.fetch_add(1, std::memory_order_relaxed);
      dispatches_.fetch_add(1, std::memory_order_relaxed);
      break;
    }
    if (disposition == Disposition::kInlineClose) {
      conn->state = ConnState::kDraining;
      conn->close_after_drain = true;
      break;
    }
    // kInlineKeep: loop — a pipelined follower may already be buffered.
  }
  // Re-arm the poller for whatever the connection now needs.
  bool queued;
  {
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    queued = conn->shared->pending.size() > conn->shared->pending_off;
  }
  switch (conn->state) {
    case ConnState::kReading:
      UpdateInterest(conn, /*read=*/true, /*write=*/queued);
      break;
    case ConnState::kDispatched:
      UpdateInterest(conn, /*read=*/false, /*write=*/queued);
      break;
    case ConnState::kDraining:
      UpdateInterest(conn, /*read=*/false, /*write=*/true);
      FlushWrites(conn);  // May close (queue empty → immediate).
      break;
  }
}

EventLoop::WriteResult EventLoop::Write(internal::ConnShared& shared,
                                        std::string_view data) {
  std::lock_guard<std::mutex> lock(shared.mutex);
  if (shared.closed) return WriteResult::kClosed;
  size_t off = 0;
  if (shared.pending.size() == shared.pending_off) {
    // Queue empty: straight to the socket while the peer keeps up — the
    // common case costs no loop round-trip at all.
    while (off < data.size()) {
      const ssize_t n = ::send(shared.fd, data.data() + off,
                               data.size() - off, MSG_NOSIGNAL);
      if (n > 0) {
        off += static_cast<size_t>(n);
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
      Cut(shared);  // Peer gone: this response is abandoned.
      return WriteResult::kClosed;
    }
    shared.last_write_progress = std::chrono::steady_clock::now();
    if (off == data.size()) return WriteResult::kSent;
    deferred_writes_.fetch_add(1, std::memory_order_relaxed);
  }
  const size_t queued = shared.pending.size() - shared.pending_off;
  const size_t rest = data.size() - off;
  if (queued + rest > shared.cap) {
    // BOUNDED output queue, and no thread waits for it to drain: a peer
    // that cannot absorb the response within the cap is a slow reader, and
    // it can pin at most `cap` bytes of this process.
    slow_reader_disconnects_.fetch_add(1, std::memory_order_relaxed);
    Cut(shared);
    return WriteResult::kClosed;
  }
  shared.pending.append(data.data() + off, rest);
  output_queue_bytes_.fetch_add(rest, std::memory_order_relaxed);
  return WriteResult::kQueued;
}

void EventLoop::Cut(internal::ConnShared& shared) {
  shared.closed = true;
  const size_t queued = shared.pending.size() - shared.pending_off;
  if (queued > 0) {
    output_queue_bytes_.fetch_sub(queued, std::memory_order_relaxed);
  }
  shared.pending.clear();
  shared.pending_off = 0;
  if (shared.fd >= 0) ::shutdown(shared.fd, SHUT_RDWR);
}

void EventLoop::Respond(uint64_t conn_id, std::string_view data) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  switch (Write(*conn->shared, data)) {
    case WriteResult::kSent:
      break;
    case WriteResult::kQueued:
      UpdateInterest(conn, conn->want_read, /*write=*/true);
      break;
    case WriteResult::kClosed:
      CloseConn(conn_id);
      break;
  }
}

void EventLoop::FlushWrites(Conn* conn) {
  const uint64_t id = conn->id;
  internal::ConnShared& shared = *conn->shared;
  bool dead = false;
  bool empty;
  {
    std::lock_guard<std::mutex> lock(shared.mutex);
    if (shared.closed) {
      dead = true;
    } else {
      while (shared.pending_off < shared.pending.size()) {
        const ssize_t n =
            ::send(shared.fd, shared.pending.data() + shared.pending_off,
                   shared.pending.size() - shared.pending_off, MSG_NOSIGNAL);
        if (n > 0) {
          shared.pending_off += static_cast<size_t>(n);
          output_queue_bytes_.fetch_sub(static_cast<size_t>(n),
                                        std::memory_order_relaxed);
          shared.last_write_progress = std::chrono::steady_clock::now();
          continue;
        }
        if (n < 0 && errno == EINTR) continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
        dead = true;  // Peer gone mid-response.
        break;
      }
      if (shared.pending_off == shared.pending.size()) {
        shared.pending.clear();
        shared.pending_off = 0;
      } else if (shared.pending_off > 64 * 1024) {
        shared.pending.erase(0, shared.pending_off);
        shared.pending_off = 0;
      }
    }
    empty = shared.pending.empty();
  }
  if (dead) {
    if (conn->state == ConnState::kDispatched) {
      // The request is still being served; fail its writes and let the
      // completion command reap the connection.
      Sever(conn);
    } else {
      CloseConn(id);
    }
    return;
  }
  if (empty && conn->state == ConnState::kDraining &&
      conn->close_after_drain) {
    CloseConn(id);
    return;
  }
  UpdateInterest(conn, conn->want_read, /*write=*/!empty);
}

void EventLoop::CloseConn(uint64_t conn_id) {
  auto it = conns_.find(conn_id);
  if (it == conns_.end()) return;
  Conn* conn = it->second.get();
  {
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    Cut(*conn->shared);
    conn->shared->fd = -1;
  }
  if (conn->polled && conn->socket.valid()) {
    poller_->Remove(conn->socket.fd());
  }
  conn->socket.Close();
  conns_.erase(it);
  connections_live_.store(conns_.size(), std::memory_order_relaxed);
}

void EventLoop::SweepTimeouts() {
  const auto now = std::chrono::steady_clock::now();
  std::vector<uint64_t> idle;
  std::vector<uint64_t> stalled;
  for (const auto& [id, conn] : conns_) {
    if (conn->state == ConnState::kReading &&
        now - conn->last_read_activity >
            std::chrono::milliseconds(options_.read_timeout_ms)) {
      idle.push_back(id);
      continue;
    }
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    const bool queued =
        conn->shared->pending.size() > conn->shared->pending_off;
    if (queued &&
        now - conn->shared->last_write_progress >
            std::chrono::milliseconds(options_.write_stall_timeout_ms)) {
      stalled.push_back(id);
    }
  }
  for (uint64_t id : idle) {
    read_timeouts_.fetch_add(1, std::memory_order_relaxed);
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    Conn* conn = it->second.get();
    // A peer that STARTED a request and stalled gets told before the
    // close (the prebuilt 408); an idle keep-alive connection between
    // requests has nothing outstanding and still closes silently.
    if (conn->parser.mid_message() && !options_.response_408.empty()) {
      Respond(id, options_.response_408);
      if (conns_.find(id) == conns_.end()) continue;  // Respond may close.
      conn->state = ConnState::kDraining;
      conn->close_after_drain = true;
      UpdateInterest(conn, /*read=*/false, /*write=*/true);
      FlushWrites(conn);  // Queue empty → immediate close.
    } else {
      CloseConn(id);
    }
  }
  for (uint64_t id : stalled) {
    // Slow-reader disconnect: the peer stopped draining its responses;
    // cutting it releases the queue and fails the request's later writes.
    slow_reader_disconnects_.fetch_add(1, std::memory_order_relaxed);
    auto it = conns_.find(id);
    if (it == conns_.end()) continue;
    if (it->second->state == ConnState::kDispatched) {
      Sever(it->second.get());
    } else {
      CloseConn(id);
    }
  }
}

void EventLoop::Sever(Conn* conn) {
  {
    std::lock_guard<std::mutex> lock(conn->shared->mutex);
    if (!conn->shared->closed) Cut(*conn->shared);
  }
  if (conn->polled) {
    poller_->Remove(conn->socket.fd());
    conn->polled = false;
  }
}

}  // namespace shapley::net
