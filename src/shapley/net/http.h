#ifndef SHAPLEY_NET_HTTP_H_
#define SHAPLEY_NET_HTTP_H_

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace shapley::net {

/// POSIX-socket + HTTP/1.1 plumbing shared by the server (net/server.h)
/// and the client library (net/client.h). Deliberately minimal: exactly
/// the slice of HTTP the wire protocol needs — request/status lines,
/// headers, Content-Length and chunked bodies, keep-alive. The server
/// parses requests incrementally off its event loop (HttpRequestParser);
/// clients read responses from blocking sockets with poll()-based read
/// timeouts (SocketReader). No TLS, no compression, no external
/// dependency.

/// Where a response goes. Handlers write through this interface; the event
/// loop's implementation (ConnWriter, net/event_loop.h) puts write-side
/// backpressure and slow-reader disconnection behind the one call.
class ResponseWriter {
 public:
  virtual ~ResponseWriter() = default;

  /// Writes (or queues) the whole buffer. False when the connection is
  /// gone — the caller abandons the response and ends the connection.
  virtual bool SendAll(std::string_view data) = 0;
};

/// RAII file descriptor. Move-only; closes on destruction.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) : fd_(fd) {}
  ~Socket() { Close(); }

  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept {
    if (this != &other) {
      Close();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }

  int fd() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  void Close();

  /// Writes the whole buffer (handling partial writes and EINTR); false on
  /// any hard error (the peer is gone — the caller drops the connection).
  bool SendAll(std::string_view data);

 private:
  int fd_ = -1;
};

/// Connects TCP to host:port (numeric or resolvable host). Invalid socket
/// + error message on failure.
Socket ConnectTcp(const std::string& host, uint16_t port, std::string* error);

/// Listening TCP socket bound to host:port (port 0 = ephemeral);
/// *bound_port receives the actual port. Invalid socket + message on
/// failure.
Socket ListenTcp(const std::string& host, uint16_t port, int backlog,
                 uint16_t* bound_port, std::string* error);

/// Buffered reader over a socket with a per-read-call timeout. All Read*
/// methods return false on timeout, EOF or error; Eof()/TimedOut()
/// distinguish the clean cases.
class SocketReader {
 public:
  SocketReader(int fd, int timeout_ms) : fd_(fd), timeout_ms_(timeout_ms) {}

  /// One CRLF- (or bare-LF-) terminated line, terminator stripped; fails
  /// when the line exceeds `max_len` (header bombs must not grow memory).
  bool ReadLine(std::string* line, size_t max_len = 64 * 1024);
  /// Exactly `n` bytes appended to *out.
  bool ReadExact(size_t n, std::string* out);

  bool Eof() const { return eof_; }
  bool TimedOut() const { return timed_out_; }

 private:
  bool FillBuffer();

  int fd_;
  int timeout_ms_;
  std::string buffer_;
  size_t pos_ = 0;
  bool eof_ = false;
  bool timed_out_ = false;
};

using HttpHeaders = std::vector<std::pair<std::string, std::string>>;

/// Case-insensitive header lookup; nullptr when absent.
const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name);

struct HttpRequest {
  std::string method;   // "GET", "POST"
  std::string target;   // "/v1/compute"
  std::string version;  // "HTTP/1.1"
  HttpHeaders headers;
  std::string body;
};

struct HttpResponse {
  int status = 0;
  std::string reason;
  HttpHeaders headers;
  std::string body;  // Filled by ReadHttpResponse; empty for chunked heads.
};

enum class HttpReadResult {
  kOk,
  kClosed,     ///< Clean EOF before the first byte of a message.
  kTimeout,    ///< The read timeout elapsed mid-message (or before one).
  kTooLarge,   ///< Declared or actual body beyond the caller's cap.
  kMalformed,  ///< Anything else that is not HTTP.
};

/// Reads a status line + headers, then the body: Content-Length bodies are
/// read fully into out->body; a chunked body is left UNREAD (the caller
/// streams it with ReadChunk) and `*chunked` is set.
HttpReadResult ReadHttpResponse(SocketReader* reader, size_t max_body,
                                HttpResponse* out, bool* chunked);

/// One chunk of a chunked body into *chunk (empty + true on the terminal
/// 0-chunk, after consuming the trailing CRLF). False on malformed input.
bool ReadChunk(SocketReader* reader, size_t max_chunk, std::string* chunk,
               bool* done);

/// Serialized message head + body writers.
std::string SerializeRequest(const HttpRequest& request);
/// `extra_headers` land verbatim after the defaults. With content_length
/// (>= 0) the body is framed by Content-Length; the caller sends the body.
std::string SerializeResponseHead(int status, std::string_view content_type,
                                  long content_length, bool keep_alive,
                                  const HttpHeaders& extra_headers = {});
/// One chunk frame (size line + payload + CRLF); empty payload = terminal.
std::string ChunkFrame(std::string_view payload);

/// Standard reason phrase ("OK", "Bad Request", ...; "Unknown" otherwise).
const char* ReasonPhrase(int status);

/// Incremental (non-blocking) request parser for the event loop: bytes go
/// in as they arrive off the socket, one state-machine step per call — no
/// thread ever blocks waiting for the rest of a message. Enforces a strict
/// grammar (its size and header helpers are ReadHttpResponse's too):
/// request lines are exactly three space-separated fields, sizes must
/// consume their full token, duplicate Content-Length headers are rejected,
/// Transfer-Encoding requests are rejected, header count and line length
/// are capped.
enum class HttpParseStatus {
  kNeedMore,   ///< Message incomplete; feed more bytes.
  kDone,       ///< One full request parsed; Take() it, then Reset().
  kMalformed,  ///< Not HTTP (or forbidden framing). Connection must close.
  kTooLarge,   ///< Declared body beyond max_body. Connection must close.
};

class HttpRequestParser {
 public:
  explicit HttpRequestParser(size_t max_body, size_t max_line = 64 * 1024)
      : max_body_(max_body), max_line_(max_line) {}

  /// Consumes as much of `data` as the current message needs; *consumed
  /// reports how many bytes were eaten THIS call (pipelined followers stay
  /// untouched in the caller's buffer). After kDone the parser stops
  /// eating until Reset().
  HttpParseStatus Consume(std::string_view data, size_t* consumed);

  /// The parsed request; valid exactly once after kDone.
  HttpRequest Take() { return std::move(request_); }

  /// Ready for the next pipelined request on the same connection.
  void Reset();

  /// True when a message is partially buffered (head bytes or an
  /// incomplete body) — a shutdown mid-message is a client cut off, not an
  /// idle keep-alive close.
  bool mid_message() const {
    return phase_ != Phase::kRequestLine || !line_.empty();
  }

 private:
  enum class Phase { kRequestLine, kHeaders, kBody, kDone };

  HttpParseStatus ProcessLine();

  size_t max_body_;
  size_t max_line_;
  Phase phase_ = Phase::kRequestLine;
  std::string line_;
  size_t body_needed_ = 0;
  size_t header_count_ = 0;
  HttpRequest request_;
};

}  // namespace shapley::net

#endif  // SHAPLEY_NET_HTTP_H_
