#include "shapley/net/http.h"

#include <arpa/inet.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <charconv>
#include <cstring>

namespace shapley::net {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

void Socket::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool Socket::SendAll(std::string_view data) {
  size_t sent = 0;
  while (sent < data.size()) {
    // MSG_NOSIGNAL: a peer that hung up must surface as EPIPE, not kill
    // the process with SIGPIPE.
    const ssize_t n = ::send(fd_, data.data() + sent, data.size() - sent,
                             MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

Socket ConnectTcp(const std::string& host, uint16_t port, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.c_str(), port_text.c_str(), &hints,
                               &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "getaddrinfo(" + host + "): " + gai_strerror(rc);
    }
    return Socket();
  }
  Socket socket;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    if (::connect(fd, ai->ai_addr, ai->ai_addrlen) == 0) {
      const int one = 1;
      ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
      socket = Socket(fd);
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(result);
  if (!socket.valid() && error != nullptr) {
    *error = "connect(" + host + ":" + port_text +
             "): " + std::strerror(errno);
  }
  return socket;
}

Socket ListenTcp(const std::string& host, uint16_t port, int backlog,
                 uint16_t* bound_port, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  hints.ai_flags = AI_PASSIVE;
  addrinfo* result = nullptr;
  const std::string port_text = std::to_string(port);
  const int rc = ::getaddrinfo(host.empty() ? nullptr : host.c_str(),
                               port_text.c_str(), &hints, &result);
  if (rc != 0) {
    if (error != nullptr) {
      *error = "getaddrinfo(" + host + "): " + gai_strerror(rc);
    }
    return Socket();
  }
  Socket socket;
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    const int fd = ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol);
    if (fd < 0) continue;
    const int one = 1;
    ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
    if (::bind(fd, ai->ai_addr, ai->ai_addrlen) == 0 &&
        ::listen(fd, backlog) == 0) {
      socket = Socket(fd);
      break;
    }
    ::close(fd);
  }
  ::freeaddrinfo(result);
  if (!socket.valid()) {
    if (error != nullptr) {
      *error = "bind/listen(" + host + ":" + port_text +
               "): " + std::strerror(errno);
    }
    return socket;
  }
  if (bound_port != nullptr) {
    sockaddr_storage addr{};
    socklen_t len = sizeof(addr);
    if (::getsockname(socket.fd(), reinterpret_cast<sockaddr*>(&addr), &len) ==
        0) {
      if (addr.ss_family == AF_INET) {
        *bound_port =
            ntohs(reinterpret_cast<sockaddr_in*>(&addr)->sin_port);
      } else if (addr.ss_family == AF_INET6) {
        *bound_port =
            ntohs(reinterpret_cast<sockaddr_in6*>(&addr)->sin6_port);
      }
    }
  }
  return socket;
}

bool SocketReader::FillBuffer() {
  if (eof_) return false;
  pollfd pfd{fd_, POLLIN, 0};
  while (true) {
    const int rc = ::poll(&pfd, 1, timeout_ms_);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (rc == 0) {
      timed_out_ = true;
      return false;
    }
    break;
  }
  char chunk[8192];
  while (true) {
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) {
      eof_ = true;
      return false;
    }
    buffer_.append(chunk, static_cast<size_t>(n));
    return true;
  }
}

bool SocketReader::ReadLine(std::string* line, size_t max_len) {
  while (true) {
    const size_t nl = buffer_.find('\n', pos_);
    if (nl != std::string::npos) {
      size_t end = nl;
      if (end > pos_ && buffer_[end - 1] == '\r') --end;
      if (end - pos_ > max_len) return false;
      line->assign(buffer_, pos_, end - pos_);
      pos_ = nl + 1;
      // Compact the consumed prefix occasionally so a long-lived keep-alive
      // connection does not accumulate every message it ever read.
      if (pos_ > 64 * 1024) {
        buffer_.erase(0, pos_);
        pos_ = 0;
      }
      return true;
    }
    if (buffer_.size() - pos_ > max_len) return false;
    if (!FillBuffer()) return false;
  }
}

bool SocketReader::ReadExact(size_t n, std::string* out) {
  while (buffer_.size() - pos_ < n) {
    if (!FillBuffer()) return false;
  }
  out->append(buffer_, pos_, n);
  pos_ += n;
  if (pos_ > 64 * 1024) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  return true;
}

const std::string* FindHeader(const HttpHeaders& headers,
                              std::string_view name) {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

namespace {

/// Strict size parse: the WHOLE token must be digits of `base`. Trailing
/// garbage is rejected — "12abc" must not read as 12 (a proxy that parses
/// it differently is a request-smuggling vector), and a chunk-size line
/// "ffzz" must not read as 255.
bool ParseSize(std::string_view text, int base, size_t* out) {
  size_t value = 0;
  auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value, base);
  if (ec != std::errc() || ptr != text.data() + text.size() || text.empty()) {
    return false;
  }
  *out = value;
  return true;
}

/// Chunk-size line: hex size with an optional ";extension" stripped first;
/// everything before the extension must parse as hex IN FULL.
bool ParseChunkSize(std::string_view line, size_t* out) {
  const size_t semi = line.find(';');
  if (semi != std::string_view::npos) line = line.substr(0, semi);
  return ParseSize(line, 16, out);
}

enum class ContentLength { kAbsent, kOk, kMalformed };

/// Content-Length extraction with duplicate rejection: a message carrying
/// more than one Content-Length header is malformed, full stop. Resolving
/// to the first (what a naive FindHeader does) is how request smuggling
/// starts once a proxy fronts this server and resolves to the LAST.
ContentLength ContentLengthOf(const HttpHeaders& headers, size_t* out) {
  const std::string* found = nullptr;
  for (const auto& [key, value] : headers) {
    if (!EqualsIgnoreCase(key, "Content-Length")) continue;
    if (found != nullptr) return ContentLength::kMalformed;
    found = &value;
  }
  if (found == nullptr) return ContentLength::kAbsent;
  if (!ParseSize(*found, 10, out)) return ContentLength::kMalformed;
  return ContentLength::kOk;
}

/// "METHOD SP target SP version" — EXACTLY three non-empty fields. A
/// target containing a space ("GET /a b HTTP/1.1") must be rejected, not
/// silently re-assembled by a first-space/last-space split.
bool ParseRequestLine(const std::string& line, HttpRequest* out) {
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos || sp1 == 0) return false;
  const size_t sp2 = line.find(' ', sp1 + 1);
  if (sp2 == std::string::npos || sp2 == sp1 + 1) return false;
  if (line.find(' ', sp2 + 1) != std::string::npos) return false;
  if (sp2 + 1 == line.size()) return false;
  out->method = line.substr(0, sp1);
  out->target = line.substr(sp1 + 1, sp2 - sp1 - 1);
  out->version = line.substr(sp2 + 1);
  return out->version == "HTTP/1.1" || out->version == "HTTP/1.0";
}

/// One "Name: value" header line (leading value whitespace stripped).
bool ParseHeaderLine(const std::string& line, HttpHeaders* headers) {
  const size_t colon = line.find(':');
  if (colon == std::string::npos) return false;
  std::string name = line.substr(0, colon);
  size_t start = colon + 1;
  while (start < line.size() && line[start] == ' ') ++start;
  headers->emplace_back(std::move(name), line.substr(start));
  return true;
}

/// "Name: value" lines until the blank line; false on malformed input.
bool ReadHeaders(SocketReader* reader, HttpHeaders* headers) {
  std::string line;
  // 100 headers is far beyond anything the protocol sends; the cap stops
  // header floods.
  for (int i = 0; i < 100; ++i) {
    if (!reader->ReadLine(&line)) return false;
    if (line.empty()) return true;
    if (!ParseHeaderLine(line, headers)) return false;
  }
  return false;
}

}  // namespace

HttpReadResult ReadHttpResponse(SocketReader* reader, size_t max_body,
                                HttpResponse* out, bool* chunked) {
  *chunked = false;
  std::string line;
  if (!reader->ReadLine(&line)) {
    if (reader->TimedOut()) return HttpReadResult::kTimeout;
    return reader->Eof() ? HttpReadResult::kClosed : HttpReadResult::kMalformed;
  }
  // "HTTP/1.1 200 OK"
  const size_t sp1 = line.find(' ');
  if (sp1 == std::string::npos) return HttpReadResult::kMalformed;
  const size_t sp2 = line.find(' ', sp1 + 1);
  const std::string status_text =
      line.substr(sp1 + 1, sp2 == std::string::npos ? std::string::npos
                                                    : sp2 - sp1 - 1);
  size_t status = 0;
  if (!ParseSize(status_text, 10, &status) || status < 100 || status > 599) {
    return HttpReadResult::kMalformed;
  }
  out->status = static_cast<int>(status);
  if (sp2 != std::string::npos) out->reason = line.substr(sp2 + 1);
  if (!ReadHeaders(reader, &out->headers)) {
    return reader->TimedOut() ? HttpReadResult::kTimeout
                              : HttpReadResult::kMalformed;
  }
  const std::string* te = FindHeader(out->headers, "Transfer-Encoding");
  if (te != nullptr && EqualsIgnoreCase(*te, "chunked")) {
    *chunked = true;  // Caller streams with ReadChunk.
    return HttpReadResult::kOk;
  }
  size_t length = 0;
  switch (ContentLengthOf(out->headers, &length)) {
    case ContentLength::kAbsent:
      return HttpReadResult::kOk;
    case ContentLength::kMalformed:
      return HttpReadResult::kMalformed;
    case ContentLength::kOk:
      break;
  }
  if (length > max_body) return HttpReadResult::kTooLarge;
  if (!reader->ReadExact(length, &out->body)) {
    return reader->TimedOut() ? HttpReadResult::kTimeout
                              : HttpReadResult::kMalformed;
  }
  return HttpReadResult::kOk;
}

bool ReadChunk(SocketReader* reader, size_t max_chunk, std::string* chunk,
               bool* done) {
  chunk->clear();
  *done = false;
  std::string line;
  if (!reader->ReadLine(&line)) return false;
  size_t size = 0;
  // Chunk extensions (";...") are permitted by the RFC and stripped; the
  // size before them must be hex IN FULL ("ffzz" is malformed, not 255).
  if (!ParseChunkSize(line, &size)) return false;
  if (size > max_chunk) return false;
  if (size == 0) {
    // Terminal chunk; consume the final CRLF (no trailers in this protocol).
    if (!reader->ReadLine(&line) || !line.empty()) return false;
    *done = true;
    return true;
  }
  if (!reader->ReadExact(size, chunk)) return false;
  if (!reader->ReadLine(&line) || !line.empty()) return false;
  return true;
}

std::string SerializeRequest(const HttpRequest& request) {
  std::string out = request.method + " " + request.target + " HTTP/1.1\r\n";
  for (const auto& [name, value] : request.headers) {
    out += name + ": " + value + "\r\n";
  }
  if (!request.body.empty() || request.method == "POST") {
    out += "Content-Length: " + std::to_string(request.body.size()) + "\r\n";
  }
  out += "\r\n";
  out += request.body;
  return out;
}

std::string SerializeResponseHead(int status, std::string_view content_type,
                                  long content_length, bool keep_alive,
                                  const HttpHeaders& extra_headers) {
  std::string out = "HTTP/1.1 " + std::to_string(status) + " " +
                    ReasonPhrase(status) + "\r\n";
  out += "Content-Type: ";
  out += content_type;
  out += "\r\n";
  if (content_length >= 0) {
    out += "Content-Length: " + std::to_string(content_length) + "\r\n";
  } else {
    out += "Transfer-Encoding: chunked\r\n";
  }
  out += keep_alive ? "Connection: keep-alive\r\n" : "Connection: close\r\n";
  for (const auto& [name, value] : extra_headers) {
    out += name + ": " + value + "\r\n";
  }
  out += "\r\n";
  return out;
}

std::string ChunkFrame(std::string_view payload) {
  char size_line[32];
  std::snprintf(size_line, sizeof(size_line), "%zx\r\n", payload.size());
  std::string out = size_line;
  out += payload;
  out += "\r\n";
  if (payload.empty()) out = "0\r\n\r\n";
  return out;
}

const char* ReasonPhrase(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 413:
      return "Payload Too Large";
    case 422:
      return "Unprocessable Entity";
    case 499:
      return "Client Closed Request";
    case 500:
      return "Internal Server Error";
    case 503:
      return "Service Unavailable";
    case 504:
      return "Gateway Timeout";
    default:
      return "Unknown";
  }
}

// ---------------------------------------------------------------------------
// HttpRequestParser — incremental request parsing for the event loop.
// ---------------------------------------------------------------------------

void HttpRequestParser::Reset() {
  phase_ = Phase::kRequestLine;
  line_.clear();
  body_needed_ = 0;
  header_count_ = 0;
  request_ = HttpRequest{};
}

HttpParseStatus HttpRequestParser::ProcessLine() {
  // line_ holds one complete line, CRLF already stripped.
  switch (phase_) {
    case Phase::kRequestLine:
      if (!ParseRequestLine(line_, &request_)) {
        return HttpParseStatus::kMalformed;
      }
      phase_ = Phase::kHeaders;
      return HttpParseStatus::kNeedMore;
    case Phase::kHeaders: {
      if (!line_.empty()) {
        if (++header_count_ > 100 ||
            !ParseHeaderLine(line_, &request_.headers)) {
          return HttpParseStatus::kMalformed;
        }
        return HttpParseStatus::kNeedMore;
      }
      // Blank line: the head is complete — resolve the body framing with
      // the same strict rules as ReadHttpResponse.
      if (FindHeader(request_.headers, "Transfer-Encoding") != nullptr) {
        return HttpParseStatus::kMalformed;  // Requests never chunk to us.
      }
      switch (ContentLengthOf(request_.headers, &body_needed_)) {
        case ContentLength::kMalformed:
          return HttpParseStatus::kMalformed;
        case ContentLength::kAbsent:
          phase_ = Phase::kDone;
          return HttpParseStatus::kDone;
        case ContentLength::kOk:
          break;
      }
      if (body_needed_ > max_body_) return HttpParseStatus::kTooLarge;
      if (body_needed_ == 0) {
        phase_ = Phase::kDone;
        return HttpParseStatus::kDone;
      }
      request_.body.reserve(body_needed_);
      phase_ = Phase::kBody;
      return HttpParseStatus::kNeedMore;
    }
    case Phase::kBody:
    case Phase::kDone:
      break;  // Not line-driven.
  }
  return HttpParseStatus::kMalformed;
}

HttpParseStatus HttpRequestParser::Consume(std::string_view data,
                                           size_t* consumed) {
  *consumed = 0;
  while (true) {
    if (phase_ == Phase::kDone) return HttpParseStatus::kDone;
    if (phase_ == Phase::kBody) {
      const size_t want = body_needed_ - request_.body.size();
      const size_t take = std::min(want, data.size() - *consumed);
      request_.body.append(data.data() + *consumed, take);
      *consumed += take;
      if (request_.body.size() < body_needed_) {
        return HttpParseStatus::kNeedMore;
      }
      phase_ = Phase::kDone;
      return HttpParseStatus::kDone;
    }
    // Head phases are line-driven: accumulate up to the next LF.
    const size_t nl = data.find('\n', *consumed);
    if (nl == std::string_view::npos) {
      line_.append(data.data() + *consumed, data.size() - *consumed);
      *consumed = data.size();
      // A head line that never ends is a header bomb, not slow input.
      return line_.size() > max_line_ ? HttpParseStatus::kMalformed
                                      : HttpParseStatus::kNeedMore;
    }
    line_.append(data.data() + *consumed, nl - *consumed);
    *consumed = nl + 1;
    if (!line_.empty() && line_.back() == '\r') line_.pop_back();
    if (line_.size() > max_line_) return HttpParseStatus::kMalformed;
    const HttpParseStatus status = ProcessLine();
    line_.clear();
    if (status != HttpParseStatus::kNeedMore) return status;
  }
}

}  // namespace shapley::net
