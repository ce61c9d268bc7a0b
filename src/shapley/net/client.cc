#include "shapley/net/client.h"

#include <algorithm>
#include <chrono>
#include <stdexcept>
#include <thread>
#include <utility>

#include "shapley/approx/rng.h"

namespace shapley::net {

namespace {

/// A response (or one batch chunk) larger than this is a transport error.
constexpr size_t kMaxResponseBytes = 64 * 1024 * 1024;

/// Transport failures throw: there is no server response to hand back.
[[noreturn]] void ThrowTransport(const std::string& what) {
  throw std::runtime_error("ShapleyClient: " + what);
}

SvcResponse DecodeOrThrow(const std::string& body,
                          const std::shared_ptr<Schema>& schema) {
  std::string parse_error;
  std::optional<Json> json = Json::Parse(body, &parse_error);
  if (!json.has_value()) {
    ThrowTransport("undecodable response body: " + parse_error);
  }
  SvcResponse response;
  if (std::optional<SvcError> error =
          DecodeResponse(*json, schema, &response)) {
    ThrowTransport("malformed response: " + error->message);
  }
  return response;
}

}  // namespace

int ReconnectBackoff::DelayMs(size_t attempt) const {
  if (attempt == 0) return 0;
  // cap = min(base·2^(k−1), max), grown in uint64 so a large attempt
  // count cannot overflow past the cap.
  uint64_t cap = static_cast<uint64_t>(std::max(base_ms_, 1));
  const uint64_t max = static_cast<uint64_t>(std::max(max_ms_, 1));
  for (size_t k = 1; k < attempt && cap < max; ++k) cap *= 2;
  cap = std::min(cap, max);
  // Equal jitter: keep at least half the cap (a real pause) and draw the
  // rest from a SplitMix64 stream keyed by (seed, attempt) — pure, so the
  // schedule replays identically and is unit-testable.
  const uint64_t half = cap / 2;
  SplitMix64 rng(MixSeed(seed_, attempt));
  return static_cast<int>(half + rng.NextBelow(cap - half + 1));
}

ShapleyClient::ShapleyClient(std::string host, uint16_t port,
                             ClientOptions options)
    : host_(std::move(host)), port_(port), options_(options) {}

ShapleyClient::~ShapleyClient() = default;

bool ShapleyClient::EnsureConnected() {
  // Both halves must be live: the reader is loaned out (and not returned)
  // while a batch response streams, after which the connection restarts.
  if (socket_.valid() && reader_ != nullptr) return true;
  socket_.Close();
  reader_.reset();
  // Dial with the backoff schedule: a backend restarting (or a listen
  // queue momentarily full) deserves a few spaced attempts, not an
  // instant failure — but attempts are capped, so a DEAD backend still
  // fails in bounded time and the router can move on to a fallback shard.
  const ReconnectBackoff backoff(options_.base_backoff_ms,
                                 options_.max_backoff_ms, /*seed=*/0);
  const int attempts = std::max(options_.connect_attempts, 1);
  for (int attempt = 0; attempt < attempts; ++attempt) {
    const int delay = backoff.DelayMs(static_cast<size_t>(attempt));
    if (delay > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(delay));
    }
    std::string error;
    socket_ = ConnectTcp(host_, port_, &error);
    if (socket_.valid()) {
      reader_ = std::make_unique<SocketReader>(socket_.fd(),
                                               options_.read_timeout_ms);
      return true;
    }
  }
  return false;
}

HttpResponse ShapleyClient::RoundTrip(
    const std::string& method, const std::string& target,
    const std::string& body, bool* chunked,
    std::unique_ptr<SocketReader>* reader_out) {
  HttpRequest request;
  request.method = method;
  request.target = target;
  request.headers = {{"Host", host_ + ":" + std::to_string(port_)},
                     {"Accept", "application/json"}};
  if (method == "POST") {
    request.headers.emplace_back("Content-Type", "application/json");
  }
  request.body = body;
  const std::string wire = SerializeRequest(request);

  // One transparent retry: a keep-alive peer may have closed the idle
  // connection since the last call — that is not an error, just reconnect.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const bool fresh = !socket_.valid();
    if (!EnsureConnected()) {
      ThrowTransport("cannot connect to " + host_ + ":" +
                     std::to_string(port_));
    }
    if (!socket_.SendAll(wire)) {
      socket_.Close();
      reader_.reset();
      if (fresh) ThrowTransport("send failed on a fresh connection");
      continue;
    }
    HttpResponse response;
    const HttpReadResult result = ReadHttpResponse(
        reader_.get(), kMaxResponseBytes, &response, chunked);
    if (result == HttpReadResult::kOk) {
      const std::string* connection =
          FindHeader(response.headers, "Connection");
      const bool server_closes =
          connection != nullptr && *connection == "close";
      if (reader_out != nullptr) {
        *reader_out = std::move(reader_);  // Chunk streaming borrows it.
        if (server_closes) socket_.Close();
      } else if (server_closes || *chunked) {
        socket_.Close();
        reader_.reset();
      }
      return response;
    }
    socket_.Close();
    reader_.reset();
    if (result == HttpReadResult::kClosed && !fresh) continue;
    if (result == HttpReadResult::kTimeout) {
      ThrowTransport("read timeout after " +
                     std::to_string(options_.read_timeout_ms) + " ms");
    }
    if (result == HttpReadResult::kTooLarge) {
      ThrowTransport("response beyond the client limit of " +
                     std::to_string(kMaxResponseBytes) + " bytes");
    }
    ThrowTransport("connection failed mid-response");
  }
  ThrowTransport("server closed the connection twice in a row");
}

SvcResponse ShapleyClient::Compute(const SvcRequest& request) {
  const std::shared_ptr<Schema> schema = request.db.schema();
  const std::string body = EncodeRequest(request).Dump();
  bool chunked = false;
  HttpResponse http =
      RoundTrip("POST", "/v1/compute", body, &chunked, nullptr);
  if (chunked) ThrowTransport("/v1/compute answered with a chunked body");
  last_status_ = http.status;
  return DecodeOrThrow(http.body, schema);
}

std::vector<SvcResponse> ShapleyClient::ComputeBatch(
    const std::vector<SvcRequest>& requests) {
  Json batch_array = Json::Arr();
  for (const SvcRequest& request : requests) {
    batch_array.Push(EncodeRequest(request));
  }
  Json batch;
  batch.Set("requests", std::move(batch_array));

  bool chunked = false;
  std::unique_ptr<SocketReader> reader;
  HttpResponse http =
      RoundTrip("POST", "/v1/batch", batch.Dump(), &chunked, &reader);
  last_status_ = http.status;
  if (!chunked) {
    // Whole-batch refusals (bad envelope JSON) come back unchunked; raise
    // the structured message — there are no per-request responses to give.
    auto schema = Schema::Create();
    SvcResponse error = DecodeOrThrow(http.body, schema);
    ThrowTransport("batch refused: " + (error.error.has_value()
                                            ? error.error->message
                                            : http.body));
  }

  // However streaming ends — cleanly or by throw — the connection has
  // protocol state we will not resync; drop it so the next call redials.
  struct ConnectionDropper {
    Socket* socket;
    ~ConnectionDropper() { socket->Close(); }
  } dropper{&socket_};

  // Reassemble completion-order lines into input order via the id tags.
  std::vector<SvcResponse> responses(requests.size());
  std::vector<bool> seen(requests.size(), false);
  std::string pending;  // ndjson lines may straddle chunk boundaries.
  bool done = false;
  std::string chunk;
  while (!done) {
    if (!ReadChunk(reader.get(), kMaxResponseBytes, &chunk, &done)) {
      ThrowTransport("batch stream died mid-way");
    }
    pending += chunk;
    size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      const std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line.empty()) continue;
      std::string parse_error;
      std::optional<Json> json = Json::Parse(line, &parse_error);
      if (!json.has_value()) {
        ThrowTransport("undecodable batch line: " + parse_error);
      }
      const Json* id_json = json->Find("id");
      std::optional<uint64_t> id =
          id_json != nullptr ? id_json->IfUint64() : std::nullopt;
      if (!id.has_value() || *id >= requests.size()) {
        ThrowTransport("batch line with a bad id");
      }
      // Strip the tag and decode with the matching request's schema.
      Json untagged;
      for (const auto& [key, value] : *json->IfObject()) {
        if (key != "id") untagged.Set(key, value);
      }
      SvcResponse response;
      if (std::optional<SvcError> error = DecodeResponse(
              untagged, requests[*id].db.schema(), &response)) {
        ThrowTransport("malformed batch response: " + error->message);
      }
      responses[*id] = std::move(response);
      seen[*id] = true;
    }
  }
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!seen[i]) {
      ThrowTransport("batch stream ended without response " +
                     std::to_string(i));
    }
  }
  return responses;
}

Json ShapleyClient::Engines() {
  bool chunked = false;
  HttpResponse http = RoundTrip("GET", "/v1/engines", "", &chunked, nullptr);
  last_status_ = http.status;
  std::string parse_error;
  std::optional<Json> json = Json::Parse(http.body, &parse_error);
  if (!json.has_value()) ThrowTransport("bad /v1/engines body: " + parse_error);
  return *json;
}

Json ShapleyClient::Stats() {
  bool chunked = false;
  HttpResponse http = RoundTrip("GET", "/v1/stats", "", &chunked, nullptr);
  last_status_ = http.status;
  std::string parse_error;
  std::optional<Json> json = Json::Parse(http.body, &parse_error);
  if (!json.has_value()) ThrowTransport("bad /v1/stats body: " + parse_error);
  return *json;
}

std::string ShapleyClient::RawCompute(const std::string& body, int* status) {
  bool chunked = false;
  HttpResponse http =
      RoundTrip("POST", "/v1/compute", body, &chunked, nullptr);
  if (chunked) ThrowTransport("/v1/compute answered with a chunked body");
  last_status_ = http.status;
  if (status != nullptr) *status = http.status;
  return std::move(http.body);
}

void ShapleyClient::RawBatch(
    const std::string& body,
    const std::function<void(const std::string& line)>& on_line) {
  bool chunked = false;
  std::unique_ptr<SocketReader> reader;
  HttpResponse http = RoundTrip("POST", "/v1/batch", body, &chunked, &reader);
  last_status_ = http.status;
  if (!chunked) {
    ThrowTransport("batch refused: " + http.body);
  }

  // However streaming ends — cleanly or by throw — the connection has
  // protocol state we will not resync; drop it so the next call redials.
  struct ConnectionDropper {
    Socket* socket;
    ~ConnectionDropper() { socket->Close(); }
  } dropper{&socket_};

  std::string pending;  // ndjson lines may straddle chunk boundaries.
  bool done = false;
  std::string chunk;
  while (!done) {
    if (!ReadChunk(reader.get(), kMaxResponseBytes, &chunk, &done)) {
      ThrowTransport("batch stream died mid-way");
    }
    pending += chunk;
    size_t nl;
    while ((nl = pending.find('\n')) != std::string::npos) {
      std::string line = pending.substr(0, nl);
      pending.erase(0, nl + 1);
      if (line.empty()) continue;
      on_line(line);
    }
  }
}

std::string ShapleyClient::RawGet(const std::string& target, int* status) {
  bool chunked = false;
  HttpResponse http = RoundTrip("GET", target, "", &chunked, nullptr);
  if (chunked) ThrowTransport(target + " answered with a chunked body");
  last_status_ = http.status;
  if (status != nullptr) *status = http.status;
  return std::move(http.body);
}

}  // namespace shapley::net
