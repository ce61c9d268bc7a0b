#ifndef SHAPLEY_NET_CLIENT_H_
#define SHAPLEY_NET_CLIENT_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "shapley/net/codec.h"
#include "shapley/net/http.h"
#include "shapley/net/json.h"
#include "shapley/service/request.h"

namespace shapley::net {

struct ClientOptions {
  /// Per-read timeout. Generous by default: an exact engine may legitimately
  /// think for a while before the response starts.
  int read_timeout_ms = 60'000;
  /// Dial attempts per EnsureConnected (≥ 1). The first attempt is
  /// immediate; each later one waits out ReconnectBackoff::DelayMs first.
  int connect_attempts = 4;
  /// Backoff schedule (see ReconnectBackoff): attempt k ≥ 1 waits a
  /// jittered delay in [cap/2, cap] with cap = min(base·2^(k−1), max).
  int base_backoff_ms = 10;
  int max_backoff_ms = 250;
};

/// The client's reconnect schedule: capped exponential backoff with
/// deterministic equal-jitter. DelayMs(0) is 0 (first dial is free);
/// DelayMs(k) for k ≥ 1 is drawn from [cap/2, cap], cap =
/// min(base·2^(k−1), max), with the draw a pure SplitMix64 function of
/// (seed, k) — the same seed replays the same schedule bit for bit, and
/// distinct seeds decorrelate, so a fleet of clients losing one backend
/// does not thundering-herd its replacement.
class ReconnectBackoff {
 public:
  ReconnectBackoff(int base_ms, int max_ms, uint64_t seed)
      : base_ms_(base_ms), max_ms_(max_ms), seed_(seed) {}

  int DelayMs(size_t attempt) const;

 private:
  int base_ms_;
  int max_ms_;
  uint64_t seed_;
};

/// Blocking HTTP client for the Shapley network front — the library the
/// CLI's `call` command, the tests and the throughput bench talk through.
/// One client = one keep-alive connection, re-established transparently
/// when the server closed it between calls. Not thread-safe; use one
/// client per thread (the load generator does exactly that).
///
/// Error discipline mirrors the service: anything the SERVER answered —
/// including 4xx/5xx — decodes into the returned SvcResponse (the
/// structured SvcError is inside, exactly as the in-process API returns
/// it). Only TRANSPORT failures (connect refused, connection died
/// mid-message, undecodable payload) throw std::runtime_error: there is no
/// response to return, truthfully, in those cases.
class ShapleyClient {
 public:
  ShapleyClient(std::string host, uint16_t port, ClientOptions options = {});
  ~ShapleyClient();

  ShapleyClient(const ShapleyClient&) = delete;
  ShapleyClient& operator=(const ShapleyClient&) = delete;

  /// POST /v1/compute. The request's query/database are serialized through
  /// net/codec; the response's facts are re-interned into the request's
  /// own schema, so returned Fact keys compare equal to local ones.
  SvcResponse Compute(const SvcRequest& request);

  /// POST /v1/batch: all requests in one round-trip; the server streams
  /// results in completion order and this call reassembles them into INPUT
  /// order before returning (the id tags carry the correspondence).
  std::vector<SvcResponse> ComputeBatch(
      const std::vector<SvcRequest>& requests);

  /// GET /v1/engines and /v1/stats, as parsed JSON.
  Json Engines();
  Json Stats();

  /// Raw proxy surface — the shard router's path. Bodies cross VERBATIM in
  /// both directions (no decode→re-encode round trip), so fields this
  /// build does not know about survive the hop unchanged.

  /// POST /v1/compute with `body` as-is; returns the raw response body and
  /// sets *status to the HTTP status.
  std::string RawCompute(const std::string& body, int* status);

  /// POST /v1/batch with `body` as-is; `on_line` receives each ndjson line
  /// verbatim (without its trailing newline) as it streams in. Throws
  /// std::runtime_error on transport failure — possibly after some lines
  /// were already delivered; the caller tracks which ids it has seen.
  void RawBatch(const std::string& body,
                const std::function<void(const std::string& line)>& on_line);

  /// GET `target` (e.g. "/v1/stats", "/healthz") as-is; returns the raw
  /// response body and sets *status.
  std::string RawGet(const std::string& target, int* status);

  /// The HTTP status of the last Compute/Engines/Stats call (batch: 200).
  int last_status() const { return last_status_; }

 private:
  /// One request/response exchange, reconnecting once if the keep-alive
  /// connection had gone away. Returns the raw body.
  HttpResponse RoundTrip(const std::string& method, const std::string& target,
                         const std::string& body, bool* chunked,
                         std::unique_ptr<SocketReader>* reader_out);
  bool EnsureConnected();
  /// RawGet of `target`, parsed; throws when the body is not JSON.
  Json GetJson(const std::string& target);

  const std::string host_;
  const uint16_t port_;
  const ClientOptions options_;
  Socket socket_;
  std::unique_ptr<SocketReader> reader_;
  int last_status_ = 0;
};

}  // namespace shapley::net

#endif  // SHAPLEY_NET_CLIENT_H_
