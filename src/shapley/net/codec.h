#ifndef SHAPLEY_NET_CODEC_H_
#define SHAPLEY_NET_CODEC_H_

#include <chrono>
#include <memory>
#include <optional>
#include <string>

#include "shapley/data/schema.h"
#include "shapley/net/json.h"
#include "shapley/service/request.h"

namespace shapley::net {

/// The ONE canonical wire format of the serving stack: SvcRequest and
/// SvcResponse to/from JSON. The CLI's --json output, the HTTP server, the
/// client library and the benches all go through these four functions, so
/// a value has exactly one serialized form everywhere.
///
/// Request wire shape (top-level unknown fields are REJECTED — a typo like
/// "epsilonn" must fail loudly, not silently run with defaults):
///
///   {
///     "query": "R(?x), S(?x,?y), !T(?y)",          // CLI query syntax
///     "database": {"endogenous": ["R(a)", ...],    // CLI fact syntax
///                  "exogenous":  ["T(b)", ...]},
///     "mode": "all-values" | "max-value" | "top-k" | "classify-only",
///     "top_k": 3,                                   // optional
///     "engine": "lifted",                           // optional override
///     "allow_approx": true,                         // optional
///     "approx": {"epsilon": 0.05, "delta": 0.05,    // optional
///                "seed": 1, "max_samples": 0,
///                "strategy": "hoeffding"},
///     "timeout_ms": 500,                            // optional, relative
///     "trace": true                                 // optional, opt-in
///       // — or, cluster-propagated, the trace CONTEXT the sender wants
///       // this request recorded under (the shard router stamps one on
///       // every traced request it forwards, so backend subtrees graft
///       // into ONE cluster-wide tree):
///     "trace": {"trace_id": "<32 hex>", "parent_span": "<16 hex>"}
///   }
///
/// Queries are carried as parser text with every term prefix made explicit
/// ('?' variable, '$' constant), so the encoding is independent of the
/// u–z naming convention and always re-parses to the same query.
/// Deadlines cross the wire as a RELATIVE timeout_ms (an absolute
/// steady_clock point is meaningless in another process); the decoder
/// re-anchors it at the request's arrival, so time a served request spent
/// waiting for a pool worker counts against its budget. Cancel tokens and
/// trace recorders are process-local by nature and never serialize.
///
/// Response wire shape (values as exact "p/q" strings — BigRational
/// round-trips bit-identically; "approx_value" is a display convenience):
///
///   {
///     "mode": "...", "status": 200,
///     "verdict": {"tractability": "FP", "query_class": "...",
///                 "justification": "...", "fgmc_svc_equivalent": true},
///     "engine": "lifted", "routed_by_classifier": true,
///     "values": [{"fact": "R(a)", "value": "1/3",
///                 "approx_value": 0.33333...}, ...],
///     "ranked": [...],                              // max-value / top-k
///     "approx": {... ApproxInfo but memo_hits ...}, // only on estimates
///     "error": {"code": "capacity-exceeded", "status": 413,
///               "message": "...", "engine": ""},    // only on failure
///     "trace": {"trace_id": "<32 hex>",             // only when requested
///               "root": {"name": "backend", "start_ms": 0, "ms": ...,
///                        "attrs": {"k": "v", ...},  // omitted when empty
///                        "children": [{...}, ...]}},// omitted when empty
///     "stats": {"queue_ms": ..., "exec_ms": ...,
///               "memo_hits": ...}       // memo_hits only on estimates
///   }
///
/// "approx" carries the certified estimate contract only: everything in it
/// is a function of (request bytes, seed). ApproxInfo::memo_hits counts
/// SatMemo cache hits, which depend on what the process computed before,
/// so it rides in "stats" with the timings.
///
/// The trace block is a SPAN TREE (obs/trace.h): start_ms is the offset
/// from the parent span's start, so child spans nest within their parent's
/// [start, end) by construction and a router can graft a backend's tree
/// under its hop span without comparing clocks across processes.
///
/// FORWARD COMPATIBILITY: the two decode paths deliberately differ.
/// DecodeRequest stays STRICT (unknown fields are rejected — a client typo
/// must fail loudly). DecodeResponse IGNORES unknown fields at every level
/// (top level, verdict, approx, error, stats, values[]): a response comes
/// from a trusted server, and an older client — or the shard router
/// proxying for one — must tolerate fields a newer backend adds. The
/// router additionally forwards response bodies verbatim (raw bytes, not
/// decode→re-encode), so unknown fields survive the proxy hop unchanged.

/// HTTP-style status for a structured error code — the mapping the README
/// documents and the server sends:
///   invalid-request    → 400   unsupported-query  → 422
///   capacity-exceeded  → 413   deadline-exceeded  → 504
///   cancelled          → 499   engine-failure     → 500
///   upstream-unavailable → 503
/// (ok → 200.)
int HttpStatusFor(SvcErrorCode code);

/// Inverse of ToString(SvcErrorCode); nullopt for unknown names.
std::optional<SvcErrorCode> ParseSvcErrorCode(const std::string& name);

/// Inverse of ToString(SvcMode); nullopt for unknown names.
std::optional<SvcMode> ParseSvcMode(const std::string& name);

/// Canonical parser-ready text of a CQ or UCQ (the classes the wire — and
/// the CLI — speak); nullopt for query classes without a textual syntax
/// (path queries, conjunction nodes, ...).
std::optional<std::string> CanonicalQueryText(const BooleanQuery& query);

/// Encodes a request. Throws SvcException(kInvalidRequest) when the query
/// has no canonical text (see CanonicalQueryText) — a request that cannot
/// cross the wire must fail at the sender, loudly.
Json EncodeRequest(const SvcRequest& request);

/// A decoded request plus the schema its facts/atoms were interned into
/// (fresh per decode: the wire is the only coupling between processes).
struct DecodedRequest {
  SvcRequest request;
  std::shared_ptr<Schema> schema;
};

/// Decodes a request; on any malformed input (bad JSON types, unknown
/// fields, unparsable query/fact text, bad mode/strategy names) returns a
/// structured kInvalidRequest instead of throwing — the server maps it
/// straight to a 400 response. `out` is valid only on nullopt.
std::optional<SvcError> DecodeRequest(
    const Json& json, DecodedRequest* out,
    std::chrono::steady_clock::time_point arrival =
        std::chrono::steady_clock::now());

/// Encodes a response; `schema` renders the facts.
Json EncodeResponse(const SvcResponse& response, const Schema& schema);

/// Decodes a response, interning facts into `schema` (use the schema the
/// request was built against so Fact keys compare equal to local results).
/// Malformed input yields kInvalidRequest; `out` is valid only on nullopt.
std::optional<SvcError> DecodeResponse(const Json& json,
                                       const std::shared_ptr<Schema>& schema,
                                       SvcResponse* out);

/// One span subtree as wire JSON ({"name", "start_ms", "ms", "attrs"?,
/// "children"?}).
Json EncodeTraceSpan(const obs::TraceSpan& span);

/// The full response "trace" block ({"trace_id"?, "root"}). trace_id is
/// emitted only for a valid (non-zero) context.
Json EncodeTrace(const obs::RequestTrace& trace);

/// Inverse of EncodeTraceSpan, response-tolerant: unknown members are
/// ignored, known members keep strict types, "name" is required (a
/// nameless span is corruption, not evolution). False on malformed input.
bool DecodeTraceSpan(const Json& json, obs::TraceSpan* out);

/// Inverse of EncodeTrace; nullopt on malformed input.
std::optional<obs::RequestTrace> DecodeTrace(const Json& trace_json);

/// Installs (or replaces) the "trace" block of an ALREADY-ENCODED
/// response, in place. This exists because only the server can measure
/// spans around EncodeResponse itself ("encode"), and because the router
/// replaces a backend's block with the grafted cluster-wide tree.
void SetTraceBlock(Json* encoded_response, const obs::RequestTrace& trace);

/// Rewrites the "trace" member of an ALREADY-ENCODED request to the
/// cluster-propagation OBJECT form carrying `context` (adding the member
/// if absent) — how the router stamps its identity onto a traced request
/// before forwarding. Untraced requests are never patched: the router
/// forwards their bytes verbatim.
void SetRequestTraceContext(Json* encoded_request,
                            const obs::TraceContext& context);

}  // namespace shapley::net

#endif  // SHAPLEY_NET_CODEC_H_
