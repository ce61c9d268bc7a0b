// The wire protocol's contract, pinned down:
//
//  (a) ROUND-TRIPS: every SvcRequest mode, every sampling strategy and
//      every SvcError code survives encode → decode → encode with the
//      FIRST and SECOND encodings byte-identical (the encoding is a
//      canonical fixpoint), and decoded values (exact BigRationals
//      included) compare equal bit for bit;
//  (b) REJECTION: malformed input — truncated bodies, bad JSON, unknown
//      fields, wrong types, bad query/fact text, depth bombs — yields a
//      structured kInvalidRequest, never a crash or a silently-defaulted
//      request;
//  (c) the SvcErrorCode → HTTP status mapping is exactly the documented
//      table.

#include "shapley/net/codec.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/net/json.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace shapley {
namespace {

using net::DecodedRequest;
using net::Json;

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema, const char* text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

/// encode → dump → parse → decode → encode must be a fixpoint, and the
/// decoded request must agree with the original on every wire-visible
/// field. Returns the decoded request for further inspection.
DecodedRequest RoundTrip(const SvcRequest& request) {
  const Json encoded = net::EncodeRequest(request);
  const std::string wire = encoded.Dump();

  std::string parse_error;
  std::optional<Json> parsed = Json::Parse(wire, &parse_error);
  EXPECT_TRUE(parsed.has_value()) << parse_error;

  DecodedRequest decoded;
  std::optional<SvcError> error = net::DecodeRequest(*parsed, &decoded);
  EXPECT_FALSE(error.has_value()) << error->ToString();

  const std::string rewire = net::EncodeRequest(decoded.request).Dump();
  EXPECT_EQ(wire, rewire) << "encoding is not canonical";

  EXPECT_EQ(decoded.request.mode, request.mode);
  EXPECT_EQ(decoded.request.engine, request.engine);
  EXPECT_EQ(decoded.request.allow_approx, request.allow_approx);
  EXPECT_EQ(decoded.request.approx.epsilon, request.approx.epsilon);
  EXPECT_EQ(decoded.request.approx.delta, request.approx.delta);
  EXPECT_EQ(decoded.request.approx.seed, request.approx.seed);
  EXPECT_EQ(decoded.request.approx.max_samples, request.approx.max_samples);
  EXPECT_EQ(decoded.request.approx.strategy, request.approx.strategy);
  if (request.mode == SvcMode::kTopK) {
    EXPECT_EQ(decoded.request.top_k, request.top_k);
  }
  // The databases agree fact for fact (rendered through their own schemas;
  // the schemas are distinct interners but the names must match).
  const auto render = [](const PartitionedDatabase& db) {
    std::vector<std::string> out;
    for (const Fact& fact : db.endogenous().facts()) {
      out.push_back(fact.ToString(*db.schema()));
    }
    out.push_back("|");
    for (const Fact& fact : db.exogenous().facts()) {
      out.push_back(fact.ToString(*db.schema()));
    }
    return out;
  };
  EXPECT_EQ(render(decoded.request.db), render(request.db));
  return decoded;
}

TEST(CodecTest, EveryModeRoundTripsCanonically) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b) | S(a,c)");
  for (SvcMode mode : {SvcMode::kAllValues, SvcMode::kMaxValue,
                       SvcMode::kTopK, SvcMode::kClassifyOnly}) {
    SCOPED_TRACE(ToString(mode));
    request.mode = mode;
    request.top_k = 5;
    RoundTrip(request);
  }
}

TEST(CodecTest, EveryStrategyAndOverrideRoundTrips) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b)");
  request.allow_approx = true;
  request.approx.epsilon = 0.037;   // Not a round float: exercises the
  request.approx.delta = 1e-3;      // shortest-round-trip number path.
  request.approx.seed = 0xDEADBEEFCAFEBABEull;  // Needs full uint64 range.
  request.approx.max_samples = 123456789;
  for (ApproxStrategy strategy :
       {ApproxStrategy::kHoeffding, ApproxStrategy::kBernstein,
        ApproxStrategy::kStratified}) {
    SCOPED_TRACE(ToString(strategy));
    request.approx.strategy = strategy;
    for (const char* engine : {"", "sampling", "brute", "lifted"}) {
      request.engine = engine;
      DecodedRequest decoded = RoundTrip(request);
      EXPECT_EQ(decoded.request.approx.seed, 0xDEADBEEFCAFEBABEull);
    }
  }
}

TEST(CodecTest, UnionAndForcedPrefixQueriesSurviveTheWire) {
  auto schema = Schema::Create();
  SvcRequest request;
  // A constant named like a variable ('$x') and a variable named like a
  // constant ('?a'): only the explicit-prefix canonical text keeps these
  // straight across the wire.
  request.query = ParseQuery(schema, "R($x, y), S(y) | T(?a), R(b, ?a)");
  request.db = ParsePartitionedDatabase(schema, "R(x,c) S(c) T(d) R(b,d)");
  DecodedRequest decoded = RoundTrip(request);
  // Evaluating both queries on the decoded database agrees — the semantic
  // check that the prefixes preserved term kinds.
  EXPECT_EQ(request.query->Evaluate(request.db.AllFacts()),
            decoded.request.query->Evaluate(decoded.request.db.AllFacts()));
}

TEST(CodecTest, TimeoutCrossesTheWireAsARelativeBudget) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x)");
  request.db = ParsePartitionedDatabase(schema, "R(a)");
  request.WithTimeout(std::chrono::milliseconds(5000));

  const Json encoded = net::EncodeRequest(request);
  const Json* timeout = encoded.Find("timeout_ms");
  ASSERT_NE(timeout, nullptr);
  ASSERT_TRUE(timeout->IfUint64().has_value());
  EXPECT_LE(*timeout->IfUint64(), 5000u);
  EXPECT_GE(*timeout->IfUint64(), 4000u);  // Encoding is not that slow.

  DecodedRequest decoded;
  ASSERT_FALSE(net::DecodeRequest(encoded, &decoded).has_value());
  ASSERT_TRUE(decoded.request.deadline.has_value());
  EXPECT_GT(*decoded.request.deadline, std::chrono::steady_clock::now());
}

TEST(CodecTest, ResponsesRoundTripBitIdentically) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b) S(a,c) | T(c)");
  ShapleyService service(ServiceOptions{.threads = 1});

  // One exact response, one estimated (full ApproxInfo vectors on the
  // wire), one ranked.
  std::vector<SvcRequest> requests(3);
  for (SvcRequest& request : requests) {
    request.query = query;
    request.db = db;
  }
  requests[1].engine = "sampling";
  requests[1].approx.seed = 7;
  requests[2].mode = SvcMode::kTopK;
  requests[2].top_k = 2;

  for (SvcRequest& request : requests) {
    SvcResponse response = service.Compute(request);
    ASSERT_TRUE(response.ok()) << response.error->ToString();

    const std::string wire = net::EncodeResponse(response, *schema).Dump();
    std::optional<Json> parsed = Json::Parse(wire);
    ASSERT_TRUE(parsed.has_value());
    SvcResponse decoded;
    std::optional<SvcError> error =
        net::DecodeResponse(*parsed, schema, &decoded);
    ASSERT_FALSE(error.has_value()) << error->ToString();

    // Byte-identical re-encoding, bit-identical payload.
    EXPECT_EQ(net::EncodeResponse(decoded, *schema).Dump(), wire);
    EXPECT_EQ(decoded.mode, response.mode);
    EXPECT_EQ(decoded.values, response.values);
    EXPECT_EQ(decoded.ranked, response.ranked);
    EXPECT_EQ(decoded.engine, response.engine);
    EXPECT_EQ(decoded.routed_by_classifier, response.routed_by_classifier);
    EXPECT_EQ(decoded.verdict.tractability, response.verdict.tractability);
    EXPECT_EQ(decoded.verdict.query_class, response.verdict.query_class);
    EXPECT_EQ(decoded.verdict.fgmc_svc_equivalent,
              response.verdict.fgmc_svc_equivalent);
    ASSERT_EQ(decoded.approx.has_value(), response.approx.has_value());
    if (response.approx.has_value()) {
      EXPECT_EQ(decoded.approx->samples, response.approx->samples);
      EXPECT_EQ(decoded.approx->seed, response.approx->seed);
      EXPECT_EQ(decoded.approx->half_width, response.approx->half_width);
      EXPECT_EQ(decoded.approx->strategy, response.approx->strategy);
      EXPECT_EQ(decoded.approx->fact_ranges, response.approx->fact_ranges);
      EXPECT_EQ(decoded.approx->fact_samples, response.approx->fact_samples);
      EXPECT_EQ(decoded.approx->fact_half_widths,
                response.approx->fact_half_widths);
      // memo_hits is cache telemetry: it rides in "stats", never among the
      // certified "approx" fields.
      EXPECT_EQ(decoded.approx->memo_hits, response.approx->memo_hits);
      EXPECT_EQ(parsed->Find("approx")->Find("memo_hits"), nullptr);
      const Json* memo_hits = parsed->Find("stats")->Find("memo_hits");
      ASSERT_NE(memo_hits, nullptr);
      EXPECT_EQ(memo_hits->IfUint64().value_or(~uint64_t{0}),
                uint64_t{response.approx->memo_hits});
    } else {
      EXPECT_EQ(parsed->Find("stats")->Find("memo_hits"), nullptr);
    }
  }
}

TEST(CodecTest, EveryErrorCodeRoundTripsWithItsDocumentedStatus) {
  const std::vector<std::pair<SvcErrorCode, int>> table = {
      {SvcErrorCode::kInvalidRequest, 400},
      {SvcErrorCode::kCapacityExceeded, 413},
      {SvcErrorCode::kUnsupportedQuery, 422},
      {SvcErrorCode::kCancelled, 499},
      {SvcErrorCode::kEngineFailure, 500},
      {SvcErrorCode::kUpstreamUnavailable, 503},
      {SvcErrorCode::kRequestTimeout, 408},
      {SvcErrorCode::kDeadlineExceeded, 504},
  };
  auto schema = Schema::Create();
  for (const auto& [code, status] : table) {
    SCOPED_TRACE(ToString(code));
    EXPECT_EQ(net::HttpStatusFor(code), status);
    EXPECT_EQ(net::ParseSvcErrorCode(ToString(code)), code);

    SvcResponse response;
    response.error = SvcError{code, "the message", "the-engine"};
    const std::string wire = net::EncodeResponse(response, *schema).Dump();
    std::optional<Json> parsed = Json::Parse(wire);
    ASSERT_TRUE(parsed.has_value());
    // The wire carries the status next to the code.
    EXPECT_EQ(parsed->Find("error")->Find("status")->IfInt64(), status);
    SvcResponse decoded;
    ASSERT_FALSE(net::DecodeResponse(*parsed, schema, &decoded).has_value());
    ASSERT_TRUE(decoded.error.has_value());
    EXPECT_EQ(decoded.error->code, code);
    EXPECT_EQ(decoded.error->message, "the message");
    EXPECT_EQ(decoded.error->engine, "the-engine");
    EXPECT_EQ(net::EncodeResponse(decoded, *schema).Dump(), wire);
  }
  EXPECT_FALSE(net::ParseSvcErrorCode("no-such-code").has_value());
}

// ---------------------------------------------------- forward compat -----

/// Splices `extra` right after the first occurrence of `marker` — the
/// cheap way to plant an unknown member inside one specific JSON object
/// of an otherwise canonical wire body.
std::string InsertAfter(std::string wire, const std::string& marker,
                        const std::string& extra) {
  const size_t at = wire.find(marker);
  EXPECT_NE(at, std::string::npos) << marker;
  wire.insert(at + marker.size(), extra);
  return wire;
}

/// DecodeResponse must IGNORE unknown fields (a newer server, or a newer
/// backend behind the shard router, may annotate responses), while known
/// fields keep their strict types — so a decorated body decodes to the
/// same SvcResponse as the clean one.
TEST(CodecTest, ResponseDecodeToleratesUnknownFieldsAtEveryLevel) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  request.db = ParsePartitionedDatabase(schema, "R(a) S(a,b) T(b) | T(c)");
  request.engine = "sampling";  // → values, approx, stats all populated.
  request.approx.seed = 7;
  ShapleyService service(ServiceOptions{.threads = 1});
  SvcResponse response = service.Compute(request);
  ASSERT_TRUE(response.ok()) << response.error->ToString();
  const std::string wire = net::EncodeResponse(response, *schema).Dump();

  SvcResponse clean;
  ASSERT_FALSE(
      net::DecodeResponse(*Json::Parse(wire), schema, &clean).has_value());

  // One unknown member planted in every nesting level the decoder walks.
  std::string decorated = wire;
  decorated = InsertAfter(decorated, "{", R"("x_future":{"deep":[1,2]},)");
  decorated = InsertAfter(decorated, "\"verdict\":{", R"("hint":null,)");
  decorated = InsertAfter(decorated, "\"approx\":{", R"("gpu_ms":3.5,)");
  decorated = InsertAfter(decorated, "\"stats\":{", R"("retries":0,)");
  decorated = InsertAfter(decorated, "\"values\":[{", R"("note":"hi",)");
  ASSERT_TRUE(Json::Parse(decorated).has_value()) << decorated;

  SvcResponse tolerant;
  std::optional<SvcError> error =
      net::DecodeResponse(*Json::Parse(decorated), schema, &tolerant);
  ASSERT_FALSE(error.has_value()) << error->ToString();
  EXPECT_EQ(tolerant.values, clean.values);
  EXPECT_EQ(tolerant.engine, clean.engine);
  EXPECT_EQ(tolerant.verdict.query_class, clean.verdict.query_class);
  ASSERT_TRUE(tolerant.approx.has_value());
  EXPECT_EQ(tolerant.approx->samples, clean.approx->samples);
  EXPECT_EQ(tolerant.approx->fact_half_widths,
            clean.approx->fact_half_widths);

  // The error object tolerates decoration too.
  SvcResponse failed;
  failed.error = SvcError{SvcErrorCode::kUpstreamUnavailable, "down", ""};
  const std::string error_wire = InsertAfter(
      net::EncodeResponse(failed, *schema).Dump(), "\"error\":{",
      R"("upstream":"h1:9","attempts":2,)");
  SvcResponse decoded_failed;
  ASSERT_FALSE(net::DecodeResponse(*Json::Parse(error_wire), schema,
                                   &decoded_failed)
                   .has_value());
  ASSERT_TRUE(decoded_failed.error.has_value());
  EXPECT_EQ(decoded_failed.error->code, SvcErrorCode::kUpstreamUnavailable);
  EXPECT_EQ(decoded_failed.error->message, "down");

  // Tolerance is NOT sloppiness: known fields keep their strict types. The
  // approx block's own sample count is retyped in place (a second
  // "samples" key would be a duplicate, which the parser rejects first).
  std::string retyped = wire;
  const std::string samples_key = "\"samples\":";
  const size_t approx_at = retyped.find("\"approx\":{");
  ASSERT_NE(approx_at, std::string::npos);
  const size_t samples_at = retyped.find(samples_key, approx_at);
  ASSERT_NE(samples_at, std::string::npos);
  const size_t value_at = samples_at + samples_key.size();
  retyped.replace(value_at, retyped.find_first_of(",}", value_at) - value_at,
                  "\"many\"");
  std::optional<Json> retyped_json = Json::Parse(retyped);
  ASSERT_TRUE(retyped_json.has_value()) << retyped;
  SvcResponse rejected;
  EXPECT_TRUE(
      net::DecodeResponse(*retyped_json, schema, &rejected).has_value());
}

/// The REQUEST path stays strict: the same decoration that responses
/// shrug off is a client typo there and must fail loudly.
TEST(CodecTest, RequestDecodeStaysStrictAboutUnknownFields) {
  auto schema = Schema::Create();
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x)");
  request.db = ParsePartitionedDatabase(schema, "R(a)");
  const std::string wire = net::EncodeRequest(request).Dump();

  DecodedRequest decoded;
  ASSERT_FALSE(
      net::DecodeRequest(*Json::Parse(wire), &decoded).has_value());
  std::optional<SvcError> error = net::DecodeRequest(
      *Json::Parse(InsertAfter(wire, "{", R"("x_future":1,)")), &decoded);
  ASSERT_TRUE(error.has_value());
  EXPECT_EQ(error->code, SvcErrorCode::kInvalidRequest);
}

// ------------------------------------------------------------- rejection --

/// Decode must fail with kInvalidRequest and must not crash.
void ExpectRejected(const std::string& body, const char* why) {
  SCOPED_TRACE(why);
  std::optional<Json> parsed = Json::Parse(body);
  if (!parsed.has_value()) return;  // Rejected one layer earlier: fine.
  DecodedRequest decoded;
  std::optional<SvcError> error = net::DecodeRequest(*parsed, &decoded);
  ASSERT_TRUE(error.has_value()) << body;
  EXPECT_EQ(error->code, SvcErrorCode::kInvalidRequest);
  EXPECT_FALSE(error->message.empty());
}

TEST(CodecTest, MalformedRequestsAreRejectedStructurally) {
  const std::string valid =
      R"js({"query":"R(?x)","database":{"endogenous":["R(a)"],"exogenous":[]},)js"
      R"js("mode":"all-values","approx":{"epsilon":0.05,"delta":0.05,)js"
      R"js("seed":1,"max_samples":0,"strategy":"hoeffding"}})js";
  // Sanity: the valid body decodes.
  {
    std::optional<Json> parsed = Json::Parse(valid);
    ASSERT_TRUE(parsed.has_value());
    DecodedRequest decoded;
    EXPECT_FALSE(net::DecodeRequest(*parsed, &decoded).has_value());
  }
  // Truncations at every prefix must fail somewhere, never crash.
  for (size_t cut = 1; cut < valid.size(); cut += 7) {
    const std::string truncated = valid.substr(0, cut);
    std::optional<Json> parsed = Json::Parse(truncated);
    if (!parsed.has_value()) continue;  // Parser rejected: good.
    DecodedRequest decoded;
    net::DecodeRequest(*parsed, &decoded);  // Must simply not crash.
  }

  ExpectRejected("{}", "missing query");
  ExpectRejected(R"js({"query":"R(?x)"})js", "missing database");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"all-values","extra":1})js",
      "unknown top-level field");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{"endo":[]},"mode":"all-values"})js",
      "unknown database field");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"values-all"})js",
      "unknown mode");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"all-values",)js"
      R"js("approx":{"epsilonn":0.1}})js",
      "misspelled approx field");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"all-values",)js"
      R"js("approx":{"strategy":"qmc"}})js",
      "unknown strategy");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"all-values","top_k":0})js",
      "zero top_k");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{},"mode":"all-values",)js"
      R"js("timeout_ms":-5})js",
      "negative timeout");
  ExpectRejected(
      R"js({"query":"R((","database":{},"mode":"all-values"})js",
      "unparsable query");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{"endogenous":["R(a,b,c"]},)js"
      R"js("mode":"all-values"})js",
      "unparsable fact");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{"endogenous":[42]},)js"
      R"js("mode":"all-values"})js",
      "non-string fact");
  ExpectRejected(
      R"js({"query":"R(?x)","database":{"endogenous":["R(a)","R(a,b)"]},)js"
      R"js("mode":"all-values"})js",
      "arity clash inside one database");
}

TEST(CodecTest, JsonParserSurvivesAdversarialInput) {
  std::string error;
  EXPECT_FALSE(Json::Parse("", &error).has_value());
  EXPECT_FALSE(Json::Parse("{", &error).has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":1,}", &error).has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":1}x", &error).has_value());
  EXPECT_FALSE(Json::Parse("{\"a\":1,\"a\":2}", &error).has_value());
  EXPECT_FALSE(Json::Parse("nul", &error).has_value());
  EXPECT_FALSE(Json::Parse("+1", &error).has_value());
  EXPECT_FALSE(Json::Parse("01", &error).has_value());
  EXPECT_FALSE(Json::Parse("1.", &error).has_value());
  EXPECT_FALSE(Json::Parse("\"\\q\"", &error).has_value());
  EXPECT_FALSE(Json::Parse("\"\\ud800\"", &error).has_value());
  EXPECT_FALSE(Json::Parse(std::string("\"\x01\""), &error).has_value());

  // Depth bomb: fails at the cap instead of overflowing the stack.
  const std::string bomb(10000, '[');
  EXPECT_FALSE(Json::Parse(bomb, &error).has_value());
  EXPECT_NE(error.find("deep"), std::string::npos);

  // Numbers keep their raw text (uint64 seeds survive where doubles
  // would round), escapes round-trip, unicode passes through.
  std::optional<Json> big = Json::Parse("18446744073709551615");
  ASSERT_TRUE(big.has_value());
  EXPECT_EQ(big->IfUint64(), 18446744073709551615ull);
  EXPECT_EQ(big->Dump(), "18446744073709551615");
  std::optional<Json> text =
      Json::Parse("\"a\\n\\\"b\\\" \\u00e9 \\ud83d\\ude00\"");
  ASSERT_TRUE(text.has_value());
  EXPECT_EQ(*text->IfString(), "a\n\"b\" \xc3\xa9 \xf0\x9f\x98\x80");
}

}  // namespace
}  // namespace shapley
