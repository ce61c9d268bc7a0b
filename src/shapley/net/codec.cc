#include "shapley/net/codec.h"

#include <chrono>
#include <cmath>
#include <utility>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/query/conjunctive_query.h"
#include "shapley/query/query_parser.h"
#include "shapley/query/union_query.h"

namespace shapley::net {

namespace {

using Clock = std::chrono::steady_clock;

SvcError Invalid(std::string message) {
  return SvcError{SvcErrorCode::kInvalidRequest, std::move(message), ""};
}

/// Strictness helper: every decoder lists the fields it understands and
/// rejects the rest — a misspelled "epsilonn" must fail loudly, not run
/// with silent defaults.
std::optional<SvcError> RejectUnknownFields(
    const Json& json, std::initializer_list<std::string_view> known,
    const char* where) {
  const Json::Object* members = json.IfObject();
  if (members == nullptr) {
    return Invalid(std::string(where) + ": expected a JSON object");
  }
  for (const auto& [key, unused] : *members) {
    bool ok = false;
    for (std::string_view name : known) {
      if (key == name) {
        ok = true;
        break;
      }
    }
    if (!ok) {
      return Invalid(std::string(where) + ": unknown field \"" + key + "\"");
    }
  }
  return std::nullopt;
}

/// '?x' / '$a': the prefix makes variable-vs-constant explicit, so the
/// canonical text re-parses identically regardless of the u–z naming
/// convention the bare syntax would apply.
void AppendAtomText(const Atom& atom, const Schema& schema, bool negated,
                    std::string* out) {
  if (negated) out->push_back('!');
  *out += schema.name(atom.relation());
  out->push_back('(');
  for (size_t i = 0; i < atom.terms().size(); ++i) {
    if (i > 0) out->push_back(',');
    const Term& term = atom.terms()[i];
    out->push_back(term.IsVariable() ? '?' : '$');
    *out += term.ToString();
  }
  out->push_back(')');
}

std::optional<std::string> CanonicalCqText(const ConjunctiveQuery& cq) {
  const Schema& schema = *cq.schema();
  std::string out;
  bool first = true;
  for (const Atom& atom : cq.atoms()) {
    if (!first) out += ", ";
    first = false;
    AppendAtomText(atom, schema, /*negated=*/false, &out);
  }
  for (const Atom& atom : cq.negated_atoms()) {
    if (!first) out += ", ";
    first = false;
    AppendAtomText(atom, schema, /*negated=*/true, &out);
  }
  // The empty conjunction ⊤ has no parser syntax.
  if (first) return std::nullopt;
  return out;
}

Json EncodeApproxParams(const ApproxParams& params) {
  Json approx;
  approx.Set("epsilon", Json::Number(params.epsilon));
  approx.Set("delta", Json::Number(params.delta));
  approx.Set("seed", Json::Number(params.seed));
  approx.Set("max_samples", Json::Number(uint64_t{params.max_samples}));
  approx.Set("strategy", Json::Str(shapley::ToString(params.strategy)));
  return approx;
}

std::optional<SvcError> DecodeApproxParams(const Json& json,
                                           ApproxParams* out) {
  if (auto err = RejectUnknownFields(
          json, {"epsilon", "delta", "seed", "max_samples", "strategy"},
          "approx")) {
    return err;
  }
  if (const Json* epsilon = json.Find("epsilon")) {
    std::optional<double> value = epsilon->IfDouble();
    if (!value.has_value()) return Invalid("approx.epsilon: expected a number");
    out->epsilon = *value;
  }
  if (const Json* delta = json.Find("delta")) {
    std::optional<double> value = delta->IfDouble();
    if (!value.has_value()) return Invalid("approx.delta: expected a number");
    out->delta = *value;
  }
  if (const Json* seed = json.Find("seed")) {
    std::optional<uint64_t> value = seed->IfUint64();
    if (!value.has_value()) {
      return Invalid("approx.seed: expected an unsigned integer");
    }
    out->seed = *value;
  }
  if (const Json* max_samples = json.Find("max_samples")) {
    std::optional<uint64_t> value = max_samples->IfUint64();
    if (!value.has_value()) {
      return Invalid("approx.max_samples: expected an unsigned integer");
    }
    out->max_samples = static_cast<size_t>(*value);
  }
  if (const Json* strategy = json.Find("strategy")) {
    const std::string* name = strategy->IfString();
    if (name == nullptr) return Invalid("approx.strategy: expected a string");
    std::optional<ApproxStrategy> parsed = ParseApproxStrategy(*name);
    if (!parsed.has_value()) {
      return Invalid("approx.strategy: unknown strategy \"" + *name +
                     "\" (known: hoeffding bernstein stratified)");
    }
    out->strategy = *parsed;
  }
  return std::nullopt;
}

Json EncodeValueEntry(const Fact& fact, const BigRational& value,
                      const Schema& schema) {
  Json entry;
  entry.Set("fact", Json::Str(fact.ToString(schema)));
  entry.Set("value", Json::Str(value.ToString()));
  // Display convenience only; the exact "value" string is authoritative
  // and the decoder ignores this member.
  entry.Set("approx_value", Json::Number(value.ToDouble()));
  return entry;
}

std::optional<SvcError> DecodeValueEntry(
    const Json& json, const std::shared_ptr<Schema>& schema, Fact* fact,
    BigRational* value) {
  // Response path: unknown fields are IGNORED, not rejected (see
  // DecodeResponse) — a newer server may annotate entries.
  if (json.IfObject() == nullptr) {
    return Invalid("values[]: expected a JSON object");
  }
  const Json* fact_json = json.Find("fact");
  const Json* value_json = json.Find("value");
  const std::string* fact_text =
      fact_json != nullptr ? fact_json->IfString() : nullptr;
  const std::string* value_text =
      value_json != nullptr ? value_json->IfString() : nullptr;
  if (fact_text == nullptr || value_text == nullptr) {
    return Invalid("values[]: expected string \"fact\" and \"value\"");
  }
  try {
    *fact = ParseFact(schema, *fact_text);
    const size_t slash = value_text->find('/');
    if (slash == std::string::npos) {
      *value = BigRational(BigInt::FromString(*value_text));
    } else {
      *value = BigRational(BigInt::FromString(value_text->substr(0, slash)),
                           BigInt::FromString(value_text->substr(slash + 1)));
    }
  } catch (const std::exception& e) {
    return Invalid(std::string("values[]: ") + e.what());
  }
  return std::nullopt;
}

std::optional<Tractability> ParseTractability(const std::string& name) {
  if (name == "FP") return Tractability::kFP;
  if (name == "#P-hard") return Tractability::kSharpPHard;
  if (name == "unknown") return Tractability::kUnknown;
  return std::nullopt;
}

/// Typed field readers used by the response decoder (absent → default).
bool ReadString(const Json& json, std::string_view key, std::string* out) {
  const Json* field = json.Find(key);
  if (field == nullptr) return true;
  const std::string* value = field->IfString();
  if (value == nullptr) return false;
  *out = *value;
  return true;
}

bool ReadBool(const Json& json, std::string_view key, bool* out) {
  const Json* field = json.Find(key);
  if (field == nullptr) return true;
  std::optional<bool> value = field->IfBool();
  if (!value.has_value()) return false;
  *out = *value;
  return true;
}

bool ReadDouble(const Json& json, std::string_view key, double* out) {
  const Json* field = json.Find(key);
  if (field == nullptr) return true;
  std::optional<double> value = field->IfDouble();
  if (!value.has_value()) return false;
  *out = *value;
  return true;
}

bool ReadSize(const Json& json, std::string_view key, size_t* out) {
  const Json* field = json.Find(key);
  if (field == nullptr) return true;
  std::optional<uint64_t> value = field->IfUint64();
  if (!value.has_value()) return false;
  *out = static_cast<size_t>(*value);
  return true;
}

bool ReadU64(const Json& json, std::string_view key, uint64_t* out) {
  const Json* field = json.Find(key);
  if (field == nullptr) return true;
  std::optional<uint64_t> value = field->IfUint64();
  if (!value.has_value()) return false;
  *out = *value;
  return true;
}

}  // namespace

int HttpStatusFor(SvcErrorCode code) {
  switch (code) {
    case SvcErrorCode::kInvalidRequest:
      return 400;
    case SvcErrorCode::kCapacityExceeded:
      return 413;  // Payload (instance) too large for every admitted engine.
    case SvcErrorCode::kUnsupportedQuery:
      return 422;  // Well-formed, but no engine handles the class.
    case SvcErrorCode::kCancelled:
      return 499;  // Client closed request (nginx convention).
    case SvcErrorCode::kDeadlineExceeded:
      return 504;
    case SvcErrorCode::kEngineFailure:
      return 500;
    case SvcErrorCode::kUpstreamUnavailable:
      return 503;  // The fleet behind a proxy is down; retry later.
    case SvcErrorCode::kRequestTimeout:
      return 408;  // The client never finished sending its request.
  }
  return 500;
}

std::optional<SvcErrorCode> ParseSvcErrorCode(const std::string& name) {
  for (SvcErrorCode code :
       {SvcErrorCode::kCapacityExceeded, SvcErrorCode::kUnsupportedQuery,
        SvcErrorCode::kDeadlineExceeded, SvcErrorCode::kCancelled,
        SvcErrorCode::kInvalidRequest, SvcErrorCode::kEngineFailure,
        SvcErrorCode::kUpstreamUnavailable, SvcErrorCode::kRequestTimeout}) {
    if (shapley::ToString(code) == name) return code;
  }
  return std::nullopt;
}

std::optional<SvcMode> ParseSvcMode(const std::string& name) {
  for (SvcMode mode : {SvcMode::kAllValues, SvcMode::kMaxValue, SvcMode::kTopK,
                       SvcMode::kClassifyOnly}) {
    if (shapley::ToString(mode) == name) return mode;
  }
  return std::nullopt;
}

std::optional<std::string> CanonicalQueryText(const BooleanQuery& query) {
  if (const auto* cq = dynamic_cast<const ConjunctiveQuery*>(&query)) {
    return CanonicalCqText(*cq);
  }
  if (const auto* ucq = dynamic_cast<const UnionQuery*>(&query)) {
    std::string out;
    for (size_t i = 0; i < ucq->disjuncts().size(); ++i) {
      std::optional<std::string> disjunct =
          CanonicalCqText(*ucq->disjuncts()[i]);
      if (!disjunct.has_value()) return std::nullopt;
      if (i > 0) out += " | ";
      out += *disjunct;
    }
    return out;
  }
  return std::nullopt;  // Path queries etc. have no parser syntax.
}

Json EncodeRequest(const SvcRequest& request) {
  if (request.query == nullptr) {
    throw SvcException(Invalid("encode: request has no query"));
  }
  std::optional<std::string> query_text = CanonicalQueryText(*request.query);
  if (!query_text.has_value()) {
    throw SvcException(
        Invalid("encode: query class has no canonical wire text (only CQ / "
                "UCQ cross the wire)"));
  }
  const Schema& schema = *request.db.schema();

  Json database;
  Json endogenous = Json::Arr();
  for (const Fact& fact : request.db.endogenous().facts()) {
    endogenous.Push(Json::Str(fact.ToString(schema)));
  }
  Json exogenous = Json::Arr();
  for (const Fact& fact : request.db.exogenous().facts()) {
    exogenous.Push(Json::Str(fact.ToString(schema)));
  }
  database.Set("endogenous", std::move(endogenous));
  database.Set("exogenous", std::move(exogenous));

  Json json;
  json.Set("query", Json::Str(std::move(*query_text)));
  json.Set("database", std::move(database));
  json.Set("mode", Json::Str(shapley::ToString(request.mode)));
  if (request.mode == SvcMode::kTopK) {
    json.Set("top_k", Json::Number(uint64_t{request.top_k}));
  }
  if (!request.engine.empty()) json.Set("engine", Json::Str(request.engine));
  if (request.allow_approx) json.Set("allow_approx", Json::Bool(true));
  if (request.trace) {
    if (request.trace_context.valid()) {
      // Cluster-propagated form: the receiver must record under this
      // identity so its subtree grafts into the sender's tree.
      Json trace;
      trace.Set("trace_id", Json::Str(request.trace_context.TraceIdHex()));
      trace.Set("parent_span",
                Json::Str(obs::HexU64(request.trace_context.parent_span)));
      json.Set("trace", std::move(trace));
    } else {
      json.Set("trace", Json::Bool(true));
    }
  }
  json.Set("approx", EncodeApproxParams(request.approx));
  if (request.deadline.has_value()) {
    const auto remaining = std::chrono::duration_cast<std::chrono::milliseconds>(
        *request.deadline - Clock::now());
    json.Set("timeout_ms",
             Json::Number(uint64_t{remaining.count() > 0
                                       ? static_cast<uint64_t>(remaining.count())
                                       : 0}));
  }
  return json;
}

std::optional<SvcError> DecodeRequest(const Json& json, DecodedRequest* out,
                                      Clock::time_point arrival) {
  if (auto err = RejectUnknownFields(
          json,
          {"query", "database", "mode", "top_k", "engine", "allow_approx",
           "trace", "approx", "timeout_ms"},
          "request")) {
    return err;
  }
  DecodedRequest decoded;
  decoded.schema = Schema::Create();

  const Json* query = json.Find("query");
  const std::string* query_text = query != nullptr ? query->IfString() : nullptr;
  if (query_text == nullptr) {
    return Invalid("request.query: expected a query string");
  }
  try {
    UcqPtr parsed = ParseUcq(decoded.schema, *query_text);
    decoded.request.query = parsed->disjuncts().size() == 1
                                ? QueryPtr(parsed->disjuncts()[0])
                                : QueryPtr(parsed);
  } catch (const std::exception& e) {
    return Invalid(std::string("request.query: ") + e.what());
  }

  const Json* database = json.Find("database");
  if (database == nullptr) {
    return Invalid("request.database: missing");
  }
  if (auto err = RejectUnknownFields(*database, {"endogenous", "exogenous"},
                                     "request.database")) {
    return err;
  }
  auto parse_facts = [&](const char* key,
                         std::vector<Fact>* facts) -> std::optional<SvcError> {
    const Json* array = database->Find(key);
    if (array == nullptr) return std::nullopt;  // Absent = empty.
    const Json::Array* items = array->IfArray();
    if (items == nullptr) {
      return Invalid(std::string("request.database.") + key +
                     ": expected an array of fact strings");
    }
    for (const Json& item : *items) {
      const std::string* text = item.IfString();
      if (text == nullptr) {
        return Invalid(std::string("request.database.") + key +
                       ": expected an array of fact strings");
      }
      try {
        facts->push_back(ParseFact(decoded.schema, *text));
      } catch (const std::exception& e) {
        return Invalid(std::string("request.database.") + key + ": " +
                       e.what());
      }
    }
    return std::nullopt;
  };
  std::vector<Fact> endogenous, exogenous;
  if (auto err = parse_facts("endogenous", &endogenous)) return err;
  if (auto err = parse_facts("exogenous", &exogenous)) return err;
  decoded.request.db =
      PartitionedDatabase(Database(decoded.schema, std::move(endogenous)),
                          Database(decoded.schema, std::move(exogenous)));

  const Json* mode = json.Find("mode");
  const std::string* mode_name = mode != nullptr ? mode->IfString() : nullptr;
  if (mode_name == nullptr) {
    return Invalid("request.mode: expected one of all-values, max-value, "
                   "top-k, classify-only");
  }
  std::optional<SvcMode> parsed_mode = ParseSvcMode(*mode_name);
  if (!parsed_mode.has_value()) {
    return Invalid("request.mode: unknown mode \"" + *mode_name + "\"");
  }
  decoded.request.mode = *parsed_mode;

  if (const Json* top_k = json.Find("top_k")) {
    std::optional<uint64_t> value = top_k->IfUint64();
    if (!value.has_value() || *value == 0) {
      return Invalid("request.top_k: expected a positive integer");
    }
    decoded.request.top_k = static_cast<size_t>(*value);
  }
  if (const Json* engine = json.Find("engine")) {
    const std::string* name = engine->IfString();
    if (name == nullptr) return Invalid("request.engine: expected a string");
    decoded.request.engine = *name;
  }
  if (const Json* allow = json.Find("allow_approx")) {
    std::optional<bool> value = allow->IfBool();
    if (!value.has_value()) {
      return Invalid("request.allow_approx: expected a boolean");
    }
    decoded.request.allow_approx = *value;
  }
  if (const Json* trace = json.Find("trace")) {
    if (std::optional<bool> value = trace->IfBool()) {
      decoded.request.trace = *value;
    } else if (trace->IfObject() != nullptr) {
      // The cluster-propagation form: strict like every other request
      // member — a typo in a context field must fail loudly.
      if (auto err = RejectUnknownFields(*trace, {"trace_id", "parent_span"},
                                         "request.trace")) {
        return err;
      }
      const Json* id = trace->Find("trace_id");
      const std::string* id_text = id != nullptr ? id->IfString() : nullptr;
      std::optional<std::pair<uint64_t, uint64_t>> parsed_id =
          id_text != nullptr ? obs::ParseTraceIdHex(*id_text) : std::nullopt;
      if (!parsed_id.has_value()) {
        return Invalid(
            "request.trace.trace_id: expected 32 lowercase hex chars");
      }
      decoded.request.trace_context.trace_hi = parsed_id->first;
      decoded.request.trace_context.trace_lo = parsed_id->second;
      if (const Json* parent = trace->Find("parent_span")) {
        const std::string* text = parent->IfString();
        std::optional<uint64_t> span =
            text != nullptr ? obs::ParseHexU64(*text) : std::nullopt;
        if (!span.has_value()) {
          return Invalid(
              "request.trace.parent_span: expected 16 lowercase hex chars");
        }
        decoded.request.trace_context.parent_span = *span;
      }
      decoded.request.trace = true;
    } else {
      return Invalid("request.trace: expected a boolean or a context object");
    }
  }
  if (const Json* approx = json.Find("approx")) {
    if (auto err = DecodeApproxParams(*approx, &decoded.request.approx)) {
      return err;
    }
  }
  if (const Json* timeout = json.Find("timeout_ms")) {
    std::optional<uint64_t> ms = timeout->IfUint64();
    if (!ms.has_value()) {
      return Invalid("request.timeout_ms: expected an unsigned integer");
    }
    // Re-anchored here: the wire carries a budget, not an absolute point.
    decoded.request.deadline = arrival + std::chrono::milliseconds(*ms);
  }

  *out = std::move(decoded);
  return std::nullopt;
}

Json EncodeResponse(const SvcResponse& response, const Schema& schema) {
  Json json;
  json.Set("mode", Json::Str(shapley::ToString(response.mode)));
  json.Set("status",
           Json::Number(int64_t{response.ok()
                                    ? 200
                                    : HttpStatusFor(response.error->code)}));

  Json verdict;
  verdict.Set("tractability",
              Json::Str(shapley::ToString(response.verdict.tractability)));
  verdict.Set("query_class", Json::Str(response.verdict.query_class));
  verdict.Set("justification", Json::Str(response.verdict.justification));
  verdict.Set("fgmc_svc_equivalent",
              Json::Bool(response.verdict.fgmc_svc_equivalent));
  json.Set("verdict", std::move(verdict));

  json.Set("engine", Json::Str(response.engine));
  json.Set("routed_by_classifier", Json::Bool(response.routed_by_classifier));

  if (!response.values.empty()) {
    Json values = Json::Arr();
    for (const auto& [fact, value] : response.values) {
      values.Push(EncodeValueEntry(fact, value, schema));
    }
    json.Set("values", std::move(values));
  }
  if (!response.ranked.empty()) {
    Json ranked = Json::Arr();
    for (const auto& [fact, value] : response.ranked) {
      ranked.Push(EncodeValueEntry(fact, value, schema));
    }
    json.Set("ranked", std::move(ranked));
  }

  if (response.approx.has_value()) {
    const ApproxInfo& info = *response.approx;
    Json approx;
    approx.Set("epsilon", Json::Number(info.epsilon));
    approx.Set("delta", Json::Number(info.delta));
    approx.Set("seed", Json::Number(info.seed));
    approx.Set("samples", Json::Number(uint64_t{info.samples}));
    approx.Set("half_width", Json::Number(info.half_width));
    approx.Set("confidence", Json::Number(info.confidence));
    approx.Set("range", Json::Number(info.range));
    approx.Set("strategy", Json::Str(info.strategy));
    approx.Set("hoeffding_baseline",
               Json::Number(uint64_t{info.hoeffding_baseline}));
    approx.Set("checkpoints", Json::Number(uint64_t{info.checkpoints}));
    approx.Set("facts_retired", Json::Number(uint64_t{info.facts_retired}));
    Json ranges = Json::Arr();
    for (double r : info.fact_ranges) ranges.Push(Json::Number(r));
    approx.Set("fact_ranges", std::move(ranges));
    Json samples = Json::Arr();
    for (size_t s : info.fact_samples) samples.Push(Json::Number(uint64_t{s}));
    approx.Set("fact_samples", std::move(samples));
    Json widths = Json::Arr();
    for (double w : info.fact_half_widths) widths.Push(Json::Number(w));
    approx.Set("fact_half_widths", std::move(widths));
    json.Set("approx", std::move(approx));
  }

  if (response.error.has_value()) {
    Json error;
    error.Set("code", Json::Str(shapley::ToString(response.error->code)));
    error.Set("status",
              Json::Number(int64_t{HttpStatusFor(response.error->code)}));
    error.Set("message", Json::Str(response.error->message));
    error.Set("engine", Json::Str(response.error->engine));
    json.Set("error", std::move(error));
  }

  if (response.trace.has_value()) {
    json.Set("trace", EncodeTrace(*response.trace));
  }

  Json stats;
  stats.Set("queue_ms", Json::Number(response.stats.queue_ms));
  stats.Set("exec_ms", Json::Number(response.stats.exec_ms));
  // Cache telemetry, not part of the certified estimate (see codec.h).
  if (response.approx.has_value()) {
    stats.Set("memo_hits",
              Json::Number(uint64_t{response.approx->memo_hits}));
  }
  json.Set("stats", std::move(stats));
  return json;
}

Json EncodeTraceSpan(const obs::TraceSpan& span) {
  Json json;
  json.Set("name", Json::Str(span.name));
  json.Set("start_ms", Json::Number(span.start_ms));
  json.Set("ms", Json::Number(span.ms));
  if (!span.attrs.empty()) {
    Json attrs;
    for (const auto& [key, value] : span.attrs) {
      attrs.Set(key, Json::Str(value));
    }
    json.Set("attrs", std::move(attrs));
  }
  if (!span.children.empty()) {
    Json children = Json::Arr();
    for (const obs::TraceSpan& child : span.children) {
      children.Push(EncodeTraceSpan(child));
    }
    json.Set("children", std::move(children));
  }
  return json;
}

Json EncodeTrace(const obs::RequestTrace& trace) {
  Json json;
  if (trace.context.valid()) {
    json.Set("trace_id", Json::Str(trace.context.TraceIdHex()));
  }
  json.Set("root", EncodeTraceSpan(trace.root));
  return json;
}

bool DecodeTraceSpan(const Json& json, obs::TraceSpan* out) {
  if (json.IfObject() == nullptr) return false;
  obs::TraceSpan span;
  // "name" is REQUIRED — a nameless span is corruption, not a new field;
  // the timing members are tolerated when absent (they default to 0).
  if (!ReadString(json, "name", &span.name) || span.name.empty() ||
      !ReadDouble(json, "start_ms", &span.start_ms) ||
      !ReadDouble(json, "ms", &span.ms)) {
    return false;
  }
  if (const Json* attrs = json.Find("attrs")) {
    const Json::Object* members = attrs->IfObject();
    if (members == nullptr) return false;
    for (const auto& [key, value] : *members) {
      const std::string* text = value.IfString();
      if (text == nullptr) return false;
      span.attrs.emplace_back(key, *text);
    }
  }
  if (const Json* children = json.Find("children")) {
    const Json::Array* items = children->IfArray();
    if (items == nullptr) return false;
    for (const Json& item : *items) {
      obs::TraceSpan child;
      if (!DecodeTraceSpan(item, &child)) return false;
      span.children.push_back(std::move(child));
    }
  }
  *out = std::move(span);
  return true;
}

std::optional<obs::RequestTrace> DecodeTrace(const Json& trace_json) {
  if (trace_json.IfObject() == nullptr) return std::nullopt;
  obs::RequestTrace trace;
  if (const Json* id = trace_json.Find("trace_id")) {
    const std::string* text = id->IfString();
    std::optional<std::pair<uint64_t, uint64_t>> parsed =
        text != nullptr ? obs::ParseTraceIdHex(*text) : std::nullopt;
    if (!parsed.has_value()) return std::nullopt;
    trace.context.trace_hi = parsed->first;
    trace.context.trace_lo = parsed->second;
  }
  if (const Json* root = trace_json.Find("root")) {
    if (!DecodeTraceSpan(*root, &trace.root)) return std::nullopt;
  }
  return trace;
}

void SetTraceBlock(Json* encoded_response, const obs::RequestTrace& trace) {
  Json block = EncodeTrace(trace);
  if (Json* existing = encoded_response->FindMutable("trace")) {
    *existing = std::move(block);
  } else {
    encoded_response->Set("trace", std::move(block));
  }
}

void SetRequestTraceContext(Json* encoded_request,
                            const obs::TraceContext& context) {
  Json block;
  block.Set("trace_id", Json::Str(context.TraceIdHex()));
  block.Set("parent_span", Json::Str(obs::HexU64(context.parent_span)));
  if (Json* existing = encoded_request->FindMutable("trace")) {
    *existing = std::move(block);
  } else {
    encoded_request->Set("trace", std::move(block));
  }
}

std::optional<SvcError> DecodeResponse(const Json& json,
                                       const std::shared_ptr<Schema>& schema,
                                       SvcResponse* out) {
  // FORWARD COMPATIBILITY: unlike the request path (where an unknown field
  // is a client typo that must fail loudly), unknown RESPONSE fields are
  // ignored — a newer server, or a newer backend behind the shard router,
  // may legitimately annotate responses with fields this build predates.
  // Known fields keep their strict type checks; the router passes the raw
  // line through untouched, so nothing is lost either way.
  if (json.IfObject() == nullptr) {
    return Invalid("response: expected a JSON object");
  }
  SvcResponse response;

  std::string mode_name = shapley::ToString(SvcMode::kAllValues);
  if (!ReadString(json, "mode", &mode_name)) {
    return Invalid("response.mode: expected a string");
  }
  std::optional<SvcMode> mode = ParseSvcMode(mode_name);
  if (!mode.has_value()) {
    return Invalid("response.mode: unknown mode \"" + mode_name + "\"");
  }
  response.mode = *mode;

  if (const Json* verdict = json.Find("verdict")) {
    if (verdict->IfObject() == nullptr) {
      return Invalid("response.verdict: expected a JSON object");
    }
    std::string tractability = "unknown";
    if (!ReadString(*verdict, "tractability", &tractability) ||
        !ReadString(*verdict, "query_class", &response.verdict.query_class) ||
        !ReadString(*verdict, "justification",
                    &response.verdict.justification) ||
        !ReadBool(*verdict, "fgmc_svc_equivalent",
                  &response.verdict.fgmc_svc_equivalent)) {
      return Invalid("response.verdict: malformed field types");
    }
    std::optional<Tractability> parsed = ParseTractability(tractability);
    if (!parsed.has_value()) {
      return Invalid("response.verdict.tractability: unknown \"" +
                     tractability + "\"");
    }
    response.verdict.tractability = *parsed;
  }

  if (!ReadString(json, "engine", &response.engine) ||
      !ReadBool(json, "routed_by_classifier",
                &response.routed_by_classifier)) {
    return Invalid("response: malformed engine/routed_by_classifier");
  }

  if (const Json* values = json.Find("values")) {
    const Json::Array* items = values->IfArray();
    if (items == nullptr) return Invalid("response.values: expected an array");
    for (const Json& item : *items) {
      Fact fact;
      BigRational value;
      if (auto err = DecodeValueEntry(item, schema, &fact, &value)) return err;
      response.values.emplace(std::move(fact), std::move(value));
    }
  }
  if (const Json* ranked = json.Find("ranked")) {
    const Json::Array* items = ranked->IfArray();
    if (items == nullptr) return Invalid("response.ranked: expected an array");
    for (const Json& item : *items) {
      Fact fact;
      BigRational value;
      if (auto err = DecodeValueEntry(item, schema, &fact, &value)) return err;
      response.ranked.emplace_back(std::move(fact), std::move(value));
    }
  }

  if (const Json* approx = json.Find("approx")) {
    if (approx->IfObject() == nullptr) {
      return Invalid("response.approx: expected a JSON object");
    }
    ApproxInfo info;
    if (!ReadDouble(*approx, "epsilon", &info.epsilon) ||
        !ReadDouble(*approx, "delta", &info.delta) ||
        !ReadU64(*approx, "seed", &info.seed) ||
        !ReadSize(*approx, "samples", &info.samples) ||
        !ReadDouble(*approx, "half_width", &info.half_width) ||
        !ReadDouble(*approx, "confidence", &info.confidence) ||
        !ReadDouble(*approx, "range", &info.range) ||
        !ReadString(*approx, "strategy", &info.strategy) ||
        !ReadSize(*approx, "hoeffding_baseline", &info.hoeffding_baseline) ||
        !ReadSize(*approx, "checkpoints", &info.checkpoints) ||
        !ReadSize(*approx, "facts_retired", &info.facts_retired)) {
      return Invalid("response.approx: malformed field types");
    }
    auto read_doubles = [&](const char* key, std::vector<double>* out_vec)
        -> std::optional<SvcError> {
      const Json* array = approx->Find(key);
      if (array == nullptr) return std::nullopt;
      const Json::Array* items = array->IfArray();
      if (items == nullptr) {
        return Invalid(std::string("response.approx.") + key +
                       ": expected an array of numbers");
      }
      for (const Json& item : *items) {
        std::optional<double> value = item.IfDouble();
        if (!value.has_value()) {
          return Invalid(std::string("response.approx.") + key +
                         ": expected an array of numbers");
        }
        out_vec->push_back(*value);
      }
      return std::nullopt;
    };
    if (auto err = read_doubles("fact_ranges", &info.fact_ranges)) return err;
    if (auto err = read_doubles("fact_half_widths", &info.fact_half_widths)) {
      return err;
    }
    if (const Json* array = approx->Find("fact_samples")) {
      const Json::Array* items = array->IfArray();
      if (items == nullptr) {
        return Invalid("response.approx.fact_samples: expected an array");
      }
      for (const Json& item : *items) {
        std::optional<uint64_t> value = item.IfUint64();
        if (!value.has_value()) {
          return Invalid("response.approx.fact_samples: expected integers");
        }
        info.fact_samples.push_back(static_cast<size_t>(*value));
      }
    }
    response.approx = std::move(info);
  }

  if (const Json* error = json.Find("error")) {
    if (error->IfObject() == nullptr) {
      return Invalid("response.error: expected a JSON object");
    }
    SvcError decoded_error;
    std::string code_name = shapley::ToString(SvcErrorCode::kEngineFailure);
    if (!ReadString(*error, "code", &code_name) ||
        !ReadString(*error, "message", &decoded_error.message) ||
        !ReadString(*error, "engine", &decoded_error.engine)) {
      return Invalid("response.error: malformed field types");
    }
    std::optional<SvcErrorCode> code = ParseSvcErrorCode(code_name);
    if (!code.has_value()) {
      return Invalid("response.error.code: unknown code \"" + code_name +
                     "\"");
    }
    decoded_error.code = *code;
    response.error = std::move(decoded_error);
  }

  if (const Json* stats = json.Find("stats")) {
    if (stats->IfObject() == nullptr) {
      return Invalid("response.stats: expected a JSON object");
    }
    size_t memo_hits = 0;
    if (!ReadDouble(*stats, "queue_ms", &response.stats.queue_ms) ||
        !ReadDouble(*stats, "exec_ms", &response.stats.exec_ms) ||
        !ReadSize(*stats, "memo_hits", &memo_hits)) {
      return Invalid("response.stats: malformed field types");
    }
    if (response.approx.has_value()) response.approx->memo_hits = memo_hits;
  }

  if (const Json* trace = json.Find("trace")) {
    std::optional<obs::RequestTrace> decoded_trace = DecodeTrace(*trace);
    if (!decoded_trace.has_value()) {
      return Invalid("response.trace: malformed span tree");
    }
    response.trace = std::move(*decoded_trace);
  }

  *out = std::move(response);
  return std::nullopt;
}

}  // namespace shapley::net
