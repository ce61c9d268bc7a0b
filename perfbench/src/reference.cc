#include "reference.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <set>

#include "shapley/data/database.h"
#include "shapley/data/parser.h"
#include "shapley/data/schema.h"
#include "shapley/engines/fgmc.h"
#include "shapley/engines/svc.h"
#include "shapley/net/codec.h"
#include "shapley/query/query_parser.h"
#include "shapley/query/union_query.h"

namespace perfbench {

using shapley::net::Json;

namespace {

struct Parsed {
  std::shared_ptr<shapley::Schema> schema;
  shapley::QueryPtr query;
  std::vector<shapley::Fact> endogenous;
  std::vector<shapley::Fact> exogenous;
};

Parsed Parse(const Instance& instance) {
  Parsed p;
  p.schema = shapley::Schema::Create();
  shapley::UcqPtr ucq =
      shapley::ParseUcq(p.schema, Catalog()[instance.query].Text());
  p.query = ucq->disjuncts().size() == 1 ? shapley::QueryPtr(ucq->disjuncts()[0])
                                         : shapley::QueryPtr(ucq);
  for (const auto& f : instance.endogenous) {
    p.endogenous.push_back(shapley::ParseFact(p.schema, f));
  }
  for (const auto& f : instance.exogenous) {
    p.exogenous.push_back(shapley::ParseFact(p.schema, f));
  }
  return p;
}

bool Holds(const Parsed& p, std::vector<shapley::Fact> facts) {
  return p.query->Evaluate(shapley::Database(p.schema, std::move(facts)));
}

// ---- exact arithmetic on "p/q" strings, modulo two primes ----------------

constexpr uint64_t kPrimes[2] = {(uint64_t{1} << 61) - 1, 1000000007ULL};

uint64_t MulMod(uint64_t a, uint64_t b, uint64_t m) {
  return static_cast<uint64_t>((static_cast<unsigned __int128>(a) * b) % m);
}
uint64_t PowMod(uint64_t a, uint64_t e, uint64_t m) {
  uint64_t r = 1;
  for (; e > 0; e >>= 1, a = MulMod(a, a, m)) {
    if (e & 1) r = MulMod(r, a, m);
  }
  return r;
}

struct Fraction {
  bool negative = false;
  std::string num = "0";  // Decimal digits.
  std::string den = "1";
};

std::optional<Fraction> ParseFraction(const std::string& text) {
  Fraction f;
  std::string body = text;
  if (!body.empty() && body[0] == '-') {
    f.negative = true;
    body = body.substr(1);
  }
  const size_t slash = body.find('/');
  f.num = body.substr(0, slash);
  f.den = slash == std::string::npos ? "1" : body.substr(slash + 1);
  auto digits = [](const std::string& s) {
    return !s.empty() &&
           std::all_of(s.begin(), s.end(), [](char c) { return c >= '0' && c <= '9'; });
  };
  if (!digits(f.num) || !digits(f.den) || f.den == "0") return std::nullopt;
  return f;
}

uint64_t DecimalMod(const std::string& digits, uint64_t m) {
  uint64_t r = 0;
  for (char c : digits) r = (MulMod(r, 10, m) + static_cast<uint64_t>(c - '0')) % m;
  return r;
}

uint64_t FractionMod(const Fraction& f, uint64_t m) {
  const uint64_t value =
      MulMod(DecimalMod(f.num, m), PowMod(DecimalMod(f.den, m), m - 2, m), m);
  return f.negative && value != 0 ? m - value : value;
}

// Compares non-negative decimal strings without leading zeros.
int CompareDecimal(const std::string& a, const std::string& b) {
  if (a.size() != b.size()) return a.size() < b.size() ? -1 : 1;
  return a.compare(b) < 0 ? -1 : (a == b ? 0 : 1);
}

std::optional<int64_t> SmallInt(const std::string& digits) {
  if (digits.size() > 18) return std::nullopt;
  return std::strtoll(digits.c_str(), nullptr, 10);
}

// value == numerator / denominator, exactly.
bool EqualsExact(const Fraction& f, int64_t numerator, int64_t denominator) {
  const auto p = SmallInt(f.num);
  const auto q = SmallInt(f.den);
  if (!p || !q) return false;
  const __int128 lhs = static_cast<__int128>(f.negative ? -*p : *p) * denominator;
  const __int128 rhs = static_cast<__int128>(numerator) * *q;
  return lhs == rhs;
}

double ToDouble(const Fraction& f) {
  const long double v = std::strtold(f.num.c_str(), nullptr) /
                        std::strtold(f.den.c_str(), nullptr);
  return static_cast<double>(f.negative ? -v : v);
}

std::string Describe(const std::string& what, const std::string& fact,
                     const std::string& got) {
  return what + " (fact " + fact + ", got " + got + ")";
}

}  // namespace

Reference SatReference(const Instance& instance) {
  const Parsed p = Parse(instance);
  Reference r;
  r.n = p.endogenous.size();
  std::vector<shapley::Fact> all = p.exogenous;
  all.insert(all.end(), p.endogenous.begin(), p.endogenous.end());
  r.d_sat = Holds(p, all);
  r.dx_sat = Holds(p, p.exogenous);
  return r;
}

Reference SubsetReference(const Instance& instance) {
  const Parsed p = Parse(instance);
  Reference r = SatReference(instance);
  const size_t m = r.n - instance.null_padding;
  if (m > kSubsetMax) return r;
  // sat[mask] = [Dx ∪ {core facts in mask} |= q]; null padding is left out,
  // which leaves every other fact's value unchanged.
  std::vector<uint8_t> sat(size_t{1} << m);
  for (size_t mask = 0; mask < sat.size(); ++mask) {
    std::vector<shapley::Fact> world = p.exogenous;
    for (size_t i = 0; i < m; ++i) {
      if (mask >> i & 1) world.push_back(p.endogenous[i]);
    }
    sat[mask] = Holds(p, std::move(world)) ? 1 : 0;
  }
  std::vector<int64_t> factorial(m + 1, 1);
  for (size_t i = 1; i <= m; ++i) factorial[i] = factorial[i - 1] * static_cast<int64_t>(i);
  r.exact = true;
  r.denominator = m == 0 ? 1 : factorial[m];
  r.numerators.assign(r.n, 0);
  r.values.assign(r.n, 0.0);
  for (size_t i = 0; i < m; ++i) {
    int64_t numerator = 0;
    for (size_t mask = 0; mask < sat.size(); ++mask) {
      if (mask >> i & 1) continue;
      const int delta = sat[mask | (size_t{1} << i)] - sat[mask];
      if (delta == 0) continue;
      const size_t s = static_cast<size_t>(__builtin_popcountll(mask));
      numerator += delta * factorial[s] * factorial[m - 1 - s];
    }
    r.numerators[i] = numerator;
    r.values[i] = static_cast<double>(numerator) / static_cast<double>(r.denominator);
  }
  return r;
}

Reference EngineReference(const Instance& instance, const std::string& engine) {
  const Parsed p = Parse(instance);
  Reference r = SatReference(instance);
  std::shared_ptr<shapley::FgmcEngine> oracle;
  if (engine == "lifted") {
    oracle = std::make_shared<shapley::LiftedFgmc>();
  } else {
    oracle = std::make_shared<shapley::LineageFgmc>();
  }
  shapley::SvcViaFgmc svc(oracle);
  shapley::PartitionedDatabase db(shapley::Database(p.schema, p.endogenous),
                                  shapley::Database(p.schema, p.exogenous));
  const auto values = svc.AllValues(*p.query, db);
  std::map<std::string, double> by_text;
  for (const auto& [fact, value] : values) {
    by_text[fact.ToString(*p.schema)] = value.ToDouble();
  }
  r.values.assign(r.n, 0.0);
  for (size_t i = 0; i < r.n; ++i) {
    r.values[i] = by_text.at(p.endogenous[i].ToString(*p.schema));
  }
  return r;
}

std::optional<Answer> ReadAnswer(const Json& json) {
  if (!json.is_object()) return std::nullopt;
  Answer a;
  auto str = [](const Json* j) {
    const std::string* s = j != nullptr ? j->IfString() : nullptr;
    return s != nullptr ? *s : std::string();
  };
  const Json* status = json.Find("status");
  if (status == nullptr || !status->IfInt64()) return std::nullopt;
  a.status = static_cast<int>(*status->IfInt64());
  a.engine = str(json.Find("engine"));
  if (const Json* verdict = json.Find("verdict")) {
    a.tractability = str(verdict->Find("tractability"));
    a.query_class = str(verdict->Find("query_class"));
  }
  if (const Json* error = json.Find("error")) {
    a.error = str(error->Find("code")) + ": " + str(error->Find("message"));
  }
  auto read_pairs = [&](const char* key,
                        std::vector<std::pair<std::string, std::string>>* out) {
    const Json* list = json.Find(key);
    if (list == nullptr) return true;
    if (!list->IfArray()) return false;
    for (const Json& entry : *list->IfArray()) {
      out->emplace_back(str(entry.Find("fact")), str(entry.Find("value")));
    }
    return true;
  };
  if (!read_pairs("values", &a.values) || !read_pairs("ranked", &a.ranked)) {
    return std::nullopt;
  }
  if (const Json* approx = json.Find("approx")) {
    a.approx = true;
    a.strategy = str(approx->Find("strategy"));
    if (const Json* s = approx->Find("samples")) a.samples = s->IfUint64().value_or(0);
    if (const Json* h = approx->Find("hoeffding_baseline")) {
      a.hoeffding_baseline = h->IfUint64().value_or(0);
    }
    if (const Json* widths = approx->Find("fact_half_widths"); widths && widths->IfArray()) {
      for (const Json& w : *widths->IfArray()) a.half_widths.push_back(w.IfDouble().value_or(-1.0));
    }
  }
  return a;
}

std::string ExpectedEngine(const Op& op, const Instance& instance) {
  // Engine instance names as responses report them.
  static const std::map<std::string, std::string> names = {
      {"brute", "brute-force"},
      {"lifted", "via-fgmc(lifted-safe-plan)"},
      {"ddnnf", "via-fgmc(lineage-ddnnf)"},
      {"sampling", "sampling"}};
  if (op.mode == Mode::kClassifyOnly) return "";
  if (!op.engine.empty()) return names.at(op.engine);
  const QueryDef& q = Catalog()[instance.query];
  if (q.lifted) return names.at("lifted");
  if (instance.endogenous.size() <= 25) return names.at("brute");
  if (q.monotone) return names.at("ddnnf");
  return op.allow_approx ? "sampling" : "";
}

std::vector<std::string> ServerFactOrder(const Instance& instance,
                                         const std::string& suffix) {
  Op op;
  op.suffix = suffix;
  auto json = Json::Parse(RequestJson(op, instance, false));
  shapley::net::DecodedRequest decoded;
  std::vector<std::string> order;
  if (!json || shapley::net::DecodeRequest(*json, &decoded)) return order;
  for (const auto& fact : decoded.request.db.endogenous().facts()) {
    order.push_back(fact.ToString(*decoded.schema));
  }
  return order;
}

std::string CheckAnswer(const Answer& answer, const Op& op,
                        const Instance& instance, const Reference& reference,
                        const std::vector<std::string>* order,
                        SampleTally* tally) {
  const QueryDef& q = Catalog()[instance.query];
  if (answer.status != 200 || !answer.error.empty()) {
    return "status " + std::to_string(answer.status) + " " + answer.error;
  }
  if (answer.tractability != q.tractability || answer.query_class != q.query_class) {
    return "verdict " + answer.tractability + " / " + answer.query_class +
           ", paper says " + q.tractability + " / " + q.query_class;
  }
  if (answer.engine != ExpectedEngine(op, instance)) {
    return "engine " + answer.engine + ", expected " + ExpectedEngine(op, instance);
  }
  if (op.mode == Mode::kClassifyOnly) {
    if (!answer.values.empty() || !answer.ranked.empty()) return "values on classify-only";
    return "";
  }
  std::map<std::string, size_t> index;  // Renamed fact text -> base index.
  for (size_t i = 0; i < instance.endogenous.size(); ++i) {
    index[RenameFact(instance.endogenous[i], op.suffix)] = i;
  }

  if (op.mode == Mode::kMaxValue || op.mode == Mode::kTopK) {
    const size_t want = op.mode == Mode::kMaxValue
                            ? 1
                            : std::min<size_t>(static_cast<size_t>(op.top_k), reference.n);
    if (answer.ranked.size() != want) {
      return "ranked size " + std::to_string(answer.ranked.size()) + ", expected " +
             std::to_string(want);
    }
    if (!reference.exact) return "no exact reference for a ranked answer";
    std::vector<int64_t> sorted = reference.numerators;
    std::sort(sorted.rbegin(), sorted.rend());
    std::set<std::string> seen;
    for (size_t k = 0; k < answer.ranked.size(); ++k) {
      const auto& [fact, text] = answer.ranked[k];
      auto it = index.find(fact);
      if (it == index.end() || !seen.insert(fact).second) {
        return Describe("unknown or repeated ranked fact", fact, text);
      }
      const auto value = ParseFraction(text);
      if (!value || !EqualsExact(*value, reference.numerators[it->second],
                                 reference.denominator)) {
        return Describe("ranked value differs from the reference", fact, text);
      }
      if (!EqualsExact(*value, sorted[k], reference.denominator)) {
        return Describe("ranked value is not the reference's rank-" +
                            std::to_string(k + 1) + " value",
                        fact, text);
      }
    }
    return "";
  }

  // All values: exactly the endogenous facts, each once.
  if (answer.values.size() != reference.n) {
    return "values for " + std::to_string(answer.values.size()) + " facts, |Dn| = " +
           std::to_string(reference.n);
  }
  std::vector<Fraction> values(reference.n);
  std::vector<bool> seen(reference.n, false);
  for (const auto& [fact, text] : answer.values) {
    auto it = index.find(fact);
    if (it == index.end() || seen[it->second]) {
      return Describe("unknown or repeated fact", fact, text);
    }
    seen[it->second] = true;
    const auto value = ParseFraction(text);
    if (!value) return Describe("unparsable value", fact, text);
    values[it->second] = *value;
  }

  const bool exhaustive = !answer.approx || answer.strategy == "hoeffding";
  if (exhaustive) {
    // Efficiency: the values sum to v(Dn) = [D |= q] - [Dx |= q] (for
    // hoeffding every permutation telescopes to it, so the sum is exact).
    const int64_t total = (reference.d_sat ? 1 : 0) - (reference.dx_sat ? 1 : 0);
    for (uint64_t prime : kPrimes) {
      uint64_t sum = 0;
      for (const Fraction& f : values) sum = (sum + FractionMod(f, prime)) % prime;
      const uint64_t want = total < 0 ? prime - 1 : static_cast<uint64_t>(total);
      if (sum != want) {
        return "efficiency: values do not sum to " + std::to_string(total);
      }
    }
  }

  if (!answer.approx) {
    if (q.monotone) {
      for (size_t i = 0; i < reference.n; ++i) {
        if (values[i].negative || CompareDecimal(values[i].num, values[i].den) > 0) {
          return Describe("monotone value outside [0, 1]", instance.endogenous[i],
                          values[i].num + "/" + values[i].den);
        }
      }
    }
    if (reference.exact) {
      for (size_t i = 0; i < reference.n; ++i) {
        if (!EqualsExact(values[i], reference.numerators[i], reference.denominator)) {
          return Describe("value differs from the subset-formula reference",
                          instance.endogenous[i], values[i].num + "/" + values[i].den);
        }
      }
    }
    return "";
  }

  // Sampled answers.
  if (answer.strategy != op.approx.strategy) return "strategy " + answer.strategy;
  if (answer.strategy != "hoeffding" && answer.samples > answer.hoeffding_baseline) {
    return "adaptive run drew " + std::to_string(answer.samples) +
           " samples, over the hoeffding baseline " +
           std::to_string(answer.hoeffding_baseline);
  }
  if (order == nullptr || order->size() != reference.n ||
      answer.half_widths.size() != reference.n) {
    return "per-fact half-widths do not cover Dn";
  }
  if (reference.values.size() != reference.n) return "no exact reference";
  for (size_t k = 0; k < reference.n; ++k) {
    const auto it = index.find((*order)[k]);
    if (it == index.end()) return "server fact order names an unknown fact";
    const size_t i = it->second;
    const double error = std::abs(ToDouble(values[i]) - reference.values[i]);
    ++tally->facts;
    if (error > answer.half_widths[k] + 1e-9) ++tally->outside;
  }
  tally->delta = op.approx.delta;
  return "";
}

std::string CheckSampleShare(const SampleTally& tally) {
  if (static_cast<double>(tally.outside) <= tally.delta * static_cast<double>(tally.facts)) {
    return "";
  }
  return std::to_string(tally.outside) + " of " + std::to_string(tally.facts) +
         " sampled facts outside their half-width";
}

int64_t BatchLineId(const Json& line) {
  const Json* id = line.Find("id");
  const std::optional<uint64_t> value = id != nullptr ? id->IfUint64() : std::nullopt;
  return value && *value <= static_cast<uint64_t>(INT64_MAX) ? static_cast<int64_t>(*value)
                                                             : -1;
}

std::string CheckBatchIds(const std::vector<int64_t>& ids, size_t size) {
  std::vector<int> count(size, 0);
  for (int64_t id : ids) {
    if (id < 0 || static_cast<size_t>(id) >= size) {
      return "batch id " + std::to_string(id) + " out of range";
    }
    if (++count[static_cast<size_t>(id)] > 1) {
      return "batch id " + std::to_string(id) + " arrived twice";
    }
  }
  for (size_t i = 0; i < size; ++i) {
    if (count[i] == 0) return "batch id " + std::to_string(i) + " never arrived";
  }
  return "";
}

}  // namespace perfbench
