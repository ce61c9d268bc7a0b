#include "catalog.h"

#include <cstdio>
#include <map>
#include <set>
#include <utility>

namespace perfbench {

namespace {

AtomDef A(std::string relation, std::vector<std::string> terms,
          bool negated = false) {
  return {std::move(relation), std::move(terms), negated};
}

std::string Constant(int i) { return "c" + std::to_string(i); }

}  // namespace

std::string QueryDef::Text() const {
  std::string text;
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    if (d > 0) text += " | ";
    for (size_t a = 0; a < disjuncts[d].size(); ++a) {
      const AtomDef& atom = disjuncts[d][a];
      if (a > 0) text += ", ";
      if (atom.negated) text += "!";
      text += atom.relation + "(";
      for (size_t t = 0; t < atom.terms.size(); ++t) {
        if (t > 0) text += ",";
        text += atom.terms[t];
      }
      text += ")";
    }
  }
  return text;
}

// The verdicts below are the paper's (Figure 1b and Section 4), not read
// from the classifier: hierarchical sjf-CQs are FP [Livshits et al. 2021];
// non-hierarchical sjf-CQs, with or without constants, are #P-hard
// (Corollary 4.5); so is a non-hierarchical constant-free CQ with a
// self-join (Corollary 4.5); the connected constant-free UCQ
// R(x),S(x,y),T(y) | A(x,y),B(y) has an unsafe disjunct and no shared
// relation, so it is unsafe and #P-hard by Corollary 4.2(1); the
// non-hierarchical sjf-CQ with a negated atom is #P-hard by
// [Reshef et al. 2020].
const std::vector<QueryDef>& Catalog() {
  static const std::vector<QueryDef> catalog = [] {
    std::vector<QueryDef> c(kNumQueries);
    c[kHierRS] = {"hier_rs",
                  {{A("R", {"?x"}), A("S", {"?x", "?y"})}},
                  "FP", "sjf-CQ", true, true, true};
    c[kHierRST] = {"hier_rst",
                   {{A("R", {"?x", "?y"}), A("S", {"?x", "?z"}),
                     A("T", {"?x"})}},
                   "FP", "sjf-CQ", true, true, true};
    c[kRST] = {"rst",
               {{A("R", {"?x"}), A("S", {"?x", "?y"}), A("T", {"?y"})}},
               "#P-hard", "sjf-CQ", true, false, true};
    c[kUcq] = {"ucq_rst_ab",
               {{A("R", {"?x"}), A("S", {"?x", "?y"}), A("T", {"?y"})},
                {A("A", {"?x", "?y"}), A("B", {"?y"})}},
               "#P-hard", "conn. UCQ (constant-free)", true, false, false};
    c[kConst] = {"rst_const",
                 {{A("R", {"?x"}), A("S", {"?x", "?y"}),
                   A("T", {"?y", "$hub"})}},
                 "#P-hard", "sjf-CQ", true, false, true};
    c[kSelfJoin] = {"rsr_selfjoin",
                    {{A("R", {"?x"}), A("S", {"?x", "?y"}), A("R", {"?y"})}},
                    "#P-hard", "CQ (constant-free)", true, false, false};
    c[kNeg] = {"rst_neg",
               {{A("R", {"?x"}), A("S", {"?x", "?y"}),
                 A("T", {"?y"}, true)}},
               "#P-hard", "sjf-CQ¬", false, false, true};
    return c;
  }();
  return catalog;
}

Instance GenerateInstance(int query, int endogenous, int max_exogenous,
                          Rng& rng) {
  const QueryDef& q = Catalog()[query];
  Instance instance;
  instance.query = query;
  const int exogenous = rng.Range(0, max_exogenous);
  const size_t total = static_cast<size_t>(endogenous + exogenous);
  const int domain = std::max(3, static_cast<int>(total) * 2 / 3);
  std::set<std::string> seen;
  std::vector<std::string> facts;
  auto fact_text = [&](const AtomDef& atom,
                       std::map<std::string, std::string>* assignment) {
    std::string text = atom.relation + "(";
    for (size_t t = 0; t < atom.terms.size(); ++t) {
      if (t > 0) text += ",";
      const std::string& term = atom.terms[t];
      if (term[0] == '$') {
        text += term.substr(1);
      } else {
        auto [it, fresh] = assignment->emplace(term, "");
        if (fresh) it->second = Constant(rng.Range(0, domain - 1));
        text += it->second;
      }
    }
    return text + ")";
  };
  auto add = [&](std::string text) {
    if (facts.size() < total && seen.insert(text).second) {
      facts.push_back(std::move(text));
    }
  };
  // Planted matches first (about 60% of the facts), so most instances
  // satisfy the query in many overlapping ways; then uniform noise over the
  // query's relations, negated ones included.
  for (int attempt = 0; attempt < 4000 && facts.size() < total * 6 / 10;
       ++attempt) {
    const auto& disjunct = q.disjuncts[rng.Next() % q.disjuncts.size()];
    std::map<std::string, std::string> assignment;
    for (const AtomDef& atom : disjunct) {
      if (!atom.negated) add(fact_text(atom, &assignment));
    }
  }
  for (int attempt = 0; attempt < 40000 && facts.size() < total; ++attempt) {
    const auto& disjunct = q.disjuncts[rng.Next() % q.disjuncts.size()];
    const AtomDef& atom = disjunct[rng.Next() % disjunct.size()];
    std::map<std::string, std::string> assignment;
    add(fact_text(atom, &assignment));
  }
  // Shuffle, then the first `exogenous` facts become Dx.
  for (size_t i = facts.size(); i > 1; --i) {
    std::swap(facts[i - 1], facts[rng.Next() % i]);
  }
  for (size_t i = 0; i < facts.size(); ++i) {
    if (i < static_cast<size_t>(exogenous)) {
      instance.exogenous.push_back(facts[i]);
    } else {
      instance.endogenous.push_back(facts[i]);
    }
  }
  return instance;
}

void AddNullPadding(Instance* instance, int padding, Rng& rng) {
  const QueryDef& q = Catalog()[instance->query];
  int fresh = 0;
  for (int i = 0; i < padding; ++i) {
    const auto& disjunct = q.disjuncts[rng.Next() % q.disjuncts.size()];
    const AtomDef& atom = disjunct[rng.Next() % disjunct.size()];
    std::string text = atom.relation + "(";
    for (size_t t = 0; t < atom.terms.size(); ++t) {
      if (t > 0) text += ",";
      text += atom.terms[t][0] == '$' ? atom.terms[t].substr(1)
                                      : "p" + std::to_string(fresh++);
    }
    instance->endogenous.push_back(text + ")");
    ++instance->null_padding;
  }
}

std::string RenameFact(const std::string& fact, const std::string& suffix) {
  if (suffix.empty()) return fact;
  std::string out;
  size_t start = fact.find('(') + 1;
  out = fact.substr(0, start);
  while (start < fact.size()) {
    size_t end = fact.find_first_of(",)", start);
    const std::string term = fact.substr(start, end - start);
    out += term == "hub" ? term : term + suffix;
    out += fact[end];
    start = end + 1;
  }
  return out;
}

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kAllValues:
      return "all-values";
    case Mode::kMaxValue:
      return "max-value";
    case Mode::kTopK:
      return "top-k";
    case Mode::kClassifyOnly:
      return "classify-only";
  }
  return "?";
}

std::string RequestJson(const Op& op, const Instance& instance, bool trace) {
  std::string json = "{\"query\":" +
                     JsonQuote(Catalog()[instance.query].Text()) +
                     ",\"database\":{\"endogenous\":[";
  for (size_t i = 0; i < instance.endogenous.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonQuote(RenameFact(instance.endogenous[i], op.suffix));
  }
  json += "],\"exogenous\":[";
  for (size_t i = 0; i < instance.exogenous.size(); ++i) {
    if (i > 0) json += ",";
    json += JsonQuote(RenameFact(instance.exogenous[i], op.suffix));
  }
  json += "]},\"mode\":\"" + std::string(ModeName(op.mode)) + "\"";
  if (op.mode == Mode::kTopK) json += ",\"top_k\":" + std::to_string(op.top_k);
  if (!op.engine.empty()) json += ",\"engine\":" + JsonQuote(op.engine);
  if (op.allow_approx) json += ",\"allow_approx\":true";
  if (op.sampled) {
    char buffer[160];
    std::snprintf(buffer, sizeof(buffer),
                  ",\"approx\":{\"epsilon\":%.4g,\"delta\":%.4g,\"seed\":%llu,"
                  "\"max_samples\":0,\"strategy\":",
                  op.approx.epsilon, op.approx.delta,
                  static_cast<unsigned long long>(op.approx.seed));
    json += buffer + JsonQuote(op.approx.strategy) + "}";
  }
  if (trace) json += ",\"trace\":true";
  return json + "}";
}

}  // namespace perfbench
