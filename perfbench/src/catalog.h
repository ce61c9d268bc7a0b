// The benchmark's query catalog (with the dichotomy verdicts the paper
// assigns), its seeded instance generator, and the wire requests it sends.
#ifndef PERFBENCH_CATALOG_H_
#define PERFBENCH_CATALOG_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common.h"

namespace perfbench {

struct AtomDef {
  std::string relation;
  /// "?x" is a variable, "$hub" a constant.
  std::vector<std::string> terms;
  bool negated = false;
};

struct QueryDef {
  std::string id;
  std::vector<std::vector<AtomDef>> disjuncts;
  /// What the paper assigns to the query's class: the data complexity of
  /// SVC_q ("FP" or "#P-hard") and the class the dichotomy is stated for.
  std::string tractability;
  std::string query_class;
  bool monotone = true;
  /// Hierarchical self-join-free CQ: the lifted engine serves it.
  bool lifted = false;
  /// Self-join-free and connected: an isolated fact over fresh constants is
  /// a null player, which the CQ¬ padding below relies on.
  bool sjf_connected = false;

  /// Wire text with explicit '?'/'$' term prefixes.
  std::string Text() const;
};

/// The catalog, indexed by these constants.
enum QueryId {
  kHierRS = 0,   // R(x), S(x,y)                 hierarchical sjf-CQ
  kHierRST,      // R(x,y), S(x,z), T(x)         hierarchical sjf-CQ
  kRST,          // R(x), S(x,y), T(y)           non-hierarchical sjf-CQ
  kUcq,          // R(x), S(x,y), T(y) | A(x,y), B(y)  connected UCQ
  kConst,        // R(x), S(x,y), T(y,hub)       CQ with a constant
  kSelfJoin,     // R(x), S(x,y), R(y)           self-join CQ
  kNeg,          // R(x), S(x,y), !T(y)          sjf-CQ with negation
  kNumQueries,
};
const std::vector<QueryDef>& Catalog();

/// One generated instance. Facts are in CLI syntax over renameable
/// constants ("c<i>", "p<i>"); "hub" is the query's constant and is never
/// renamed.
struct Instance {
  int query = 0;
  std::vector<std::string> endogenous;
  std::vector<std::string> exogenous;
  /// Endogenous facts that are null players by construction (isolated,
  /// fresh constants); only the first `endogenous.size() - null_padding`
  /// facts can have a non-zero value.
  size_t null_padding = 0;
};

/// Draws an instance of `query` with `endogenous` endogenous facts and
/// 0..max_exogenous exogenous ones, planting query matches so values are
/// mostly non-zero.
Instance GenerateInstance(int query, int endogenous, int max_exogenous,
                          Rng& rng);

/// Appends `padding` isolated endogenous facts over fresh constants (null
/// players of sjf connected queries).
void AddNullPadding(Instance* instance, int padding, Rng& rng);

/// Renames every constant of `fact` except "hub" by appending `suffix`.
std::string RenameFact(const std::string& fact, const std::string& suffix);

enum class Mode { kAllValues, kMaxValue, kTopK, kClassifyOnly };
const char* ModeName(Mode mode);

struct ApproxSpec {
  double epsilon = 0.05;
  double delta = 0.05;
  uint64_t seed = 1;
  std::string strategy = "hoeffding";
};

/// One operation: a request over a (possibly renamed) base instance.
struct Op {
  int base = 0;         ///< Index into the workload's base instances.
  std::string suffix;   ///< Constant-renaming suffix; "" = the base itself.
  Mode mode = Mode::kAllValues;
  int top_k = 3;
  std::string engine;   ///< "" = dichotomy routing.
  bool allow_approx = false;
  bool sampled = false; ///< Carries an approx block.
  ApproxSpec approx;
  bool heavy = false;   ///< A batch's heavy exact item.
};

/// The request JSON for `op` over `instance` (facts renamed by op.suffix).
std::string RequestJson(const Op& op, const Instance& instance, bool trace);

}  // namespace perfbench

#endif  // PERFBENCH_CATALOG_H_
