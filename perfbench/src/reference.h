// Answer checks made apart from the serving path: a subset-formula
// reference over exact integers that calls only BooleanQuery::Evaluate,
// exact engine references for the sampled workloads, and the property
// checks every answer of every workload must pass.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "catalog.h"
#include "shapley/net/json.h"

namespace perfbench {

/// The exact facts of one base instance. Values are indexed like
/// Instance::endogenous.
struct Reference {
  size_t n = 0;         ///< |Dn|
  bool d_sat = false;   ///< D |= q
  bool dx_sat = false;  ///< Dx |= q
  /// Subset-formula values as numerators over `denominator` (= m! for the
  /// m facts that are not null padding); set for |Dn| <= kSubsetMax cores.
  bool exact = false;
  std::vector<int64_t> numerators;
  int64_t denominator = 1;
  /// Double form of the values, set whenever any reference was computed
  /// (subset formula or an exact engine).
  std::vector<double> values;
};

inline constexpr size_t kSubsetMax = 12;

/// [D |= q] and [Dx |= q] only.
Reference SatReference(const Instance& instance);
/// The subset formula over the instance's non-padding facts (at most
/// kSubsetMax of them); padding facts are null players and get 0.
Reference SubsetReference(const Instance& instance);
/// Exact values from an engine called directly ("lifted" or "ddnnf").
Reference EngineReference(const Instance& instance, const std::string& engine);

/// The fields of a response the checks read. Telemetry (stats, trace,
/// memo_hits) is never compared.
struct Answer {
  int status = 0;
  std::string engine;
  std::string tractability;
  std::string query_class;
  std::string error;
  std::vector<std::pair<std::string, std::string>> values;  // fact, "p/q"
  std::vector<std::pair<std::string, std::string>> ranked;
  bool approx = false;
  std::string strategy;
  uint64_t samples = 0;
  uint64_t hoeffding_baseline = 0;
  std::vector<double> half_widths;  // In the server's endogenous order.
};
std::optional<Answer> ReadAnswer(const shapley::net::Json& response);

/// The engine dichotomy routing should pick for `op` on `instance`.
std::string ExpectedEngine(const Op& op, const Instance& instance);

/// Facts of `instance` renamed by `suffix`, in the order the server
/// indexes ApproxInfo's per-fact arrays.
std::vector<std::string> ServerFactOrder(const Instance& instance,
                                         const std::string& suffix);

/// Tallies of the sampled answers of a run.
struct SampleTally {
  size_t facts = 0;
  size_t outside = 0;  ///< Facts farther than their half-width from exact.
  double delta = 0.05;
};

/// Checks one answer; returns "" when it passes, else what failed.
/// `order` is ServerFactOrder(...) for sampled answers.
std::string CheckAnswer(const Answer& answer, const Op& op,
                        const Instance& instance, const Reference& reference,
                        const std::vector<std::string>* order,
                        SampleTally* tally);

/// The run-level sampling check: at most a delta share of the sampled
/// facts lie outside their reported half-width of the exact value.
std::string CheckSampleShare(const SampleTally& tally);

/// The item id a /v1/batch ndjson line carries; -1 when it has none.
int64_t BatchLineId(const shapley::net::Json& line);

/// The batch-level check: every id in [0, size) arrives exactly once, and
/// no other id arrives.
std::string CheckBatchIds(const std::vector<int64_t>& ids, size_t size);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
