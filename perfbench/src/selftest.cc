// Feeds every answer check a correct answer, which must pass, and a
// corrupted copy, which must fail. Answers come from the service in-process
// through the wire codec, so they have exactly the served shape.
//
//   perfbench_selftest        (exit 0 when every check behaves)
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>

#include "reference.h"
#include "shapley/arith/big_int.h"
#include "shapley/arith/big_rational.h"
#include "shapley/net/codec.h"
#include "shapley/service/shapley_service.h"

namespace perfbench {
namespace {

using shapley::net::Json;

shapley::ShapleyService& Service() {
  static shapley::ShapleyService service({.threads = 1});
  return service;
}

Answer Serve(const Op& op, const Instance& instance) {
  auto json = Json::Parse(RequestJson(op, instance, false));
  shapley::net::DecodedRequest decoded;
  if (!json || shapley::net::DecodeRequest(*json, &decoded)) {
    std::cerr << "selftest: request did not decode\n";
    std::exit(2);
  }
  const shapley::SvcResponse response = Service().Compute(decoded.request);
  auto answer = ReadAnswer(shapley::net::EncodeResponse(response, *decoded.schema));
  if (!answer) {
    std::cerr << "selftest: unreadable answer\n";
    std::exit(2);
  }
  return *answer;
}

shapley::BigRational Value(const std::string& text) {
  const size_t slash = text.find('/');
  if (slash == std::string::npos) return shapley::BigInt::FromString(text);
  return {shapley::BigInt::FromString(text.substr(0, slash)),
          shapley::BigInt::FromString(text.substr(slash + 1))};
}

// Adds `delta` to one value and subtracts it from another (the sum, and so
// the efficiency check, stays intact).
void Shift(Answer* a, size_t i, size_t j, const shapley::BigRational& delta) {
  a->values[i].second = (Value(a->values[i].second) + delta).ToString();
  a->values[j].second = (Value(a->values[j].second) - delta).ToString();
}

int failures = 0;

void Expect(const std::string& name, const std::string& clean, const std::string& corrupt,
            const std::string& want) {
  const bool ok = clean.empty() && corrupt.find(want) != std::string::npos;
  std::printf("%-48s %s\n", name.c_str(), ok ? "ok" : "FAILED");
  if (!ok) {
    std::printf("  clean: '%s'\n  corrupt: '%s' (want '%s')\n", clean.c_str(),
                corrupt.c_str(), want.c_str());
    ++failures;
  }
}

std::string Check(const Answer& a, const Op& op, const Instance& instance,
                  const Reference& reference, const std::vector<std::string>* order = nullptr,
                  SampleTally* tally = nullptr) {
  SampleTally local;
  return CheckAnswer(a, op, instance, reference, order, tally ? tally : &local);
}

// An instance of `query` with |Dn| = n whose values are not all equal.
Instance Varied(int query, int n, uint64_t seed) {
  for (uint64_t s = seed;; ++s) {
    Rng rng(s);
    Instance instance = GenerateInstance(query, n, 1, rng);
    const Reference r = SubsetReference(instance);
    if (!r.exact) return instance;
    auto sorted = r.numerators;
    std::sort(sorted.begin(), sorted.end());
    if (sorted.front() != sorted.back() && r.d_sat && !r.dx_sat) return instance;
  }
}

void Run() {
  // Exact all-values answers: subset-formula reference, efficiency, range.
  {
    const Instance instance = Varied(kRST, 8, 1);
    const Reference reference = SubsetReference(instance);
    Op op;
    const Answer clean = Serve(op, instance);
    Answer swapped = clean;
    size_t i = 0, j = 1;
    while (swapped.values[i].second == swapped.values[j].second) ++j;
    std::swap(swapped.values[i].second, swapped.values[j].second);
    Expect("subset-formula reference", Check(clean, op, instance, reference),
           Check(swapped, op, instance, reference), "subset-formula reference");

    Answer more = clean;
    more.values[0].second = (Value(more.values[0].second) + shapley::BigRational(
                                 shapley::BigInt(1), shapley::BigInt(40320))).ToString();
    Expect("efficiency axiom", Check(clean, op, instance, reference),
           Check(more, op, instance, reference), "efficiency");

    Answer outside = clean;
    Shift(&outside, 0, 1, shapley::BigRational(1));
    Expect("monotone values in [0, 1]", Check(clean, op, instance, reference),
           Check(outside, op, instance, reference), "outside [0, 1]");

    Answer missing = clean;
    missing.values.pop_back();
    Expect("every endogenous fact answered", Check(clean, op, instance, reference),
           Check(missing, op, instance, reference), "values for");

    Answer engine = clean;
    engine.engine = "via-fgmc(lifted-safe-plan)";
    Expect("routed engine", Check(clean, op, instance, reference),
           Check(engine, op, instance, reference), "engine");

    Answer failed = clean;
    failed.status = 413;
    failed.error = "capacity-exceeded: test";
    Expect("error status", Check(clean, op, instance, reference),
           Check(failed, op, instance, reference), "status 413");
  }
  // Efficiency alone, past the subset-formula size (brute force at 14).
  {
    Rng rng(5);
    const Instance instance = GenerateInstance(kNeg, 14, 1, rng);
    const Reference reference = SatReference(instance);
    Op op;
    const Answer clean = Serve(op, instance);
    Answer more = clean;
    more.values[3].second = (Value(more.values[3].second) + shapley::BigRational(
                                 shapley::BigInt(1), shapley::BigInt(1000))).ToString();
    Expect("efficiency axiom, |Dn| = 14", Check(clean, op, instance, reference),
           Check(more, op, instance, reference), "efficiency");
  }
  // Max and top-k.
  {
    const Instance instance = Varied(kHierRS, 9, 11);
    const Reference reference = SubsetReference(instance);
    Op op;
    op.mode = Mode::kTopK;
    op.top_k = 3;
    // The smallest-valued fact, with its true value.
    size_t low = 0;
    for (size_t i = 0; i < instance.endogenous.size(); ++i) {
      if (reference.numerators[i] < reference.numerators[low]) low = i;
    }
    const std::pair<std::string, std::string> lowest = {
        instance.endogenous[low],
        shapley::BigRational(shapley::BigInt(reference.numerators[low]),
                             shapley::BigInt(reference.denominator))
            .ToString()};
    const Answer clean = Serve(op, instance);
    Answer demoted = clean;
    demoted.ranked[0] = lowest;
    Expect("top-k matches the largest reference values", Check(clean, op, instance, reference),
           Check(demoted, op, instance, reference), "rank");

    op.mode = Mode::kMaxValue;
    const Answer max_clean = Serve(op, instance);
    Answer max_wrong = max_clean;
    max_wrong.ranked[0] = lowest;
    Expect("max matches the largest reference value", Check(max_clean, op, instance, reference),
           Check(max_wrong, op, instance, reference), "rank-1");
  }
  // Classify-only verdicts against the paper's.
  {
    Rng rng(3);
    const Instance instance = GenerateInstance(kConst, 6, 1, rng);
    const Reference reference = SubsetReference(instance);
    Op op;
    op.mode = Mode::kClassifyOnly;
    const Answer clean = Serve(op, instance);
    Answer wrong = clean;
    wrong.tractability = "FP";
    Expect("classify-only verdict", Check(clean, op, instance, reference),
           Check(wrong, op, instance, reference), "verdict");
  }
  // Sampling: half-widths against an exact reference, hoeffding sums,
  // adaptive sample counts.
  {
    Rng rng(8);
    const Instance instance = GenerateInstance(kRST, 30, 2, rng);
    const Reference reference = EngineReference(instance, "ddnnf");
    const std::vector<std::string> order = ServerFactOrder(instance, "");
    Op op;
    op.engine = "sampling";
    op.sampled = true;
    op.approx.seed = 17;
    op.approx.strategy = "bernstein";
    const Answer clean = Serve(op, instance);
    SampleTally clean_tally, corrupt_tally;
    const std::string clean_error = Check(clean, op, instance, reference, &order, &clean_tally);
    Answer far = clean;
    for (auto& [fact, value] : far.values) {
      value = (Value(value) + shapley::BigRational(1)).ToString();
    }
    Check(far, op, instance, reference, &order, &corrupt_tally);
    Expect("sampled facts within their half-width",
           clean_error.empty() ? CheckSampleShare(clean_tally) : clean_error,
           CheckSampleShare(corrupt_tally), "outside their half-width");

    Answer greedy = clean;
    greedy.samples = greedy.hoeffding_baseline + 1;
    Expect("adaptive draws at most the hoeffding baseline", clean_error,
           Check(greedy, op, instance, reference, &order), "over the hoeffding baseline");

    op.approx.strategy = "hoeffding";
    const Answer hoeffding = Serve(op, instance);
    Answer unbalanced = hoeffding;
    unbalanced.values[0].second =
        (Value(unbalanced.values[0].second) +
         shapley::BigRational(shapley::BigInt(1), shapley::BigInt(unbalanced.samples)))
            .ToString();
    Expect("hoeffding estimates sum exactly", Check(hoeffding, op, instance, reference, &order),
           Check(unbalanced, op, instance, reference, &order), "efficiency");
  }
  // Batch ids.
  Expect("batch ids arrive exactly once", CheckBatchIds({2, 0, 1}, 3),
         CheckBatchIds({2, 0, 2}, 3), "arrived twice");
  Expect("batch ids all arrive", CheckBatchIds({1, 0}, 2), CheckBatchIds({1}, 2),
         "never arrived");
  Expect("batch ids stay within the post", CheckBatchIds({1, 0}, 2),
         CheckBatchIds({1, 0, 7}, 2), "out of range");
  auto id_of = [](const char* line) { return BatchLineId(*Json::Parse(line)); };
  Expect("batch lines carry their id",
         CheckBatchIds({id_of(R"({"id":1,"status":200})"), id_of(R"({"id":0,"status":200})")}, 2),
         CheckBatchIds({id_of(R"({"id":1,"status":200})"), id_of(R"({"status":200})")}, 2),
         "out of range");
  Expect("batch ids fit the id range",
         CheckBatchIds({id_of(R"({"id":0})")}, 1),
         CheckBatchIds({id_of(R"({"id":18446744073709551615})")}, 1), "out of range");
}

}  // namespace
}  // namespace perfbench

int main() {
  perfbench::Run();
  std::printf("%s\n", perfbench::failures == 0 ? "selftest passed" : "selftest FAILED");
  return perfbench::failures == 0 ? 0 : 1;
}
