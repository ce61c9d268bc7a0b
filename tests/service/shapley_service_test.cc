#include "shapley/service/shapley_service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <vector>

#include "shapley/data/parser.h"
#include "shapley/engines/fgmc.h"
#include "shapley/engines/svc.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema, const char* text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

PartitionedDatabase RandomDb(const std::shared_ptr<Schema>& schema,
                             uint64_t seed, size_t num_facts = 7) {
  RandomDatabaseOptions options;
  options.num_facts = num_facts;
  options.domain_size = 3;
  options.exogenous_fraction = 0.25;
  options.seed = seed;
  return RandomPartitionedDatabase(schema, options);
}

// A database with n endogenous R-facts (beyond any brute-force guard when
// n > kBruteForceMaxEndogenous).
PartitionedDatabase WideDb(const std::shared_ptr<Schema>& schema, size_t n) {
  std::string text;
  for (size_t i = 0; i < n; ++i) {
    text += "R(a" + std::to_string(i) + ") ";
  }
  text += "S(a0,b) T(b)";
  return ParsePartitionedDatabase(schema, text);
}

// The dichotomy as routing policy: the tractable hierarchical sjf-CQ goes
// to the lifted polynomial engine, the #P-hard non-hierarchical one falls
// back to guarded brute force — and both answers match the serial engines
// bit for bit, serial or parallel, with or without the shared cache.
TEST(ShapleyServiceTest, RoutesByDichotomyAndMatchesSerialEngines) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 7);
  SvcViaFgmc serial_lifted(std::make_shared<LiftedFgmc>());
  BruteForceSvc serial_brute;

  for (size_t threads : {size_t{1}, size_t{2}}) {
    for (bool use_cache : {true, false}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) +
                   " cache=" + std::to_string(use_cache));
      ShapleyService service(
          ServiceOptions{.threads = threads, .use_cache = use_cache});
      EXPECT_EQ(service.Stats().pool_threads, threads);
      EXPECT_EQ(service.cache() != nullptr, use_cache);

      SvcRequest easy_request;
      easy_request.query = easy;
      easy_request.db = db;
      SvcResponse easy_response = service.Submit(easy_request).get();
      ASSERT_TRUE(easy_response.ok()) << easy_response.error->ToString();
      EXPECT_EQ(easy_response.engine, "via-fgmc(lifted-safe-plan)");
      EXPECT_TRUE(easy_response.routed_by_classifier);
      EXPECT_EQ(easy_response.verdict.tractability, Tractability::kFP);
      EXPECT_EQ(easy_response.verdict.query_class, "sjf-CQ");
      EXPECT_EQ(easy_response.values, serial_lifted.AllValues(*easy, db));

      SvcRequest hard_request;
      hard_request.query = hard;
      hard_request.db = db;
      SvcResponse hard_response = service.Submit(hard_request).get();
      ASSERT_TRUE(hard_response.ok()) << hard_response.error->ToString();
      EXPECT_EQ(hard_response.engine, "brute-force");
      EXPECT_TRUE(hard_response.routed_by_classifier);
      EXPECT_EQ(hard_response.verdict.tractability,
                Tractability::kSharpPHard);
      EXPECT_EQ(hard_response.values, serial_brute.AllValues(*hard, db));
    }
  }
}

// The acceptance bar of the serving layer: a 64-request mixed-class batch
// submitted through the async front matches the serial per-engine
// AllValues bit for bit, and the permutation oracle (Equation 1 read
// literally), with the verdict attached to every response. Three classes
// take turns: a hierarchical sjf-CQ (lifted), a non-hierarchical sjf-CQ and
// a UCQ (both guarded brute force).
TEST(ShapleyServiceTest, MixedClassBatch64IsBitIdenticalToSerialEngines) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  // The UCQ uses R at arity 2, so it gets a schema of its own.
  auto ucq_schema = Schema::Create();
  QueryPtr ucq = ParseQuery(ucq_schema, "R(x,y) | R(x,x)");

  std::vector<SvcRequest> requests;
  for (size_t k = 0; k < 64; ++k) {
    SvcRequest request;
    request.query = k % 3 == 0 ? easy : k % 3 == 1 ? hard : ucq;
    request.db = RandomDb(k % 3 == 2 ? ucq_schema : schema, 100 + 13 * k);
    requests.push_back(std::move(request));
  }
  // Keep copies: Submit consumes the request objects.
  std::vector<SvcRequest> reference = requests;

  ShapleyService service(ServiceOptions{.threads = 4});
  std::vector<std::future<SvcResponse>> futures;
  for (SvcRequest& request : requests) {
    futures.push_back(service.Submit(std::move(request)));
  }
  ASSERT_EQ(futures.size(), 64u);

  SvcViaFgmc serial_lifted(std::make_shared<LiftedFgmc>());
  BruteForceSvc serial_brute;
  PermutationSvc permutations;
  for (size_t k = 0; k < futures.size(); ++k) {
    SvcResponse response = futures[k].get();
    ASSERT_TRUE(response.ok()) << "request " << k << ": "
                               << response.error->ToString();
    EXPECT_NE(response.verdict.query_class, "");
    SvcEngine& serial = (k % 3 == 0)
                            ? static_cast<SvcEngine&>(serial_lifted)
                            : static_cast<SvcEngine&>(serial_brute);
    const SvcRequest& ref = reference[k];
    EXPECT_EQ(response.engine, serial.name()) << "request " << k;
    EXPECT_EQ(response.values, serial.AllValues(*ref.query, ref.db))
        << "request " << k;
    ASSERT_LE(ref.db.NumEndogenous(), 9u);
    ASSERT_EQ(response.values.size(), ref.db.NumEndogenous());
    for (const Fact& f : ref.db.endogenous().facts()) {
      EXPECT_EQ(response.values.at(f),
                permutations.Value(*ref.query, ref.db, f))
          << "request " << k;
    }
  }
  EXPECT_EQ(service.requests_completed(), 64u);
  EXPECT_EQ(service.requests_failed(), 0u);
}

TEST(ShapleyServiceTest, ClassifyOnlyRunsNoEngine) {
  auto schema = Schema::Create();
  ShapleyService service(ServiceOptions{.threads = 1});

  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y), T(y)");
  request.mode = SvcMode::kClassifyOnly;
  SvcResponse response = service.Compute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.engine, "");
  EXPECT_EQ(response.verdict.tractability, Tractability::kSharpPHard);
  EXPECT_TRUE(response.values.empty());
  EXPECT_TRUE(response.ranked.empty());
}

TEST(ShapleyServiceTest, MaxValueAndTopKAgreeWithAllValues) {
  auto schema = Schema::Create();
  QueryPtr q = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 21);
  ASSERT_GT(db.NumEndogenous(), 2u);

  ShapleyService service(ServiceOptions{.threads = 2});

  SvcRequest all;
  all.query = q;
  all.db = db;
  SvcResponse all_response = service.Compute(all);
  ASSERT_TRUE(all_response.ok());

  SvcRequest max;
  max.query = q;
  max.db = db;
  max.mode = SvcMode::kMaxValue;
  SvcResponse max_response = service.Compute(max);
  ASSERT_TRUE(max_response.ok());
  ASSERT_EQ(max_response.ranked.size(), 1u);
  BruteForceSvc serial;
  auto [expected_fact, expected_value] = serial.MaxValue(*q, db);
  EXPECT_EQ(max_response.ranked[0].first, expected_fact);
  EXPECT_EQ(max_response.ranked[0].second, expected_value);

  SvcRequest topk;
  topk.query = q;
  topk.db = db;
  topk.mode = SvcMode::kTopK;
  topk.top_k = 3;
  SvcResponse topk_response = service.Compute(topk);
  ASSERT_TRUE(topk_response.ok());
  ASSERT_EQ(topk_response.ranked.size(),
            std::min<size_t>(3, db.NumEndogenous()));
  // Descending, ties by fact order, consistent with AllValues.
  for (size_t i = 0; i + 1 < topk_response.ranked.size(); ++i) {
    const auto& a = topk_response.ranked[i];
    const auto& b = topk_response.ranked[i + 1];
    EXPECT_TRUE(b.second < a.second ||
                (a.second == b.second && a.first < b.first));
  }
  EXPECT_EQ(topk_response.ranked[0].second, expected_value);
  for (const auto& [fact, value] : topk_response.ranked) {
    EXPECT_EQ(all_response.values.at(fact), value);
  }
}

TEST(ShapleyServiceTest, OversizedUnservableInstanceFailsWithStructuredCapacity) {
  auto schema = Schema::Create();
  // Negation rules out every engine once the exhaustive guard is passed:
  // lifted and ddnnf refuse non-monotone queries, brute/permutations are
  // guarded. Non-hierarchical with negation → #P-hard by [Reshef et al.].
  QueryPtr hard_neg = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  PartitionedDatabase big = WideDb(schema, 30);
  ASSERT_GT(big.NumEndogenous(), kBruteForceMaxEndogenous);

  ShapleyService service(ServiceOptions{.threads = 1});
  SvcRequest request;
  request.query = hard_neg;
  request.db = big;
  SvcResponse response = service.Submit(request).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, SvcErrorCode::kCapacityExceeded);
  // The verdict still explains *why* there is no polynomial way out.
  EXPECT_EQ(response.verdict.tractability, Tractability::kSharpPHard);
  EXPECT_EQ(response.engine, "");  // No engine ran.
}

TEST(ShapleyServiceTest, MonotoneQueryBeyondBruteGuardRoutesToDdnnf) {
  auto schema = Schema::Create();
  // #P-hard class, but this *instance* has trivial lineage, and d-DNNF
  // compilation is the only registered engine whose caps admit a monotone
  // query with |Dn| > the exhaustive guard — routing must find it instead
  // of failing.
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase big = WideDb(schema, 30);

  ShapleyService service(ServiceOptions{.threads = 1});
  SvcRequest request;
  request.query = hard;
  request.db = big;
  SvcResponse response = service.Submit(request).get();
  ASSERT_TRUE(response.ok()) << response.error->ToString();
  EXPECT_EQ(response.engine, "via-fgmc(lineage-ddnnf)");
  EXPECT_TRUE(response.routed_by_classifier);
  EXPECT_EQ(response.values.size(), big.NumEndogenous());
}

TEST(ShapleyServiceTest, BruteForceEngineThrowsStructuredSvcException) {
  auto schema = Schema::Create();
  QueryPtr q = ParseQuery(schema, "R(x)");
  PartitionedDatabase big = WideDb(schema, 30);
  BruteForceSvc brute;
  try {
    brute.AllValues(*q, big);
    FAIL() << "expected SvcException";
  } catch (const SvcException& e) {
    EXPECT_EQ(e.error().code, SvcErrorCode::kCapacityExceeded);
    EXPECT_EQ(e.error().engine, "brute-force");
  }
  // And it is still an invalid_argument for pre-structured call sites.
  EXPECT_THROW(brute.AllValues(*q, big), std::invalid_argument);
}

TEST(ShapleyServiceTest, EngineOverridesAreValidatedAgainstCaps) {
  auto schema = Schema::Create();
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase db = RandomDb(schema, 3);

  ShapleyService service(ServiceOptions{.threads = 1});

  SvcRequest unknown;
  unknown.query = hard;
  unknown.db = db;
  unknown.engine = "no-such-engine";
  SvcResponse unknown_response = service.Compute(unknown);
  ASSERT_FALSE(unknown_response.ok());
  EXPECT_EQ(unknown_response.error->code, SvcErrorCode::kInvalidRequest);

  SvcRequest lifted;
  lifted.query = hard;  // Non-hierarchical: outside the lifted class.
  lifted.db = db;
  lifted.engine = "lifted";
  SvcResponse lifted_response = service.Compute(lifted);
  ASSERT_FALSE(lifted_response.ok());
  EXPECT_EQ(lifted_response.error->code, SvcErrorCode::kUnsupportedQuery);
  EXPECT_EQ(lifted_response.error->engine, "lifted");

  // A supported explicit override runs and is marked as not routed.
  SvcRequest brute;
  brute.query = hard;
  brute.db = db;
  brute.engine = "brute";
  SvcResponse brute_response = service.Compute(brute);
  ASSERT_TRUE(brute_response.ok());
  EXPECT_FALSE(brute_response.routed_by_classifier);
  EXPECT_EQ(brute_response.engine, "brute-force");
}

TEST(ShapleyServiceTest, DeadlinesAndCancellationFailFast) {
  auto schema = Schema::Create();
  QueryPtr q = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 9);

  ShapleyService service(ServiceOptions{.threads = 1});

  SvcRequest late;
  late.query = q;
  late.db = db;
  late.deadline =
      std::chrono::steady_clock::now() - std::chrono::milliseconds(5);
  SvcResponse late_response = service.Submit(late).get();
  ASSERT_FALSE(late_response.ok());
  EXPECT_EQ(late_response.error->code, SvcErrorCode::kDeadlineExceeded);

  CancelToken token = MakeCancelToken();
  token->store(true);
  SvcRequest cancelled;
  cancelled.query = q;
  cancelled.db = db;
  cancelled.cancel = token;
  SvcResponse cancelled_response = service.Submit(cancelled).get();
  ASSERT_FALSE(cancelled_response.ok());
  EXPECT_EQ(cancelled_response.error->code, SvcErrorCode::kCancelled);
}

TEST(ShapleyServiceTest, MalformedRequestsAreStructuredErrors) {
  auto schema = Schema::Create();
  ShapleyService service(ServiceOptions{.threads = 1});

  SvcRequest no_query;
  SvcResponse no_query_response = service.Submit(no_query).get();
  ASSERT_FALSE(no_query_response.ok());
  EXPECT_EQ(no_query_response.error->code, SvcErrorCode::kInvalidRequest);

  // MaxValue over an empty Dn: the engine's invalid_argument becomes a
  // structured error instead of escaping the worker thread.
  SvcRequest empty_dn;
  empty_dn.query = ParseQuery(schema, "R(x)");
  empty_dn.db = ParsePartitionedDatabase(schema, "| R(a)");
  empty_dn.mode = SvcMode::kMaxValue;
  SvcResponse empty_response = service.Submit(empty_dn).get();
  ASSERT_FALSE(empty_response.ok());
  EXPECT_EQ(empty_response.error->code, SvcErrorCode::kInvalidRequest);

  // AllValues over the same empty Dn is well-formed: no players, no values.
  empty_dn.mode = SvcMode::kAllValues;
  SvcResponse empty_all = service.Submit(empty_dn).get();
  ASSERT_TRUE(empty_all.ok()) << empty_all.error->ToString();
  EXPECT_TRUE(empty_all.values.empty());
}

TEST(ShapleyServiceTest, ShutdownResolvesNewRequestsAsCancelled) {
  auto schema = Schema::Create();
  QueryPtr q = ParseQuery(schema, "R(x)");
  ShapleyService service(ServiceOptions{.threads = 1});
  service.Shutdown();

  SvcRequest request;
  request.query = q;
  request.db = ParsePartitionedDatabase(schema, "R(a)");
  SvcResponse response = service.Submit(request).get();
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, SvcErrorCode::kCancelled);
}

TEST(ShapleyServiceTest, DefaultRegistryListsTheFiveEngines) {
  EngineRegistry registry = EngineRegistry::Default();
  EXPECT_EQ(registry.Names(),
            (std::vector<std::string>{"brute", "ddnnf", "lifted",
                                      "permutations", "sampling"}));
  ASSERT_NE(registry.Find("brute"), nullptr);
  EXPECT_EQ(registry.Find("brute")->caps.max_endogenous,
            kBruteForceMaxEndogenous);
  EXPECT_TRUE(registry.Find("lifted")->caps.hierarchical_sjf_cq_only);
  EXPECT_TRUE(registry.Find("ddnnf")->caps.monotone_only);
  EXPECT_FALSE(registry.Find("brute")->caps.approximate);
  EXPECT_TRUE(registry.Find("sampling")->caps.approximate);
  EXPECT_NE(registry.Find("sampling")->caps.error_model, "");
  EXPECT_EQ(registry.Find("nope"), nullptr);
  EXPECT_THROW(registry.Create("nope"), SvcException);
  EXPECT_EQ(registry.Create("lifted")->name(), "via-fgmc(lifted-safe-plan)");
}

// The headline of the approximation subsystem: the exact same instance
// that fails with a structured kCapacityExceeded (non-monotone, beyond
// every exact engine's reach) completes via the sampling engine once the
// request opts in — with the (ε, δ) contract attached to the response.
TEST(ShapleyServiceTest, AllowApproxRoutesPreviouslyRefusedInstanceToSampler) {
  auto schema = Schema::Create();
  QueryPtr hard_neg = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  PartitionedDatabase big = WideDb(schema, 30);
  ASSERT_GT(big.NumEndogenous(), kBruteForceMaxEndogenous);

  ShapleyService service(ServiceOptions{.threads = 2});

  SvcRequest refused;
  refused.query = hard_neg;
  refused.db = big;
  SvcResponse refused_response = service.Compute(refused);
  ASSERT_FALSE(refused_response.ok());
  EXPECT_EQ(refused_response.error->code, SvcErrorCode::kCapacityExceeded);
  EXPECT_FALSE(refused_response.approx.has_value());

  SvcRequest allowed;
  allowed.query = hard_neg;
  allowed.db = big;
  allowed.allow_approx = true;
  allowed.approx = ApproxParams{.epsilon = 0.2, .delta = 0.1, .seed = 13};
  SvcResponse response = service.Compute(allowed);
  ASSERT_TRUE(response.ok()) << response.error->ToString();
  EXPECT_EQ(response.engine, "sampling");
  EXPECT_TRUE(response.routed_by_classifier);
  EXPECT_EQ(response.values.size(), big.NumEndogenous());
  ASSERT_TRUE(response.approx.has_value());
  EXPECT_EQ(response.approx->seed, 13u);
  // Ranges are per fact: every endogenous fact here is an R-fact, and R
  // only occurs positively — the per-request range-2 "query has negation"
  // tax no longer applies, so the derived budget is 4x tighter.
  EXPECT_EQ(response.approx->range, 1.0);
  EXPECT_GE(response.approx->samples, HoeffdingSamples(0.2, 0.1, 1.0));
  EXPECT_EQ(response.approx->strategy, "hoeffding");
  EXPECT_LE(response.approx->half_width, 0.2 + 1e-12);

  // Same seed through the service → bit-identical estimates, on any pool.
  SvcRequest rerun = allowed;
  EXPECT_EQ(service.Compute(rerun).values, response.values);
}

// allow_approx must also survive an exact engine dying on capacity at RUN
// time (the d-DNNF compiler can blow its node cap on instances routing
// cannot pre-screen): the service retries once with an admitting
// approximate engine instead of surfacing the refusal the caller opted
// out of.
TEST(ShapleyServiceTest, RunTimeCapacityFailureFallsBackToSamplerOnOptIn) {
  // A stand-in for "compilation blew up": admits every monotone query on
  // paper, always fails with a capacity error when run.
  class ExplodingEngine : public SvcEngine {
   public:
    std::string name() const override { return "exploding"; }
    EngineCaps caps() const override { return {.monotone_only = true}; }
    BigRational Value(const BooleanQuery&, const PartitionedDatabase&,
                      const Fact&) override {
      throw SvcException({SvcErrorCode::kCapacityExceeded,
                          "node cap exceeded", "exploding"});
    }
  };

  auto schema = Schema::Create();
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), T(y)");
  PartitionedDatabase big = WideDb(schema, 30);

  // Replace ddnnf so the exploding engine is the routed exact choice for
  // monotone instances beyond the brute guard.
  EngineRegistry registry = EngineRegistry::Default();
  registry.Register({"ddnnf", "always-capacity-failing stand-in",
                     ExplodingEngine().caps(),
                     [] { return std::make_shared<ExplodingEngine>(); }});

  ShapleyService service(ServiceOptions{.threads = 1}, std::move(registry));

  SvcRequest refused;
  refused.query = hard;
  refused.db = big;
  SvcResponse refused_response = service.Compute(refused);
  ASSERT_FALSE(refused_response.ok());
  EXPECT_EQ(refused_response.error->code, SvcErrorCode::kCapacityExceeded);

  SvcRequest allowed;
  allowed.query = hard;
  allowed.db = big;
  allowed.allow_approx = true;
  allowed.approx = ApproxParams{.epsilon = 0.2, .delta = 0.1, .seed = 5};
  SvcResponse response = service.Compute(allowed);
  ASSERT_TRUE(response.ok()) << response.error->ToString();
  EXPECT_EQ(response.engine, "sampling");
  EXPECT_EQ(response.values.size(), big.NumEndogenous());
  ASSERT_TRUE(response.approx.has_value());
}

// Approximation is opt-in, never preferred: when an exact engine admits
// the instance, allow_approx must not change the routing — and exact
// responses carry no approx block.
TEST(ShapleyServiceTest, ExactEnginesStillWinWhenTheyAdmitTheInstance) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 7);

  ShapleyService service(ServiceOptions{.threads = 1});
  SvcRequest request;
  request.query = easy;
  request.db = db;
  request.allow_approx = true;
  SvcResponse response = service.Compute(request);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response.engine, "via-fgmc(lifted-safe-plan)");
  EXPECT_FALSE(response.approx.has_value());
}

// An explicit engine override is consent enough — "sampling" works without
// allow_approx, and its caps admit any query class at any |Dn|.
TEST(ShapleyServiceTest, ExplicitSamplingOverrideServesSmallInstancesToo) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 7);

  ShapleyService service(ServiceOptions{.threads = 1});
  SvcRequest request;
  request.query = easy;
  request.db = db;
  request.engine = "sampling";
  request.approx = ApproxParams{.epsilon = 0.1, .delta = 0.05, .seed = 3};
  SvcResponse response = service.Compute(request);
  ASSERT_TRUE(response.ok()) << response.error->ToString();
  EXPECT_EQ(response.engine, "sampling");
  EXPECT_FALSE(response.routed_by_classifier);
  ASSERT_TRUE(response.approx.has_value());

  // Cross-validation through the serving layer: estimate within the
  // reported half-width of the exact lifted answer.
  SvcViaFgmc exact(std::make_shared<LiftedFgmc>());
  std::map<Fact, BigRational> reference = exact.AllValues(*easy, db);
  for (const auto& [fact, value] : response.values) {
    EXPECT_NEAR(value.ToDouble(), reference.at(fact).ToDouble(),
                response.approx->half_width);
  }
}

// Strategy plumbing, request → engine → response: an adaptive strategy
// override is honored, echoed back in ApproxInfo.strategy, and its sample
// count never exceeds the Hoeffding baseline the same contract would have
// drawn up front — with bit-identical reruns through the service pool.
TEST(ShapleyServiceTest, AdaptiveStrategyIsEchoedAndNeverExceedsBaseline) {
  auto schema = Schema::Create();
  // Negated so no exact engine admits the beyond-guard instance (the
  // monotone variant would route to the d-DNNF pipeline instead).
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  PartitionedDatabase big = WideDb(schema, 30);
  ASSERT_GT(big.NumEndogenous(), kBruteForceMaxEndogenous);

  ShapleyService service(ServiceOptions{.threads = 2});
  for (ApproxStrategy strategy :
       {ApproxStrategy::kBernstein, ApproxStrategy::kStratified}) {
    SCOPED_TRACE(ToString(strategy));
    SvcRequest request;
    request.query = hard;
    request.db = big;
    request.allow_approx = true;
    request.approx = ApproxParams{
        .epsilon = 0.1, .delta = 0.1, .seed = 21, .strategy = strategy};
    SvcRequest rerun = request;

    SvcResponse response = service.Compute(std::move(request));
    ASSERT_TRUE(response.ok()) << response.error->ToString();
    EXPECT_EQ(response.engine, "sampling");
    ASSERT_TRUE(response.approx.has_value());
    EXPECT_EQ(response.approx->strategy, std::string(ToString(strategy)));
    EXPECT_LE(response.approx->samples, response.approx->hoeffding_baseline);
    EXPECT_EQ(response.approx->fact_half_widths.size(), big.NumEndogenous());
    EXPECT_EQ(response.values.size(), big.NumEndogenous());

    SvcResponse again = service.Compute(std::move(rerun));
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(again.values, response.values);
    EXPECT_EQ(again.approx->samples, response.approx->samples);
  }
}

// An out-of-range strategy in the request must come back as a structured
// SvcError from the sampling engine — not an exception through the future,
// not a silent fallback to a default strategy.
TEST(ShapleyServiceTest, UnknownApproxStrategyFailsWithStructuredError) {
  auto schema = Schema::Create();
  QueryPtr easy = ParseQuery(schema, "R(x), S(x,y)");
  PartitionedDatabase db = RandomDb(schema, 7);

  ShapleyService service(ServiceOptions{.threads = 1});
  SvcRequest request;
  request.query = easy;
  request.db = db;
  request.engine = "sampling";
  request.approx.strategy = static_cast<ApproxStrategy>(99);
  SvcResponse response = service.Compute(std::move(request));
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.error->code, SvcErrorCode::kInvalidRequest);
  EXPECT_EQ(response.error->engine, "sampling");
  EXPECT_NE(response.error->message.find("strategy"), std::string::npos);
  EXPECT_FALSE(response.approx.has_value());

  // The string side of the contract: every name the CLI accepts parses,
  // anything else is a parse failure before a request is even built.
  EXPECT_EQ(ParseApproxStrategy("bernstein"), ApproxStrategy::kBernstein);
  EXPECT_EQ(ParseApproxStrategy("stratified"), ApproxStrategy::kStratified);
  EXPECT_EQ(ParseApproxStrategy("hoeffding"), ApproxStrategy::kHoeffding);
  EXPECT_EQ(ParseApproxStrategy("wald"), std::nullopt);
}

// Strategy overrides ride the same verdict-cache fast path as everything
// else: a repeated query stream classifies once regardless of which
// sampling strategy serves each request, and the verdict in every response
// is identical.
TEST(ShapleyServiceTest, StrategyOverridesLeaveVerdictCachingUnchanged) {
  auto schema = Schema::Create();
  QueryPtr hard = ParseQuery(schema, "R(x), S(x,y), !T(y)");
  PartitionedDatabase big = WideDb(schema, 28);

  ShapleyService service(ServiceOptions{.threads = 1});
  const ApproxStrategy strategies[] = {ApproxStrategy::kHoeffding,
                                       ApproxStrategy::kBernstein,
                                       ApproxStrategy::kStratified};
  std::string verdict_class;
  for (size_t k = 0; k < 6; ++k) {
    SvcRequest request;
    request.query = hard;
    request.db = big;
    request.allow_approx = true;
    request.approx = ApproxParams{
        .epsilon = 0.15, .delta = 0.1, .seed = 4, .strategy = strategies[k % 3]};
    SvcResponse response = service.Compute(std::move(request));
    ASSERT_TRUE(response.ok()) << response.error->ToString();
    ASSERT_TRUE(response.approx.has_value());
    EXPECT_EQ(response.approx->strategy,
              std::string(ToString(strategies[k % 3])));
    if (k == 0) {
      verdict_class = response.verdict.query_class;
    } else {
      EXPECT_EQ(response.verdict.query_class, verdict_class);
    }
  }
  // 1 classification + 5 cache hits: strategies never fork the verdict key.
  EXPECT_EQ(service.verdict_cache_hits(), 5u);
}

// Verdict memoization: classification is a pure function of the query, so
// a repeated-query stream classifies once and hits the cache thereafter —
// with identical verdicts in every response.
TEST(ShapleyServiceTest, VerdictCacheSkipsReclassificationOnRepeatedQueries) {
  auto schema = Schema::Create();
  QueryPtr query = ParseQuery(schema, "R(x), S(x,y), T(y)");

  ShapleyService service(ServiceOptions{.threads = 1});
  EXPECT_EQ(service.verdict_cache_hits(), 0u);

  SvcResponse first;
  for (size_t k = 0; k < 8; ++k) {
    SvcRequest request;
    request.query = query;
    request.db = RandomDb(schema, 300 + k);
    SvcResponse response = service.Compute(request);
    ASSERT_TRUE(response.ok());
    if (k == 0) {
      first = response;
    } else {
      EXPECT_EQ(response.verdict.tractability, first.verdict.tractability);
      EXPECT_EQ(response.verdict.query_class, first.verdict.query_class);
    }
  }
  EXPECT_EQ(service.verdict_cache_hits(), 7u);
  EXPECT_EQ(service.verdict_cache_misses(), 1u);

  // Disabled cache (0 entries) keeps working, just without hits.
  ShapleyService uncached(
      ServiceOptions{.threads = 1, .verdict_cache_entries = 0});
  SvcRequest request;
  request.query = query;
  request.db = RandomDb(schema, 300);
  ASSERT_TRUE(uncached.Compute(request).ok());
  EXPECT_EQ(uncached.verdict_cache_hits(), 0u);
}

}  // namespace
}  // namespace shapley
