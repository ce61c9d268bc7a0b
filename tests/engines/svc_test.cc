#include "shapley/engines/svc.h"

#include <gtest/gtest.h>

#include "shapley/data/parser.h"
#include "shapley/engines/pqe.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"

namespace shapley {
namespace {

class SvcTest : public ::testing::Test {
 protected:
  SvcTest() : schema_(Schema::Create()) {}

  std::shared_ptr<Schema> schema_;
  BruteForceSvc brute_;
  PermutationSvc permutations_;
};

TEST_F(SvcTest, PaperStyleHandExample) {
  // q = R(x,y), S(y); D = {R(a,b), S(b)}: both facts are symmetric
  // bottlenecks — each has Shapley value 1/2.
  CqPtr q = ParseCq(schema_, "R(x,y), S(y)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema_, "R(a,b) S(b)");
  BigRational half(BigInt(1), BigInt(2));
  EXPECT_EQ(brute_.Value(*q, db, ParseFact(schema_, "R(a,b)")), half);
  EXPECT_EQ(brute_.Value(*q, db, ParseFact(schema_, "S(b)")), half);
}

TEST_F(SvcTest, ExogenousSatisfactionZeroesTheGame) {
  CqPtr q = ParseCq(schema_, "R(x,y)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema_, "R(a,b) | R(c,d)");
  EXPECT_EQ(brute_.Value(*q, db, ParseFact(schema_, "R(a,b)")), BigRational(0));
}

TEST_F(SvcTest, NullPlayerHasZeroValue) {
  CqPtr q = ParseCq(schema_, "R(x,y), S(y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema_, "R(a,b) S(b) T(z9)");
  EXPECT_EQ(brute_.Value(*q, db, ParseFact(schema_, "T(z9)")), BigRational(0));
}

TEST_F(SvcTest, EfficiencyAxiom) {
  // Sum of Shapley values equals v(Dn) − v(∅).
  auto schema = Schema::Create();
  UcqPtr q = ParseUcq(schema, "R(x), S(x,y) | T(y)");
  for (uint64_t seed = 0; seed < 15; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 7;
    options.domain_size = 3;
    options.exogenous_fraction = 0.3;
    options.seed = seed + 31;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
    auto values = brute_.AllValues(*q, db);
    BigRational sum(0);
    for (const auto& [fact, value] : values) sum += value;
    int v_full = q->Evaluate(db.AllFacts()) ? 1 : 0;
    int v_empty = q->Evaluate(db.exogenous()) ? 1 : 0;
    EXPECT_EQ(sum, BigRational(v_full - v_empty)) << "seed " << seed;
  }
}

TEST_F(SvcTest, SubsetFormulaMatchesPermutationFormula) {
  auto schema = Schema::Create();
  CqPtr q = ParseCq(schema, "R(x), S(x,y), T(y)");
  for (uint64_t seed = 0; seed < 8; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 6;
    options.domain_size = 3;
    options.exogenous_fraction = 0.2;
    options.seed = seed + 77;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
    if (db.NumEndogenous() == 0 || db.NumEndogenous() > 8) continue;
    for (const Fact& f : db.endogenous().facts()) {
      EXPECT_EQ(brute_.Value(*q, db, f), permutations_.Value(*q, db, f))
          << "seed " << seed;
    }
  }
}

TEST_F(SvcTest, ViaFgmcMatchesBruteForceAllEngines) {
  auto schema = Schema::Create();
  CqPtr hier = ParseCq(schema, "R(x), S(x,y)");
  SvcViaFgmc via_brute(std::make_shared<BruteForceFgmc>());
  SvcViaFgmc via_lineage(std::make_shared<LineageFgmc>());
  SvcViaFgmc via_lifted(std::make_shared<LiftedFgmc>());
  // AllValues with the exec runtime's shared resources installed.
  ThreadPool pool(3);
  OracleCache cache;
  SvcViaFgmc via_shared(std::make_shared<BruteForceFgmc>());
  via_shared.set_exec_context(ExecContext{&pool, &cache});

  for (uint64_t seed = 0; seed < 12; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 8;
    options.domain_size = 3;
    options.exogenous_fraction = 0.25;
    options.seed = seed + 13;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
    if (db.NumEndogenous() == 0) continue;
    std::map<Fact, BigRational> expected_all;
    for (const Fact& f : db.endogenous().facts()) {
      BigRational expected = brute_.Value(*hier, db, f);
      EXPECT_EQ(via_brute.Value(*hier, db, f), expected) << "seed " << seed;
      EXPECT_EQ(via_lineage.Value(*hier, db, f), expected) << "seed " << seed;
      EXPECT_EQ(via_lifted.Value(*hier, db, f), expected) << "seed " << seed;
      expected_all.emplace(f, expected);
    }

    // One shared full-database count plus one count per fact: 1 + |Dn|
    // oracle calls instead of 2|Dn|, each a cache hit or a miss.
    const size_t oracle_before = via_shared.oracle_calls();
    const size_t hits_before = cache.hits();
    const size_t misses_before = cache.misses();
    EXPECT_EQ(via_shared.AllValues(*hier, db), expected_all) << "seed " << seed;
    const size_t oracle_calls = via_shared.oracle_calls() - oracle_before;
    EXPECT_EQ(oracle_calls, 1 + db.NumEndogenous()) << "seed " << seed;
    EXPECT_EQ((cache.hits() - hits_before) + (cache.misses() - misses_before),
              oracle_calls)
        << "seed " << seed;

    // The repeated instance is answered from the cache alone.
    const size_t hits_first = cache.hits();
    const size_t misses_first = cache.misses();
    EXPECT_EQ(via_shared.AllValues(*hier, db), expected_all) << "seed " << seed;
    EXPECT_EQ(cache.hits() - hits_first, oracle_calls) << "seed " << seed;
    EXPECT_EQ(cache.misses(), misses_first) << "seed " << seed;
  }
}

TEST_F(SvcTest, LiftedPipelineIsThePolynomialAlgorithm) {
  // Hierarchical sjf-CQ on an instance far beyond brute force: 60 facts.
  auto schema = Schema::Create();
  CqPtr q = ParseCq(schema, "R(x), S(x,y)");
  RelationId r = schema->AddRelation("R", 1);
  RelationId s = schema->AddRelation("S", 2);
  Database endo(schema);
  for (int i = 0; i < 20; ++i) {
    Constant xi = Constant::Named("x" + std::to_string(i));
    endo.Insert(Fact(r, {xi}));
    endo.Insert(Fact(s, {xi, Constant::Named("y" + std::to_string(i % 5))}));
    endo.Insert(Fact(s, {xi, Constant::Named("z" + std::to_string(i % 7))}));
  }
  PartitionedDatabase db = PartitionedDatabase::AllEndogenous(endo);
  ASSERT_EQ(db.NumEndogenous(), 60u);

  SvcViaFgmc via_lifted(std::make_shared<LiftedFgmc>());
  Fact probe = Fact(r, {Constant::Named("x0")});
  BigRational value = via_lifted.Value(*q, db, probe);
  EXPECT_GT(value, BigRational(0));
  EXPECT_LT(value, BigRational(1));
}

TEST_F(SvcTest, MaxValueReturnsArgmax) {
  auto schema = Schema::Create();
  // S(b) participates in both supports; it must dominate.
  CqPtr q = ParseCq(schema, "R(x,y), S(y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema, "R(a,b) R(c,b) S(b)");
  auto [fact, value] = brute_.MaxValue(*q, db);
  EXPECT_EQ(fact, ParseFact(schema, "S(b)"));
  auto values = brute_.AllValues(*q, db);
  for (const auto& [f, v] : values) EXPECT_LE(v, value);
}

TEST_F(SvcTest, SymmetryAxiom) {
  auto schema = Schema::Create();
  CqPtr q = ParseCq(schema, "R(x,y), S(y)");
  PartitionedDatabase db =
      ParsePartitionedDatabase(schema, "R(a,b) R(c,b) S(b)");
  auto values = brute_.AllValues(*q, db);
  EXPECT_EQ(values.at(ParseFact(schema, "R(a,b)")),
            values.at(ParseFact(schema, "R(c,b)")));
}

TEST_F(SvcTest, NegatedQueriesSupported) {
  auto schema = Schema::Create();
  CqPtr q = ParseCq(schema, "A(x), !B(x)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema, "A(a) B(a)");
  // A(a) alone satisfies; adding B(a) un-satisfies: B(a) has negative value.
  BigRational va = brute_.Value(*q, db, ParseFact(schema, "A(a)"));
  BigRational vb = brute_.Value(*q, db, ParseFact(schema, "B(a)"));
  EXPECT_GT(va, BigRational(0));
  EXPECT_LT(vb, BigRational(0));
  // Efficiency still holds: v(full) − v(∅) = 0 − 0 = 0.
  EXPECT_EQ(va + vb, BigRational(0));
}

TEST_F(SvcTest, ValueOfNonEndogenousFactThrows) {
  auto schema = Schema::Create();
  CqPtr q = ParseCq(schema, "R(x,y)");
  PartitionedDatabase db = ParsePartitionedDatabase(schema, "R(a,b) | R(c,d)");
  EXPECT_THROW(brute_.Value(*q, db, ParseFact(schema, "R(c,d)")),
               std::invalid_argument);
  EXPECT_THROW(brute_.Value(*q, db, ParseFact(schema, "R(z,z)")),
               std::invalid_argument);
}

}  // namespace
}  // namespace shapley
