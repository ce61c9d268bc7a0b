// Property sweep: all counting/probability/Shapley engines must agree on
// random instances, across a grid of query classes. Parameterized gtest:
// one instantiation per (query, seed block).

#include <random>

#include <gtest/gtest.h>

#include "shapley/engines/fgmc.h"
#include "shapley/engines/pqe.h"
#include "shapley/engines/svc.h"
#include "shapley/exec/oracle_cache.h"
#include "shapley/exec/thread_pool.h"
#include "shapley/gen/generators.h"
#include "shapley/query/query_parser.h"
#include "shapley/reductions/interpolation.h"

namespace shapley {
namespace {

struct AgreementCase {
  const char* label;
  const char* query;        // Parsed as UCQ ('|' allowed).
  bool lifted_applicable;   // Hierarchical sjf single-disjunct CQ.
  bool monotone;
};

class EngineAgreementTest : public ::testing::TestWithParam<AgreementCase> {
 protected:
  static QueryPtr Parse(const std::shared_ptr<Schema>& schema,
                        const AgreementCase& c) {
    UcqPtr ucq = ParseUcq(schema, c.query);
    if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
    return ucq;
  }
};

TEST_P(EngineAgreementTest, FgmcEnginesAgree) {
  const AgreementCase& c = GetParam();
  auto schema = Schema::Create();
  QueryPtr q = Parse(schema, c);

  BruteForceFgmc brute;
  LineageFgmc lineage;
  LiftedFgmc lifted;
  InterpolationFgmc interpolation(std::make_shared<BruteForcePqe>());

  for (uint64_t seed = 0; seed < 6; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 7;
    options.domain_size = 3;
    options.exogenous_fraction = 0.25;
    options.seed = seed * 31 + 7;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);

    Polynomial expected = brute.CountBySize(*q, db);
    if (c.monotone) {
      EXPECT_EQ(lineage.CountBySize(*q, db), expected)
          << c.label << " seed " << seed;
      EXPECT_EQ(interpolation.CountBySize(*q, db), expected)
          << c.label << " seed " << seed;
    }
    if (c.lifted_applicable) {
      EXPECT_EQ(lifted.CountBySize(*q, db), expected)
          << c.label << " seed " << seed;
    }
  }
}

TEST_P(EngineAgreementTest, SvcEnginesAgree) {
  const AgreementCase& c = GetParam();
  auto schema = Schema::Create();
  QueryPtr q = Parse(schema, c);

  BruteForceSvc brute;
  SvcViaFgmc via_brute_fgmc(std::make_shared<BruteForceFgmc>());

  for (uint64_t seed = 0; seed < 4; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 6;
    options.domain_size = 3;
    options.exogenous_fraction = 0.2;
    options.seed = seed * 17 + 3;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);
    for (const Fact& f : db.endogenous().facts()) {
      BigRational expected = brute.Value(*q, db, f);
      EXPECT_EQ(via_brute_fgmc.Value(*q, db, f), expected)
          << c.label << " seed " << seed;
      if (c.lifted_applicable) {
        SvcViaFgmc via_lifted(std::make_shared<LiftedFgmc>());
        EXPECT_EQ(via_lifted.Value(*q, db, f), expected)
            << c.label << " seed " << seed;
      }
    }
  }
}

// The exec runtime must be invisible in the values: AllValues through a
// thread pool and a shared oracle cache is bit-identical to the serial
// per-fact brute-force and permutation oracles.
TEST_P(EngineAgreementTest, ParallelBatchAgreesWithSequentialOracles) {
  const AgreementCase& c = GetParam();
  auto schema = Schema::Create();
  QueryPtr q = Parse(schema, c);

  ThreadPool pool(3);
  OracleCache cache;
  ExecContext context{&pool, &cache};

  BruteForceSvc parallel_brute;
  parallel_brute.set_exec_context(context);
  SvcViaFgmc parallel_via_fgmc(std::make_shared<BruteForceFgmc>());
  parallel_via_fgmc.set_exec_context(context);

  BruteForceSvc serial_brute;
  PermutationSvc permutations;

  for (uint64_t seed = 0; seed < 4; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 6;
    options.domain_size = 3;
    options.exogenous_fraction = 0.2;
    options.seed = seed * 17 + 3;
    PartitionedDatabase db = RandomPartitionedDatabase(schema, options);

    std::map<Fact, BigRational> batched = parallel_brute.AllValues(*q, db);
    std::map<Fact, BigRational> batched_fgmc =
        parallel_via_fgmc.AllValues(*q, db);
    ASSERT_EQ(batched.size(), db.NumEndogenous());
    for (const Fact& f : db.endogenous().facts()) {
      BigRational expected = serial_brute.Value(*q, db, f);
      EXPECT_EQ(batched.at(f), expected) << c.label << " seed " << seed;
      EXPECT_EQ(batched_fgmc.at(f), expected) << c.label << " seed " << seed;
      if (db.NumEndogenous() <= 8) {
        EXPECT_EQ(permutations.Value(*q, db, f), expected)
            << c.label << " seed " << seed;
      }
    }
  }
}

TEST_P(EngineAgreementTest, PqeEnginesAgree) {
  const AgreementCase& c = GetParam();
  if (!c.monotone) GTEST_SKIP() << "lineage PQE requires monotone queries";
  auto schema = Schema::Create();
  QueryPtr q = Parse(schema, c);

  BruteForcePqe brute;
  LineagePqe lineage;
  FgmcBackedSppqe sppqe(std::make_shared<BruteForceFgmc>());

  std::mt19937_64 rng(5);
  for (uint64_t seed = 0; seed < 4; ++seed) {
    RandomDatabaseOptions options;
    options.num_facts = 6;
    options.domain_size = 3;
    options.exogenous_fraction = 0.2;
    options.seed = seed * 13 + 11;
    PartitionedDatabase pdb = RandomPartitionedDatabase(schema, options);

    // Arbitrary per-fact probabilities for brute vs lineage.
    ProbabilisticDatabase mixed(schema);
    for (const Fact& f : pdb.endogenous().facts()) {
      mixed.AddFact(f, BigRational(BigInt(1 + static_cast<int64_t>(rng() % 7)),
                                   BigInt(8)));
    }
    for (const Fact& f : pdb.exogenous().facts()) {
      mixed.AddFact(f, BigRational(1));
    }
    EXPECT_EQ(lineage.Probability(*q, mixed), brute.Probability(*q, mixed))
        << c.label << " seed " << seed;

    // SPPQE shape for the counting-backed engine.
    ProbabilisticDatabase sp = ProbabilisticDatabase::FromPartitioned(
        pdb, BigRational(BigInt(2), BigInt(5)));
    EXPECT_EQ(sppqe.Probability(*q, sp), brute.Probability(*q, sp))
        << c.label << " seed " << seed;
  }
}

INSTANTIATE_TEST_SUITE_P(
    QueryGrid, EngineAgreementTest,
    ::testing::Values(
        AgreementCase{"single_atom", "R(x,y)", true, true},
        AgreementCase{"ground_atom", "R(a,b)", true, true},
        AgreementCase{"hierarchical_join", "R(x), S(x,y)", true, true},
        AgreementCase{"hierarchical_with_constant", "R(a,x), S(x)", true, true},
        AgreementCase{"rst_hard", "R(x), S(x,y), T(y)", false, true},
        AgreementCase{"self_join_chain", "R(x,y), R(y,z)", false, true},
        AgreementCase{"triangle", "R(x,y), S(y,z), T(z,x)", false, true},
        AgreementCase{"disconnected", "R(x,y), S(u,w)", false, true},
        AgreementCase{"union_disjoint", "R(x), S(x,y) | T(y)", false, true},
        AgreementCase{"union_shared", "R(x,y) | R(x,x)", false, true},
        AgreementCase{"negation_guarded", "A(x), S(x,y), !N(x,y)", false,
                      false}),
    [](const ::testing::TestParamInfo<AgreementCase>& info) {
      return info.param.label;
    });

}  // namespace
}  // namespace shapley
