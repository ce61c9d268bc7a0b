// E-exec — the exec runtime, served through ShapleyService, vs the seed's
// serial loop.
//
// The seed's SvcEngine::AllValues was a loop of independent Value calls:
// per fact, two full FGMC oracle counts (SvcViaFgmc) or a rebuilt 2^|Dn|
// satisfaction table (BruteForceSvc). The exec runtime shares that work —
// one full-database compilation plus a per-fact delta (Claim A.1 identity),
// one satisfaction table plus one tallying sweep — and fans it across a
// thread pool with a shared oracle cache.
//
// Reported: wall time of the seed-style serial loop vs ShapleyService (the
// registry's "lifted" and "brute" engines) at 1/2/4 threads, the speedup,
// oracle-cache counters, and a bit-identical check of the values.
// `--json out.json` emits the rows machine-readably.
//
// Expected shape: the 1-thread service run beats the serial loop by ~2x
// on the lifted pipeline (halved oracle calls) and by ~|Dn|x on brute
// force (shared table + integer tallying); extra threads stack on top when
// the hardware has cores to give.

#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shapley/data/fact.h"
#include "shapley/engines/fgmc.h"
#include "shapley/engines/svc.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace {

using namespace shapley;
using bench::JsonReporter;
using bench::Table;
using bench::Timer;

// A hierarchical sjf-CQ instance family for q = R(x), S(x,y):
// k R-facts and 2k S-facts, all endogenous (3k facts total).
PartitionedDatabase HierarchicalInstance(const std::shared_ptr<Schema>& schema,
                                         size_t k) {
  RelationId r = schema->AddRelation("R", 1);
  RelationId s = schema->AddRelation("S", 2);
  Database endo(schema);
  for (size_t i = 0; i < k; ++i) {
    Constant xi = Constant::Named("hx" + std::to_string(i));
    endo.Insert(Fact(r, {xi}));
    endo.Insert(Fact(s, {xi, Constant::Named("hy" + std::to_string(i % 3))}));
    endo.Insert(Fact(s, {xi, Constant::Named("hz" + std::to_string(i % 5))}));
  }
  return PartitionedDatabase::AllEndogenous(endo);
}

// The seed's AllValues: one independent Value call per endogenous fact.
std::map<Fact, BigRational> SeedSerialLoop(SvcEngine& engine,
                                           const BooleanQuery& query,
                                           const PartitionedDatabase& db) {
  std::map<Fact, BigRational> values;
  for (const Fact& f : db.endogenous().facts()) {
    values.emplace(f, engine.Value(query, db, f));
  }
  return values;
}

struct RunRow {
  std::string workload;
  std::string mode;
  size_t threads;
  double ms;
  double speedup;
  size_t oracle_calls;  ///< OracleCache lookups (hits + misses).
  size_t cache_hits;
  bool identical;
};

void Report(Table& table, JsonReporter& json, const RunRow& row,
            size_t facts) {
  table.PrintRow(row.workload, row.mode, row.threads, row.ms, row.speedup,
                 row.oracle_calls, row.cache_hits,
                 bench::PassFail(row.identical));
  json.Row({{"workload", row.workload},
            {"mode", row.mode},
            {"threads", static_cast<double>(row.threads)},
            {"facts", static_cast<double>(facts)},
            {"ms", row.ms},
            {"speedup", row.speedup},
            {"oracle_calls", static_cast<double>(row.oracle_calls)},
            {"cache_hits", static_cast<double>(row.cache_hits)},
            {"identical", row.identical ? 1.0 : 0.0}});
}

// `engine` names the registry entry the service runs; `serial_engine` is
// the same engine built by hand, driven through the seed's per-fact loop.
void RunWorkload(const std::string& workload, const std::string& engine,
                 SvcEngine& serial_engine, const QueryPtr& query,
                 const PartitionedDatabase& db, Table& table,
                 JsonReporter& json, bool& all_identical) {
  const size_t facts = db.NumEndogenous();

  Timer serial_timer;
  std::map<Fact, BigRational> expected =
      SeedSerialLoop(serial_engine, *query, db);
  const double serial_ms = serial_timer.ElapsedMs();
  Report(table, json,
         RunRow{workload, "seed-serial-loop", 1, serial_ms, 1.0, 0, 0, true},
         facts);

  for (size_t threads : {size_t{1}, size_t{2}, size_t{4}}) {
    ShapleyService service(ServiceOptions{.threads = threads});
    SvcRequest request;
    request.query = query;
    request.db = db;
    request.engine = engine;
    const ServiceStats before = service.Stats();
    Timer timer;
    SvcResponse response = service.Submit(std::move(request)).get();
    const double ms = timer.ElapsedMs();
    const ServiceStats after = service.Stats();
    const bool identical = response.ok() && response.values == expected;
    if (!response.ok()) {
      std::cerr << workload << ": " << response.error->ToString() << "\n";
    }
    all_identical = all_identical && identical;
    const size_t hits = after.cache_hits - before.cache_hits;
    const size_t misses = after.cache_misses - before.cache_misses;
    Report(table, json,
           RunRow{workload, "service", threads, ms,
                  ms > 0 ? serial_ms / ms : 0.0, hits + misses, hits,
                  identical},
           facts);
  }
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json = JsonReporter::FromArgs(argc, argv, "parallel_scaling");
  size_t k = 70;        // 3k endogenous facts on the lifted workload.
  size_t brute_k = 6;   // 3k endogenous facts on the brute-force workload.
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--facts-k" && i + 1 < argc) k = std::atoi(argv[++i]);
    if (arg == "--brute-k" && i + 1 < argc) brute_k = std::atoi(argv[++i]);
  }

  bench::Banner(
      "E-exec / exec runtime (via ShapleyService) vs seed serial loop — "
      "hierarchical q = R(x), S(x,y)");
  Table table({"workload", "mode", "threads", "ms", "speedup", "oracle",
               "hits", "values"},
              {16, 18, 9, 12, 10, 8, 7, 12});
  table.PrintHeader();

  bool all_identical = true;
  {
    auto schema = Schema::Create();
    CqPtr q = ParseCq(schema, "R(x), S(x,y)");
    PartitionedDatabase db = HierarchicalInstance(schema, k);
    SvcViaFgmc serial(std::make_shared<LiftedFgmc>());
    RunWorkload("lifted-fgmc", "lifted", serial, q, db, table, json,
                all_identical);
  }
  {
    auto schema = Schema::Create();
    CqPtr q = ParseCq(schema, "R(x), S(x,y)");
    PartitionedDatabase db = HierarchicalInstance(schema, brute_k);
    BruteForceSvc serial;
    RunWorkload("brute-force", "brute", serial, q, db, table, json,
                all_identical);
  }

  std::cout << "\nvalues bit-identical across all modes: "
            << bench::PassFail(all_identical) << "\n";
  json.Write();
  return all_identical ? 0 : 1;
}
