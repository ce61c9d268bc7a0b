// Observability overhead guard: what every served request pays for the
// always-on debug deck (obs/flight.h, obs/heavy.h, obs/slowlog.h), and what
// untraced requests pay for tracing having been used (obs/trace.h), must
// stay within 5% of a bare request — and the guard must be able to fail.
//
// Two services run the same hot instance. `clean` never serves a traced
// request; `used` serves one traced block per round. Each of 30 rounds has
// three blocks of 100 requests:
//
//   bare      untraced Compute on `clean`;
//   recorded  untraced Compute on `used`, each followed by exactly the
//             always-on work the server adds to a served request, through
//             the server's own functions: the canonical shard key
//             (cluster::ShardKeyFor) and its record (net::RecordServed:
//             the flight digest and the one DebugDeck::Record call);
//   traced    traced Compute on `used`: checked, not timed.
//
// The bare and recorded blocks run interleaved, request by request, and
// which of each pair goes first alternates. Run back to back instead, each
// service's two-thread pool settled into one thread-handoff regime for a
// whole block (block medians near 23 or near 42 us on a 4-core box), which
// moved the median ratio by up to 8% between runs of the same code.
//
// Per round the estimator is median(recorded) / median(bare) over the
// blocks' per-request latencies. The guard bootstraps the median of the
// round ratios (1,000 resamples, SplitMix64 at a fixed seed) and exits 1
// when even its 5th percentile exceeds 1.05, that is, when the overhead is
// above 5% with about 95% confidence.
//
// It also exits 1 when a traced tree is malformed (not well nested, or an
// exact tree without route/cache/engine/compile/delta/accumulate, or a
// sampling tree whose round spans lack samples/retired), when a traced
// value differs from the untraced one in any bit, when the deck breaks
// conservation (recorded, resident, dropped, both sketch totals), or when
// any of these fast requests lands in the slow-log.
//
// Usage:
//   bench_obs_overhead [--json out.json]
//
// --json rows (JSONL-appended to BENCH_obs.json by scripts/check.sh):
//   {"name": "bare" | "recorded" | "traced", "requests": N,
//    "median_us_per_req": ...}   (median over rounds of the block medians)
//   {"name": "self_check", "ratio_median": ..., "ratio_p05": ...,
//    "malformed_trees": 0, "value_mismatches": 0, "conservation_errors": 0,
//    "slow_captures": 0, "ok": 1}

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "shapley/approx/rng.h"
#include "shapley/cluster/shard_map.h"
#include "shapley/data/parser.h"
#include "shapley/net/codec.h"
#include "shapley/net/server.h"
#include "shapley/obs/trace.h"
#include "shapley/query/query_parser.h"
#include "shapley/service/shapley_service.h"

namespace {

using namespace shapley;

constexpr size_t kRounds = 30;
constexpr size_t kReps = 100;  // Requests per block.
constexpr double kMaxRatio = 1.05;
constexpr size_t kResamples = 1000;
constexpr uint64_t kBootstrapSeed = 0x0b5e7fedull;

QueryPtr ParseQuery(const std::shared_ptr<Schema>& schema, const char* text) {
  UcqPtr ucq = ParseUcq(schema, text);
  if (ucq->disjuncts().size() == 1) return ucq->disjuncts()[0];
  return ucq;
}

/// The hot-path instance: small, exact, lifted — per-request cost is
/// dominated by the service path the observability hooks ride on.
SvcRequest HotInstance(const std::shared_ptr<Schema>& schema) {
  SvcRequest request;
  request.query = ParseQuery(schema, "R(x), S(x,y)");
  request.db = ParsePartitionedDatabase(
      schema, "R(a) R(b) S(a,c) S(b,d) | S(a,d) S(b,c)");
  return request;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  const size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : (values[mid - 1] + values[mid]) / 2.0;
}

/// Structural contract of one traced EXACT response; increments
/// `malformed` on any violation.
void CheckExactTree(const SvcResponse& response, size_t* malformed) {
  if (!response.trace.has_value() ||
      response.trace->root.name != "service" ||
      !obs::WellNested(response.trace->root)) {
    ++*malformed;
    return;
  }
  for (const char* span :
       {"route", "cache", "engine", "compile", "delta", "accumulate"}) {
    if (response.trace->Find(span) == nullptr) {
      ++*malformed;
      return;
    }
  }
}

void RequireOk(const SvcResponse& response) {
  if (!response.ok()) {
    std::cerr << "hot-path request failed mid-block\n";
    std::exit(1);
  }
}

/// One untraced request on `service`, in microseconds; with a `deck`, the
/// request also pays the server's always-on recording.
double TimedRequest(ShapleyService* service, const SvcRequest& request,
                    const std::string& body, net::DebugDeck* deck) {
  bench::Timer timer;
  if (deck == nullptr) {
    RequireOk(service->Compute(request));
    return 1000.0 * timer.ElapsedMs();
  }
  // What ServiceHandler adds to a served untraced single: the shard key
  // taken before the request moves into the service, then its record.
  const std::string shard_key = cluster::ShardKeyFor(request);
  const SvcResponse response = service->Compute(request);
  RequireOk(response);
  net::RecordServed(deck, response, timer.ElapsedMs(), shard_key, "",
                    [&body] { return body; });
  return 1000.0 * timer.ElapsedMs();
}

}  // namespace

int main(int argc, char** argv) {
  bench::JsonReporter json =
      bench::JsonReporter::FromArgs(argc, argv, "bench_obs_overhead");
  bench::Banner(
      "Observability overhead guard (always-on deck + untraced path vs bare)");

  auto schema = Schema::Create();
  const SvcRequest request = HotInstance(schema);
  SvcRequest traced_request = request;
  traced_request.trace = true;
  const std::string body = net::EncodeRequest(request).Dump();

  ShapleyService clean(ServiceOptions{.threads = 2});
  ShapleyService used(ServiceOptions{.threads = 2});
  net::DebugDeck deck(net::ServerOptions{});  // Production 250 ms threshold.

  // Ground truth for the perturbation check, and warm-up of both caches.
  const SvcResponse reference = clean.Compute(request);
  if (!reference.ok() || used.Compute(request).values != reference.values) {
    std::cerr << "reference request failed\n";
    return 1;
  }
  for (size_t i = 0; i < 50; ++i) {
    clean.Compute(request);
    used.Compute(request);
  }

  size_t malformed = 0;
  size_t value_mismatches = 0;
  std::vector<double> ratios;
  std::vector<double> bare_medians;
  std::vector<double> recorded_medians;
  std::vector<double> traced_medians;
  for (size_t round = 0; round < kRounds; ++round) {
    std::vector<double> bare(kReps);
    std::vector<double> recorded(kReps);
    for (size_t i = 0; i < kReps; ++i) {
      if ((round + i) % 2 == 0) {
        bare[i] = TimedRequest(&clean, request, body, nullptr);
        recorded[i] = TimedRequest(&used, request, body, &deck);
      } else {
        recorded[i] = TimedRequest(&used, request, body, &deck);
        bare[i] = TimedRequest(&clean, request, body, nullptr);
      }
    }
    std::vector<double> traced(kReps);
    for (size_t i = 0; i < kReps; ++i) {
      bench::Timer timer;
      const SvcResponse response = used.Compute(traced_request);
      traced[i] = 1000.0 * timer.ElapsedMs();
      if (response.values != reference.values) ++value_mismatches;
      CheckExactTree(response, &malformed);
    }
    bare_medians.push_back(Median(bare));
    recorded_medians.push_back(Median(recorded));
    traced_medians.push_back(Median(traced));
    ratios.push_back(recorded_medians.back() / bare_medians.back());
  }

  // A traced SAMPLING request must decompose into per-checkpoint rounds.
  {
    SvcRequest sampled = traced_request;
    sampled.engine = "sampling";
    sampled.approx.epsilon = 0.25;
    sampled.approx.seed = 3;
    const SvcResponse response = used.Compute(sampled);
    const obs::TraceSpan* round =
        response.trace.has_value() ? response.trace->Find("round") : nullptr;
    if (round == nullptr || !obs::WellNested(response.trace->root) ||
        round->FindAttr("samples") == nullptr ||
        round->FindAttr("retired") == nullptr) {
      ++malformed;
    }
  }

  // Deck conservation after kRounds * kReps recorded requests.
  const uint64_t recorded_n = kRounds * kReps;
  size_t conservation_errors = 0;
  const size_t resident = deck.flight.Snapshot().size();
  if (deck.flight.total_recorded() != recorded_n) ++conservation_errors;
  if (resident != std::min<size_t>(recorded_n, deck.flight.capacity())) {
    ++conservation_errors;
  }
  if (deck.flight.dropped() + resident != recorded_n) ++conservation_errors;
  if (deck.hot_keys.total() != recorded_n) ++conservation_errors;
  if (deck.hot_classes.total() != recorded_n) ++conservation_errors;
  const uint64_t slow_captures = deck.slow.total_captured();

  // Bootstrap the median of the per-round ratios.
  SplitMix64 rng(kBootstrapSeed);
  std::vector<double> medians(kResamples);
  std::vector<double> resample(ratios.size());
  for (double& median : medians) {
    for (double& ratio : resample) ratio = ratios[rng.NextBelow(ratios.size())];
    median = Median(resample);
  }
  std::sort(medians.begin(), medians.end());
  const double ratio_median = Median(ratios);
  const double ratio_p05 = medians[kResamples / 20];

  bench::Table table({"block", "requests", "median us/req"}, {12, 12, 16});
  table.PrintHeader();
  const double requests = static_cast<double>(kRounds * kReps);
  for (const auto& [name, block] :
       {std::pair<const char*, const std::vector<double>*>{"bare",
                                                            &bare_medians},
        {"recorded", &recorded_medians},
        {"traced", &traced_medians}}) {
    table.PrintRow(name, kRounds * kReps, Median(*block));
    json.Row({{"name", std::string(name)},
              {"requests", requests},
              {"median_us_per_req", Median(*block)}});
  }

  const bool ok = ratio_p05 <= kMaxRatio && malformed == 0 &&
                  value_mismatches == 0 && conservation_errors == 0 &&
                  slow_captures == 0;
  std::cout << "\nself-check: recorded/bare median ratio " << ratio_median
            << ", bootstrap 5th percentile " << ratio_p05 << " (guard "
            << kMaxRatio << "), " << malformed << " malformed trees, "
            << value_mismatches << " value mismatches, "
            << conservation_errors << " conservation errors, "
            << slow_captures << " slow captures: " << bench::PassFail(ok)
            << "\n";
  json.Row({{"name", "self_check"},
            {"ratio_median", ratio_median},
            {"ratio_p05", ratio_p05},
            {"malformed_trees", static_cast<double>(malformed)},
            {"value_mismatches", static_cast<double>(value_mismatches)},
            {"conservation_errors", static_cast<double>(conservation_errors)},
            {"slow_captures", static_cast<double>(slow_captures)},
            {"ok", ok ? 1.0 : 0.0}});
  return ok ? 0 : 1;
}
