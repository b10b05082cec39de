// irreducible_anytime: one closed-loop client sends layered DAGs new to
// the server (31 nodes, ~120 edges, 12 answers) through
// Server::RankGraph in anytime mode with a 1024-trial MC budget, then
// Refine with the same budget until the handle retires. Every canonical
// key is new, so the work lands in exact factoring and Monte Carlo while
// canonicalization and the cache do little.
//
// The DAGs form one fixed catalogue of kCatalogue graphs, the same in
// every run; the seed draws the order in which each pass serves them,
// and every pass runs on a fresh server, so each DAG is still new to the
// cache. DAG cost is heavy-tailed (p85 ~90 ms, p95 ~450 ms on a 4-core
// host: factoring attempts that exhaust their call budget) and a run
// serves only a few hundred DAGs, so letting the seed draw the DAGs
// themselves would make which DAGs were drawn, not the server, dominate
// run-to-run spread.

#include <algorithm>
#include <memory>
#include <numeric>

#include "api/server.h"
#include "compose.h"
#include "core/query_graph.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using biorank::NodeId;
using biorank::QueryGraph;
using biorank::Rng;
namespace api = biorank::api;
namespace serve = biorank::serve;

constexpr int kTopK = 10;
constexpr int64_t kTrialBudget = 1024;
/// The fixed catalogue: kCatalogue DAGs cycling through kShapeCycle
/// shapes, with probabilities from the kCatalogueSeed stream.
constexpr int kCatalogue = 48;
constexpr int kShapeCycle = 16;
constexpr uint64_t kCatalogueSeed = 20090401;
/// Bounds on passes over the catalogue in one window: at least
/// kMinPasses, so the median over passes has three to choose from and
/// the p90s have more than ten samples beyond them; the window ends
/// early if kMaxPasses run out.
constexpr int kMinPasses = 3;
constexpr int kMaxPasses = 40;
/// Converged rankings checked against a fresh server's blocking answer:
/// every kCheckEvery-th request, at most kMaxChecks of them.
constexpr size_t kCheckEvery = 16;
constexpr size_t kMaxChecks = 12;
/// Traced runs rank seconds * kTracedRequestsPerSecond / 2 DAGs, at most
/// one catalogue pass, in each of their two passes.
constexpr double kTracedRequestsPerSecond = 8.0;

/// A layered random DAG of bench_open_loop's shape: a source, three
/// layers of six nodes, twelve answers, layer-to-layer edges at density
/// 0.45, skip edges at 0.15, and one guaranteed in-edge per node.
/// `shape` decides which edges exist, `rng` draws the probabilities.
QueryGraph MakeLayeredDag(Rng& shape, Rng& rng) {
  constexpr int kLayers = 3;
  constexpr int kNodesPerLayer = 6;
  constexpr int kAnswers = 12;
  constexpr double kEdgeDensity = 0.45;
  constexpr double kSkipDensity = 0.15;
  biorank::QueryGraphBuilder builder;
  std::vector<std::vector<NodeId>> layers = {{builder.Source()}};
  for (int layer = 0; layer < kLayers; ++layer) {
    std::vector<NodeId> current;
    for (int i = 0; i < kNodesPerLayer; ++i) {
      current.push_back(builder.Node(rng.NextUniform(0.3, 1.0)));
    }
    layers.push_back(current);
  }
  std::vector<NodeId> answers;
  for (int i = 0; i < kAnswers; ++i) {
    answers.push_back(
        builder.Node(rng.NextUniform(0.3, 1.0), "ans" + std::to_string(i)));
  }
  layers.push_back(answers);
  for (size_t layer = 0; layer + 1 < layers.size(); ++layer) {
    for (NodeId from : layers[layer]) {
      for (NodeId to : layers[layer + 1]) {
        if (shape.NextBernoulli(kEdgeDensity)) {
          builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
        }
      }
      for (size_t skip = layer + 2; skip < layers.size(); ++skip) {
        for (NodeId to : layers[skip]) {
          if (shape.NextBernoulli(kSkipDensity)) {
            builder.Edge(from, to, rng.NextUniform(0.2, 1.0));
          }
        }
      }
    }
  }
  for (size_t layer = 1; layer < layers.size(); ++layer) {
    for (NodeId to : layers[layer]) {
      const std::vector<NodeId>& prev = layers[layer - 1];
      builder.Edge(prev[static_cast<size_t>(shape.NextBounded(prev.size()))],
                   to, rng.NextUniform(0.2, 1.0));
    }
  }
  return std::move(builder).Build(answers);
}

struct Inputs {
  std::vector<QueryGraph> catalogue;
  /// Catalogue indices in serving order: pass p is entries
  /// [p * kCatalogue, (p + 1) * kCatalogue), a seeded permutation.
  std::vector<int> sequence;
  uint64_t digest = 0xCBF29CE484222325ULL;
};

Inputs MakeInputs(uint64_t seed, int passes) {
  Inputs in;
  for (int i = 0; i < kCatalogue; ++i) {
    // Shape streams come first, probability streams after them.
    Rng shape = Rng::ForStream(kCatalogueSeed,
                               static_cast<uint64_t>(i % kShapeCycle));
    Rng rng = Rng::ForStream(kCatalogueSeed,
                             static_cast<uint64_t>(kShapeCycle + i));
    in.catalogue.push_back(MakeLayeredDag(shape, rng));
    const biorank::ProbabilisticEntityGraph& g = in.catalogue.back().graph;
    for (biorank::EdgeId e : g.AliveEdges()) {
      in.digest = MixDigest(in.digest, static_cast<uint64_t>(g.edge(e).from));
      in.digest = MixDigest(in.digest, static_cast<uint64_t>(g.edge(e).to));
      in.digest = MixDigest(in.digest, g.edge(e).q);
    }
    for (NodeId n : g.AliveNodes()) in.digest = MixDigest(in.digest, g.node(n).p);
  }
  for (int p = 0; p < passes; ++p) {
    std::vector<int> order(kCatalogue);
    std::iota(order.begin(), order.end(), 0);
    Rng rng = Rng::ForStream(seed, static_cast<uint64_t>(p));
    rng.Shuffle(order);
    for (int index : order) {
      in.sequence.push_back(index);
      in.digest = MixDigest(in.digest, static_cast<uint64_t>(index));
    }
  }
  return in;
}

api::QueryOptions AnytimeOptions() {
  api::QueryOptions options;
  options.top_k = kTopK;
  options.mode = api::QueryMode::kAnytime;
  options.mc_trial_budget = kTrialBudget;
  return options;
}

/// One request: the anytime call, then Refine until the handle retires.
struct Served {
  bool ok = false;
  Sample sample;
  int calls = 0;
  Fingerprint ranking;
};

Served ServeAnytime(api::Server& server, const QueryGraph& dag,
                    const EndToEnd& e2e) {
  Served served;
  const api::QueryOptions options = AnytimeOptions();
  const Clock::time_point sent = Clock::now();
  auto response = server.RankGraph(dag, options);
  const Clock::time_point first = Clock::now();
  ++served.calls;
  while (response.ok() && response.value().refinement.valid()) {
    response = server.Refine(response.value().refinement, options);
    ++served.calls;
  }
  served.sample = e2e.Make(sent, first, Clock::now());
  if (!response.ok() || !response.value().completeness.complete) return served;
  served.ok = true;
  served.ranking = api::RankingFingerprint(response.value());
  return served;
}

void RunMeasured(const RunConfig& config, RunResult& result) {
  EndToEnd e2e;
  std::unique_ptr<api::Server> server = RepeatSetUp(
      [] { return std::make_unique<api::Server>(); }, e2e.setups);
  const Inputs in = MakeInputs(config.seed, kMaxPasses);
  result.input_digest = in.digest;

  std::vector<double> calls;
  std::vector<std::pair<int, Fingerprint>> samples;
  // Each whole pass is one CPU slice: every pass ranks the same
  // catalogue, so its CPU time does not depend on the seed's serving
  // order. The window is extended, on a slow host, until kMinPasses
  // passes are done.
  const Clock::time_point deadline = e2e.Open(config.seconds);
  size_t j = 0;
  for (; j < in.sequence.size() &&
         (Clock::now() < deadline ||
          j < static_cast<size_t>(kMinPasses * kCatalogue));
       ++j) {
    // Each pass starts on a fresh server so every DAG is new to its
    // cache; the replacement (about 4 ms a pass) is inside the window.
    if (j > 0 && j % kCatalogue == 0) server = std::make_unique<api::Server>();
    const int index = in.sequence[j];
    Served served =
        ServeAnytime(*server, in.catalogue[static_cast<size_t>(index)], e2e);
    ++result.attempted;
    if (!served.ok) {
      ++result.failed;
    } else {
      e2e.samples.push_back(served.sample);
      calls.push_back(served.calls);
      if (j % kCheckEvery == 0 && samples.size() < kMaxChecks) {
        samples.emplace_back(index, std::move(served.ranking));
      }
    }
    if ((j + 1) % kCatalogue == 0) e2e.MarkCpu(e2e.samples.size());
  }
  e2e.Close();
  if (j == in.sequence.size()) {
    result.failures.push_back("ran out of passes over the catalogue before "
                              "the window ended");
  }
  AddEndToEnd(e2e, result);
  std::vector<double> first_ms, converged_ms;
  for (const Sample& sample : e2e.samples) {
    first_ms.push_back(sample.first_ms);
    converged_ms.push_back(sample.latency_ms);
  }
  double mean_calls = 0.0;
  for (double c : calls) mean_calls += c;
  result.report = BaseReport(e2e, result);
  result.report.insert(result.report.end(), {
      {"first_answer_p50_ms", Median(first_ms), "ms"},
      {"first_answer_p90_ms",
       Percentile(first_ms, 0.90, "first_answer_p90_ms", result), "ms"},
      {"converged_p50_ms", Median(converged_ms), "ms"},
      {"converged_p90_ms",
       Percentile(converged_ms, 0.90, "converged_p90_ms", result), "ms"},
      {"calls_per_request",
       calls.empty() ? 0.0 : mean_calls / static_cast<double>(calls.size()),
       "count"},
      {"requests", static_cast<double>(converged_ms.size()), "count"},
  });

  // Correctness: converged anytime rankings equal blocking RankGraph on
  // a fresh server.
  server.reset();
  api::Server fresh;
  for (const auto& [index, ranking] : samples) {
    auto blocking =
        fresh.RankGraph(in.catalogue[static_cast<size_t>(index)], kTopK);
    if (!blocking.ok() ||
        api::RankingFingerprint(blocking.value()) != ranking) {
      result.failures.push_back("converged anytime ranking of DAG " +
                                std::to_string(index) +
                                " differs from blocking RankGraph");
    }
  }
  result.report.push_back(
      {"checked_rankings", static_cast<double>(samples.size()), "count"});
}

void RunTraced(const RunConfig& config, RunResult& result) {
  auto server = std::make_unique<api::Server>();
  // One pass, or its first part, so every DAG is new to both caches.
  const int count = static_cast<int>(std::min<double>(
      kCatalogue,
      std::max(1.0, config.seconds * kTracedRequestsPerSecond / 2.0)));
  const Inputs in = MakeInputs(config.seed, 1);
  result.input_digest = in.digest;
  std::vector<const QueryGraph*> dags;
  for (int j = 0; j < count; ++j) {
    const int index = in.sequence[static_cast<size_t>(j)];
    dags.push_back(&in.catalogue[static_cast<size_t>(index)]);
  }

  std::vector<Fingerprint> expected;
  Clock::time_point start = Clock::now();
  const EndToEnd untimed;
  for (const QueryGraph* dag : dags) {
    Served served = ServeAnytime(*server, *dag, untimed);
    expected.push_back(served.ok ? served.ranking : Fingerprint());
  }
  TraceExtras extras;
  extras.untraced_rps = count / SecondsBetween(start, Clock::now());

  serve::RankingServiceOptions ranking = server->options().ranking;
  ranking.registry = nullptr;
  serve::RankingService service(ranking);
  TraceLog log;
  start = Clock::now();
  for (size_t i = 0; i < dags.size(); ++i) {
    auto trace = std::make_unique<RequestTrace>(i, "request");
    ++result.attempted;
    // The first call prepares and runs one increment, as
    // Server::RankGraph does in anytime mode with a trial budget; each
    // later increment is one Refine.
    auto state = ComposePrepareAnytime(service, *dags[i], kTopK, *trace);
    biorank::Status status = state.status();
    while (status.ok() && !state.value().complete()) {
      status = ComposeRefineIncrement(service, state.value(), kTrialBudget,
                                      *trace);
    }
    if (status.ok()) {
      CountStats(state.value().stats,
                 static_cast<int>(state.value().uniques.size()), *trace);
    }
    trace->Finish();
    if (!status.ok() ||
        FingerprintOf(serve::CurrentRanking(state.value())) != expected[i]) {
      ++result.failed;
    }
    log.push_back(std::move(trace));
  }
  extras.traced_rps = count / SecondsBetween(start, Clock::now());
  if (result.failed > 0) {
    result.failures.push_back(std::to_string(result.failed) +
                              " composed rankings differ from the Server's");
  }
  FinishTrace(config, log, extras, result);
}

}  // namespace

RunResult RunIrreducibleAnytime(const RunConfig& config) {
  RunResult result;
  if (config.trace) {
    RunTraced(config, result);
  } else {
    RunMeasured(config, result);
  }
  return result;
}

}  // namespace perfbench
