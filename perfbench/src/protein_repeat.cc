// protein_repeat: the paper's own request. Two closed-loop clients send
// blocking top-10 Server::Query requests for proteins of the default
// universe, each protein drawn from a seeded Zipf. Set-up warms the
// reliability cache with one query per protein, so the measured window
// exercises the warm path: integrate -> canonicalize every answer ->
// cache hit, with no MC work.
//
// Two clients still contend for the shared pool (ThreadPool::ParallelFor
// serializes external callers), yet with the pool's workers they stay
// within the four cores the benchmark was sized on; four clients ran
// eight busy threads there, and their CPU time per request moved by a
// third between runs of the same seed.
//
// The popularity order (which protein is the Zipf's rank 0, 1, ...) is
// one fixed permutation; the seed draws the request sequence. Protein
// graphs differ several-fold in size, so a seeded order would let the
// seed choose how expensive the hot set is.

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <numeric>

#include "api/admission.h"
#include "api/server.h"
#include "compose.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using biorank::Rng;
namespace api = biorank::api;

constexpr int kClients = 2;
constexpr int kTopK = 10;
constexpr double kZipfExponent = 1.0;
/// Stream root of the fixed popularity order.
constexpr uint64_t kPopularitySeed = 20090401;
constexpr size_t kSequenceLength = 1 << 16;
/// Completed requests per CPU slice of the measured window.
constexpr size_t kSliceRequests = 1000;
/// Every kSampleEvery-th response of each client is checked against the
/// serial cache-off reference server.
constexpr size_t kSampleEvery = 64;
/// Traced runs serve seconds * kTracedRequestsPerClientSecond / 2
/// requests per client in each of their two passes, so counters depend
/// only on seed and length.
constexpr double kTracedRequestsPerClientSecond = 360.0;

struct Inputs {
  std::vector<api::QueryRequest> requests;  ///< One per protein.
  std::vector<std::vector<int>> sequences;  ///< Per client: request indices.
  uint64_t digest = 0xCBF29CE484222325ULL;
};

Inputs MakeInputs(const biorank::ProteinUniverse& universe, uint64_t seed) {
  Inputs in;
  const int n = universe.num_proteins();
  for (const biorank::Protein& protein : universe.proteins()) {
    in.requests.push_back(
        api::MakeProteinFunctionRequest(protein.gene_symbol, kTopK));
  }
  std::vector<int> by_rank(static_cast<size_t>(n));
  std::iota(by_rank.begin(), by_rank.end(), 0);
  Rng order = Rng::ForStream(kPopularitySeed, 0);
  order.Shuffle(by_rank);
  const Zipf zipf(n, kZipfExponent);
  for (int c = 0; c < kClients; ++c) {
    Rng rng = Rng::ForStream(seed, 1 + static_cast<uint64_t>(c));
    std::vector<int> sequence;
    sequence.reserve(kSequenceLength);
    for (size_t i = 0; i < kSequenceLength; ++i) {
      const int index = by_rank[static_cast<size_t>(zipf.Rank(rng.NextDouble()))];
      sequence.push_back(index);
      in.digest = MixDigest(in.digest, static_cast<uint64_t>(index));
    }
    in.sequences.push_back(std::move(sequence));
  }
  return in;
}

/// A default server whose cache holds every protein's ranking.
std::unique_ptr<api::Server> SetUp(RunResult& result) {
  auto server = std::make_unique<api::Server>();
  for (const biorank::Protein& protein : server->universe().proteins()) {
    auto response = server->Query(
        api::MakeProteinFunctionRequest(protein.gene_symbol, kTopK));
    if (!response.ok()) {
      result.failures.push_back("warm-up query " + protein.gene_symbol +
                                ": " + response.status().ToString());
    }
  }
  return server;
}

void RunMeasured(const RunConfig& config, RunResult& result) {
  EndToEnd e2e;
  std::unique_ptr<api::Server> server =
      RepeatSetUp([&] { return SetUp(result); }, e2e.setups);
  const Inputs in = MakeInputs(server->universe(), config.seed);
  result.input_digest = in.digest;

  struct ClientLog {
    std::vector<Sample> samples;
    int64_t attempted = 0;
    int64_t failed = 0;
    std::vector<std::pair<int, Fingerprint>> checks;
  };
  std::vector<ClientLog> logs(kClients);
  // Requests completed by all clients; client 0 marks a CPU slice every
  // kSliceRequests of them.
  std::atomic<size_t> completed{0};
  size_t next_mark = kSliceRequests;
  const Clock::time_point deadline = e2e.Open(config.seconds);
  RunClients(kClients, [&](int c) {
    ClientLog& log = logs[static_cast<size_t>(c)];
    log.samples.reserve(1 << 16);
    const std::vector<int>& sequence = in.sequences[static_cast<size_t>(c)];
    for (size_t i = 0; Clock::now() < deadline; ++i) {
      const int index = sequence[i % sequence.size()];
      const Clock::time_point sent = Clock::now();
      auto response = server->Query(in.requests[static_cast<size_t>(index)]);
      const Clock::time_point done = Clock::now();
      ++log.attempted;
      if (!response.ok()) {
        ++log.failed;
        continue;
      }
      log.samples.push_back(e2e.Make(sent, done, done));
      const size_t total = completed.fetch_add(1) + 1;
      if (c == 0 && total >= next_mark) {
        e2e.MarkCpu(total);
        next_mark = total + kSliceRequests;
      }
      if (i % kSampleEvery == 0) {
        log.checks.emplace_back(index,
                                api::RankingFingerprint(response.value()));
      }
    }
  });
  e2e.Close();

  std::vector<std::pair<int, Fingerprint>> samples;
  std::vector<double> latency_ms;
  for (ClientLog& log : logs) {
    result.attempted += log.attempted;
    result.failed += log.failed;
    e2e.samples.insert(e2e.samples.end(), log.samples.begin(),
                       log.samples.end());
    samples.insert(samples.end(), log.checks.begin(), log.checks.end());
    for (const Sample& sample : log.samples) {
      latency_ms.push_back(sample.latency_ms);
    }
  }
  AddEndToEnd(e2e, result);
  result.report = BaseReport(e2e, result);
  result.report.insert(result.report.end(), {
      {"query_p50_ms", Median(latency_ms), "ms"},
      {"query_p99_ms", Percentile(latency_ms, 0.99, "query_p99_ms", result),
       "ms"},
      {"queries", static_cast<double>(latency_ms.size()), "count"},
  });

  // Correctness: sampled responses against a serial, 1-thread,
  // cache-off reference server.
  server.reset();
  api::ServerOptions reference_options;
  reference_options.ranking.num_threads = 1;
  reference_options.ranking.enable_cache = false;
  api::Server reference(reference_options);
  std::map<int, Fingerprint> expected;
  for (const auto& [index, fingerprint] : samples) {
    auto it = expected.find(index);
    if (it == expected.end()) {
      auto response = reference.Query(in.requests[static_cast<size_t>(index)]);
      if (!response.ok()) {
        result.failures.push_back("reference query failed: " +
                                  response.status().ToString());
        return;
      }
      it = expected.emplace(index, api::RankingFingerprint(response.value()))
               .first;
    }
    if (fingerprint != it->second) {
      result.failures.push_back(
          "ranking of " + in.requests[static_cast<size_t>(index)].query.value +
          " differs from the cache-off reference");
    }
  }
  result.report.push_back({"checked_responses",
                           static_cast<double>(samples.size()), "count"});
}

void RunTraced(const RunConfig& config, RunResult& result) {
  std::unique_ptr<api::Server> server = SetUp(result);
  const Inputs in = MakeInputs(server->universe(), config.seed);
  result.input_digest = in.digest;
  const size_t per_client = static_cast<size_t>(std::max(
      1.0, config.seconds * kTracedRequestsPerClientSecond / 2.0));

  // Untraced pass: the reference rankings and the untraced throughput.
  std::vector<std::vector<Fingerprint>> expected(kClients);
  Clock::time_point start = Clock::now();
  RunClients(kClients, [&](int c) {
    for (size_t i = 0; i < per_client; ++i) {
      const std::vector<int>& sequence = in.sequences[static_cast<size_t>(c)];
      const int index = sequence[i % sequence.size()];
      auto response = server->Query(in.requests[static_cast<size_t>(index)]);
      expected[static_cast<size_t>(c)].push_back(
          response.ok() ? api::RankingFingerprint(response.value())
                        : Fingerprint());
    }
  });
  TraceExtras extras;
  extras.untraced_rps = static_cast<double>(kClients * per_client) /
                        SecondsBetween(start, Clock::now());

  // Traced pass: the same requests through the composed path, on a
  // service built from the server's ranking options and warmed the same
  // way the server's cache was.
  biorank::serve::RankingServiceOptions ranking = server->options().ranking;
  ranking.registry = nullptr;
  biorank::serve::RankingService service(ranking);
  api::AdmissionQueue admission(server->options().admission);
  const biorank::Mediator& mediator = server->mediator();
  auto serve = [&](const api::QueryRequest& request, RequestTrace& trace)
      -> biorank::Result<Fingerprint> {
    // The ticket is held for the whole request, as Server::Query does.
    auto ticket =
        Traced(trace, "api.queue", [&] { return admission.Admit(); });
    if (!ticket.ok()) return ticket.status();
    auto run = Traced(trace, "integrate.run",
                      [&] { return mediator.Run(request.query); });
    if (!run.ok()) return run.status();
    const biorank::QueryGraph& graph = run.value().query_graph;
    trace.Count("integrate.graph_nodes", graph.graph.num_nodes());
    trace.Count("integrate.graph_edges", graph.graph.num_edges());
    auto top = ComposeBlocking(service, graph, request.options.top_k, trace);
    if (!top.ok()) return top.status();
    Fingerprint fingerprint = FingerprintOf(top.value());
    ReleaseTraced(trace, "core.release", run);
    return fingerprint;
  };
  for (const api::QueryRequest& request : in.requests) {
    RequestTrace warm(0, "request");
    auto warmed = serve(request, warm);
    if (!warmed.ok()) {
      result.failures.push_back("traced warm-up: " +
                                warmed.status().ToString());
      return;
    }
  }

  std::vector<TraceLog> logs(kClients);
  std::vector<int64_t> mismatches(kClients, 0);
  start = Clock::now();
  RunClients(kClients, [&](int c) {
    TraceLog& log = logs[static_cast<size_t>(c)];
    for (size_t i = 0; i < per_client; ++i) {
      const std::vector<int>& sequence = in.sequences[static_cast<size_t>(c)];
      const int index = sequence[i % sequence.size()];
      auto trace = std::make_unique<RequestTrace>(
          static_cast<uint64_t>(c) * per_client + i, "request");
      auto fingerprint =
          serve(in.requests[static_cast<size_t>(index)], *trace);
      trace->Finish();
      if (!fingerprint.ok() ||
          fingerprint.value() != expected[static_cast<size_t>(c)][i]) {
        ++mismatches[static_cast<size_t>(c)];
      }
      log.push_back(std::move(trace));
    }
  });
  extras.traced_rps = static_cast<double>(kClients * per_client) /
                      SecondsBetween(start, Clock::now());

  TraceLog merged;
  for (TraceLog& log : logs) {
    for (auto& trace : log) merged.push_back(std::move(trace));
  }
  result.attempted = static_cast<int64_t>(merged.size());
  for (int64_t m : mismatches) result.failed += m;
  if (result.failed > 0) {
    result.failures.push_back(std::to_string(result.failed) +
                              " composed rankings differ from Server::Query");
  }
  FinishTrace(config, merged, extras, result);
}

}  // namespace

RunResult RunProteinRepeat(const RunConfig& config) {
  RunResult result;
  if (config.trace) {
    RunTraced(config, result);
  } else {
    RunMeasured(config, result);
  }
  return result;
}

}  // namespace perfbench
