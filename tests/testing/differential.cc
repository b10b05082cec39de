#include "testing/differential.h"

#include <cstring>
#include <sstream>

#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "core/graph_algo.h"
#include "core/reduction.h"
#include "core/trial_bound.h"
#include "testing/reference_canonical.h"
#include "testing/reference_factoring.h"

namespace biorank::testing {

namespace {

DiffResult Fail(const std::string& message) { return {false, message}; }

/// Index and bit patterns of the first bitwise difference, for messages.
std::string DescribeFirstDivergence(const std::vector<double>& a,
                                    const std::vector<double>& b) {
  std::ostringstream os;
  if (a.size() != b.size()) {
    os << "size " << a.size() << " vs " << b.size();
    return os.str();
  }
  for (size_t i = 0; i < a.size(); ++i) {
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a[i], sizeof(bits_a));
    std::memcpy(&bits_b, &b[i], sizeof(bits_b));
    if (bits_a != bits_b) {
      os << "index " << i << ": " << a[i] << " vs " << b[i] << " (bits 0x"
         << std::hex << bits_a << " vs 0x" << bits_b << ")";
      return os.str();
    }
  }
  return "no divergence";
}

}  // namespace

bool ScoresBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  return a.empty() ||
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

DiffResult CompareMcBackends(const QueryGraph& query_graph, int64_t trials,
                             uint64_t seed, int num_threads) {
  McOptions mc;
  mc.trials = trials;
  mc.seed = seed;
  mc.num_threads = num_threads;

  mc.backend = McOptions::Backend::kCsrSnapshot;
  Result<McEstimate> csr = EstimateReliabilityMc(query_graph, mc);
  mc.backend = McOptions::Backend::kPointerView;
  Result<McEstimate> ptr = EstimateReliabilityMc(query_graph, mc);

  if (csr.ok() != ptr.ok()) {
    return Fail("MC backends disagree on status: csr=" +
                (csr.ok() ? std::string("OK") : csr.status().message()) +
                " pointer=" +
                (ptr.ok() ? std::string("OK") : ptr.status().message()));
  }
  if (!csr.ok()) return {};  // Both failed identically: agreement.
  if (!ScoresBitIdentical(csr.value().scores, ptr.value().scores)) {
    return Fail("MC scores diverge at " +
                DescribeFirstDivergence(csr.value().scores,
                                        ptr.value().scores));
  }
  return {};
}

DiffResult CompareWordParallelInvariance(const QueryGraph& query_graph,
                                         int64_t trials, uint64_t seed,
                                         ThreadPool& pool) {
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(query_graph);
  if (!snapshot.ok()) return Fail("snapshot: " + snapshot.status().message());
  McOptions mc;
  mc.trials = trials;
  mc.seed = seed;
  mc.mode = McOptions::Mode::kWordParallel;
  mc.num_threads = 1;
  mc.pool = &pool;
  Result<std::vector<int64_t>> plan =
      PlanTrialShards(mc.trials, mc.shard_trials);
  if (!plan.ok()) return Fail("plan: " + plan.status().message());
  const int64_t num_shards = static_cast<int64_t>(plan.value().size());
  Result<McShardTallies> reference =
      TallyReliabilityMcShards(snapshot.value(), mc, 0, num_shards);
  Result<McEstimate> reference_estimate = EstimateReliabilityMc(query_graph, mc);
  if (!reference.ok() || !reference_estimate.ok()) {
    return Fail("word-parallel reference run failed");
  }
  const McShardTallies& want = reference.value();
  auto same = [&](const McShardTallies& got, const std::string& what) {
    if (got.counts != want.counts || got.trials != want.trials ||
        got.words != want.words) {
      return Fail("word-parallel tally diverges under " + what + " (words " +
                  std::to_string(got.words) + " vs " +
                  std::to_string(want.words) + ")");
    }
    return DiffResult{};
  };

  for (int threads : {2, 4, 8}) {
    McOptions capped = mc;
    capped.num_threads = threads;
    const std::string what = std::to_string(threads) + " threads";
    Result<McShardTallies> tally =
        TallyReliabilityMcShards(snapshot.value(), capped, 0, num_shards);
    if (!tally.ok()) return Fail(what + ": " + tally.status().message());
    DiffResult r = same(tally.value(), what);
    if (!r.ok) return r;
    Result<McEstimate> estimate = EstimateReliabilityMc(query_graph, capped);
    if (!estimate.ok() ||
        !ScoresBitIdentical(estimate.value().scores,
                            reference_estimate.value().scores)) {
      return Fail("word-parallel scores diverge at " + what);
    }
  }

  // Partitions of [0, num_shards), each piece run as its own call.
  const std::vector<std::vector<int64_t>> cut_sets = {
      {num_shards / 2}, {1, num_shards - 1}};
  for (size_t p = 0; p <= cut_sets.size(); ++p) {
    std::vector<int64_t> cuts = {0};
    if (p < cut_sets.size()) {
      for (int64_t cut : cut_sets[p]) {
        if (cut > 0 && cut < num_shards) cuts.push_back(cut);
      }
    } else {
      for (int64_t cut = 1; cut < num_shards; ++cut) cuts.push_back(cut);
    }
    cuts.push_back(num_shards);
    McShardTallies sum;
    sum.counts.assign(want.counts.size(), 0);
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      Result<McShardTallies> piece =
          TallyReliabilityMcShards(snapshot.value(), mc, cuts[i], cuts[i + 1]);
      if (!piece.ok()) return Fail("partition: " + piece.status().message());
      for (size_t v = 0; v < sum.counts.size(); ++v) {
        sum.counts[v] += piece.value().counts[v];
      }
      sum.trials += piece.value().trials;
      sum.words += piece.value().words;
    }
    DiffResult r = same(sum, std::to_string(cuts.size() - 1) +
                                 "-piece shard partition");
    if (!r.ok) return r;
  }
  return {};
}

DiffResult CompareTopKBackends(const QueryGraph& query_graph,
                               const TopKOptions& base) {
  TopKOptions options = base;
  options.backend = McOptions::Backend::kCsrSnapshot;
  Result<TopKResult> csr = RankTopKAdaptive(query_graph, options);
  options.backend = McOptions::Backend::kPointerView;
  Result<TopKResult> ptr = RankTopKAdaptive(query_graph, options);

  if (csr.ok() != ptr.ok()) {
    return Fail("top-k backends disagree on status");
  }
  if (!csr.ok()) return {};
  const TopKResult& a = csr.value();
  const TopKResult& b = ptr.value();
  if (a.trials_used != b.trials_used) {
    return Fail("top-k trials_used diverge: " + std::to_string(a.trials_used) +
                " vs " + std::to_string(b.trials_used));
  }
  if (a.separated != b.separated) {
    return Fail("top-k separated flags diverge");
  }
  if (a.ranking.size() != b.ranking.size()) {
    return Fail("top-k ranking sizes diverge");
  }
  for (size_t i = 0; i < a.ranking.size(); ++i) {
    if (a.ranking[i].node != b.ranking[i].node ||
        a.ranking[i].rank_lo != b.ranking[i].rank_lo ||
        a.ranking[i].rank_hi != b.ranking[i].rank_hi) {
      return Fail("top-k ranking order diverges at position " +
                  std::to_string(i));
    }
    uint64_t bits_a, bits_b;
    std::memcpy(&bits_a, &a.ranking[i].score, sizeof(bits_a));
    std::memcpy(&bits_b, &b.ranking[i].score, sizeof(bits_b));
    if (bits_a != bits_b) {
      return Fail("top-k score bits diverge at position " +
                  std::to_string(i));
    }
  }
  return {};
}

DiffResult CompareDiffusionBackends(const QueryGraph& query_graph,
                                    const DiffusionOptions& base) {
  DiffusionOptions options = base;
  options.backend = DiffusionOptions::Backend::kCsrSnapshot;
  Result<IterativeScores> csr = Diffuse(query_graph, options);
  options.backend = DiffusionOptions::Backend::kPointerView;
  Result<IterativeScores> ptr = Diffuse(query_graph, options);

  if (csr.ok() != ptr.ok()) {
    return Fail("diffusion backends disagree on status");
  }
  if (!csr.ok()) return {};
  if (csr.value().iterations != ptr.value().iterations) {
    return Fail("diffusion iteration counts diverge: " +
                std::to_string(csr.value().iterations) + " vs " +
                std::to_string(ptr.value().iterations));
  }
  if (csr.value().converged != ptr.value().converged) {
    return Fail("diffusion convergence flags diverge");
  }
  if (!ScoresBitIdentical(csr.value().scores, ptr.value().scores)) {
    return Fail("diffusion scores diverge at " +
                DescribeFirstDivergence(csr.value().scores,
                                        ptr.value().scores));
  }
  return {};
}

namespace {

bool StatsEqual(const ReductionStats& a, const ReductionStats& b) {
  return a.nodes_before == b.nodes_before &&
         a.edges_before == b.edges_before && a.nodes_after == b.nodes_after &&
         a.edges_after == b.edges_after &&
         a.sink_deletions == b.sink_deletions &&
         a.orphan_deletions == b.orphan_deletions &&
         a.serial_collapses == b.serial_collapses &&
         a.parallel_merges == b.parallel_merges &&
         a.self_loop_deletions == b.self_loop_deletions &&
         a.passes == b.passes;
}

uint64_t Bits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Empty when the candidates are identical, else the first difference.
std::string DiffCandidates(const CanonicalCandidate& got,
                           const CanonicalCandidate& want) {
  if (got.key.repr != want.key.repr) return "key.repr";
  if (got.key.hash != want.key.hash) return "key.hash";
  if (got.target != want.target) return "target";
  if (got.canonical.source != want.canonical.source ||
      got.canonical.answers != want.canonical.answers) {
    return "canonical roles";
  }
  if (!CsrBytesEqual(BuildCsrSnapshot(got.canonical.graph),
                     BuildCsrSnapshot(want.canonical.graph))) {
    return "canonical graph";
  }
  if (!StatsEqual(got.reduction_stats, want.reduction_stats)) {
    return "reduction_stats";
  }
  if (got.provenance.nodes != want.provenance.nodes) {
    return "provenance.nodes";
  }
  if (got.provenance.edges != want.provenance.edges) {
    return "provenance.edges";
  }
  return "";
}

}  // namespace

DiffResult CompareCanonicalizationWithReference(
    const QueryGraph& query_graph, const CanonicalizeOptions& options) {
  const CsrSnapshot csr = BuildCsrSnapshot(query_graph.graph);
  // The serving shape: one canonicalizer per call, two slots whose
  // scratch is reused across answers (epoch-stamped marks).
  Result<CandidateCanonicalizer> batch =
      CandidateCanonicalizer::Create(query_graph, options, &csr, 2);
  if (!batch.ok()) {
    return Fail("canonicalizer rejects the graph: " +
                batch.status().message());
  }
  for (size_t i = 0; i < query_graph.answers.size(); ++i) {
    const NodeId target = query_graph.answers[i];
    std::vector<bool> kept_ref;
    ReferenceRestrict(query_graph, {target}, &kept_ref);
    if (QueryRelevantMask(csr, query_graph.source, {target}) != kept_ref) {
      return Fail("kept masks diverge for target " + std::to_string(target));
    }

    Result<CanonicalCandidate> ref =
        ReferenceCanonicalizeCandidate(query_graph, target, options);
    Result<CanonicalCandidate> fan =
        batch.value().Canonicalize(static_cast<int>(i % 2), target);
    Result<CanonicalCandidate> one =
        CanonicalizeCandidate(query_graph, target, options);
    if (ref.ok() != fan.ok() || ref.ok() != one.ok()) {
      return Fail("canonicalization status diverges for target " +
                  std::to_string(target));
    }
    if (!ref.ok()) continue;
    for (const CanonicalCandidate* got : {&fan.value(), &one.value()}) {
      const std::string diff = DiffCandidates(*got, ref.value());
      if (!diff.empty()) {
        return Fail(diff + " diverges from the reference for target " +
                    std::to_string(target));
      }
    }
    if (options.collect_provenance) {
      std::vector<NodeId> mask_nodes;
      for (NodeId id = 0; id < static_cast<NodeId>(kept_ref.size()); ++id) {
        if (kept_ref[static_cast<size_t>(id)]) mask_nodes.push_back(id);
      }
      if (fan.value().provenance.nodes != mask_nodes) {
        return Fail("provenance nodes differ from the kept mask for target " +
                    std::to_string(target));
      }
    }
  }
  return {};
}

DiffResult CompareReductionWithReference(const QueryGraph& query_graph,
                                         const ReductionOptions& options) {
  QueryGraph got = query_graph;
  QueryGraph want = query_graph;
  const ReductionStats got_stats = ReduceQueryGraph(got, options);
  const ReductionStats want_stats = ReferenceReduceQueryGraph(want, options);
  if (!StatsEqual(got_stats, want_stats)) {
    return Fail("reduction stats diverge");
  }
  const ProbabilisticEntityGraph& a = got.graph;
  const ProbabilisticEntityGraph& b = want.graph;
  if (a.node_capacity() != b.node_capacity() ||
      a.edge_capacity() != b.edge_capacity() ||
      a.num_nodes() != b.num_nodes() || a.num_edges() != b.num_edges()) {
    return Fail("reduced graph sizes diverge");
  }
  for (NodeId x = 0; x < a.node_capacity(); ++x) {
    if (a.IsValidNode(x) != b.IsValidNode(x) ||
        Bits(a.node(x).p) != Bits(b.node(x).p)) {
      return Fail("node " + std::to_string(x) + " diverges");
    }
    if (a.IsValidNode(x) &&
        (a.OutEdges(x) != b.OutEdges(x) || a.InEdges(x) != b.InEdges(x))) {
      return Fail("adjacency of node " + std::to_string(x) + " diverges");
    }
  }
  for (EdgeId e = 0; e < a.edge_capacity(); ++e) {
    const GraphEdge& ea = a.edge(e);
    const GraphEdge& eb = b.edge(e);
    if (a.IsValidEdge(e) != b.IsValidEdge(e) || ea.from != eb.from ||
        ea.to != eb.to || Bits(ea.q) != Bits(eb.q)) {
      return Fail("edge " + std::to_string(e) + " diverges");
    }
  }
  return {};
}

DiffResult CompareFactoringWithReference(const QueryGraph& query_graph,
                                         const FactoringOptions& options) {
  for (const NodeId target : query_graph.answers) {
    const std::string where = " for target " + std::to_string(target);
    int64_t ref_calls = -1;
    Result<double> ref =
        ReferenceFactoring(query_graph, target, options, &ref_calls);
    FactoringStats stats;
    Result<double> got =
        ExactReliabilityFactoring(query_graph, target, options, &stats);
    if (ref.status().code() != got.status().code()) {
      return Fail("status " + got.status().ToString() + " vs reference " +
                  ref.status().ToString() + where);
    }
    if (stats.calls != ref_calls) {
      return Fail("calls " + std::to_string(stats.calls) + " vs reference " +
                  std::to_string(ref_calls) + where);
    }
    if (!ref.ok()) continue;
    if (!ScoresBitIdentical({got.value()}, {ref.value()})) {
      return Fail("value " +
                  DescribeFirstDivergence({got.value()}, {ref.value()}) +
                  where);
    }

    // The budget is exact: the reference's count suffices, one less not.
    FactoringOptions tight = options;
    tight.max_calls = ref_calls;
    FactoringStats tight_stats;
    Result<double> at_budget =
        ExactReliabilityFactoring(query_graph, target, tight, &tight_stats);
    if (!at_budget.ok() || tight_stats.calls != ref_calls ||
        !ScoresBitIdentical({at_budget.value()}, {ref.value()})) {
      return Fail("max_calls = " + std::to_string(ref_calls) +
                  " does not reproduce the reference" + where);
    }
    tight.max_calls = ref_calls - 1;
    Result<double> under_budget =
        ExactReliabilityFactoring(query_graph, target, tight, &tight_stats);
    if (under_budget.status().code() != StatusCode::kFailedPrecondition ||
        tight_stats.calls != ref_calls - 1) {
      return Fail("max_calls = " + std::to_string(ref_calls - 1) +
                  " does not fail with the budget spent" + where);
    }
  }
  return {};
}

}  // namespace biorank::testing
