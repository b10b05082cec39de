// Differential lockdown of the CSR-vs-pointer backend contract: across
// ~200 seeded random graphs, reliability_mc, topk_mc, diffusion, and the
// per-candidate query-relevant restriction must be BIT-identical between
// the flat-snapshot and pointer-graph substrates, at 1 and 4 threads; the
// CSR-only word-parallel MC kernel must be bit-identical to itself across
// thread counts and shard partitions.
// Any divergence means the two paths flipped different coins (or summed
// in a different order) — the exact regression this suite exists to
// catch before it ships as a silent ranking change.

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "core/canonical.h"
#include "core/query_graph.h"
#include "core/reduction.h"
#include "core/reliability_exact.h"
#include "testing/differential.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank {
namespace {

using testing::CompareDiffusionBackends;
using testing::CompareFactoringWithReference;
using testing::CompareMcBackends;
using testing::CompareCanonicalizationWithReference;
using testing::CompareReductionWithReference;
using testing::CompareTopKBackends;
using testing::CompareWordParallelInvariance;
using testing::DiffResult;

TEST(CsrDifferentialTest, ReliabilityMcBitIdentical) {
  Rng rng(20260808);
  for (int round = 0; round < 50; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    for (int threads : {1, 4}) {
      DiffResult r = CompareMcBackends(query, /*trials=*/1500,
                                       /*seed=*/1000 + round, threads);
      EXPECT_TRUE(r.ok) << "round " << round << ", " << threads
                        << " threads: " << r.message;
    }
  }
}

TEST(CsrDifferentialTest, ReliabilityMcWordParallelInvariant) {
  // The word-parallel kernel has no pointer twin (the pointer backend
  // rejects it), so its contract is invariance: the same counts, trials
  // and words at 1, 2, 4 and 8 threads and under every tested partition
  // of the shard range, on the harness's full graph count. 2000 trials
  // is four shards, the last one ending in a partial word.
  ThreadPool pool(7);
  Rng rng(77);
  for (int round = 0; round < 206; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    DiffResult r = CompareWordParallelInvariance(
        query, /*trials=*/2000, /*seed=*/31 + round, pool);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, TopKAdaptiveTrajectoryBitIdentical) {
  Rng rng(4242);
  for (int round = 0; round < 40; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    TopKOptions options;
    options.k = 2;
    options.batch_trials = 400;
    options.max_trials = 4000;
    options.seed = 9000 + static_cast<uint64_t>(round);
    for (int threads : {1, 4}) {
      options.num_threads = threads;
      DiffResult r = CompareTopKBackends(query, options);
      EXPECT_TRUE(r.ok) << "round " << round << ", " << threads
                        << " threads: " << r.message;
    }
  }
}

TEST(CsrDifferentialTest, DiffusionBitIdentical) {
  Rng rng(1717);
  for (int round = 0; round < 50; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    DiffusionOptions options;
    options.max_iterations = 100;
    options.solver = (round % 2) == 0 ? DiffusionInnerSolver::kAnalytic
                                      : DiffusionInnerSolver::kBisection;
    DiffResult r = CompareDiffusionBackends(query, options);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, RestrictionAndCanonicalizationIdentical) {
  // Production flat canonicalization vs the pointer reference over the
  // harness's full graph count, alternating provenance collection and
  // sometimes starving the labeling budget (first-branch-only search).
  Rng rng(5150);
  for (int round = 0; round < 206; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    CanonicalizeOptions options;
    options.collect_provenance = (round % 2) == 0;
    if (round % 5 == 4) options.max_label_leaves = 1;
    DiffResult r = CompareCanonicalizationWithReference(query, options);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, ReductionAdapterIdentical) {
  // ReduceQueryGraph (flat kernel + write-back) vs the pointer reference
  // rules, on graphs with tombstones and parallel edges, under every
  // subset of the five rules.
  Rng rng(8086);
  for (int round = 0; round < 206; ++round) {
    QueryGraph query = testing::MakeHarnessGraph(rng, round);
    ProbabilisticEntityGraph& graph = query.graph;
    if (round % 3 == 0 && graph.num_edges() > 0) {
      const std::vector<EdgeId> alive = graph.AliveEdges();
      const EdgeId e = alive[rng.NextBounded(alive.size())];
      const GraphEdge edge = graph.edge(e);
      ASSERT_TRUE(graph.AddEdge(edge.from, edge.to, 0.5 * edge.q).ok());
      ASSERT_TRUE(graph.RemoveEdge(e).ok());
    }
    if (round % 4 == 1) {
      const NodeId x = static_cast<NodeId>(
          rng.NextBounded(static_cast<uint64_t>(graph.node_capacity())));
      const bool is_answer =
          std::find(query.answers.begin(), query.answers.end(), x) !=
          query.answers.end();
      if (x != query.source && !is_answer) {
        ASSERT_TRUE(graph.RemoveNode(x).ok());
      }
    }
    const int rules = round % 32;
    ReductionOptions options;
    options.delete_sinks = (rules & 1) == 0;
    options.collapse_serial = (rules & 2) == 0;
    options.merge_parallel = (rules & 4) == 0;
    options.delete_orphans = (rules & 8) == 0;
    options.delete_self_loops = (rules & 16) == 0;
    DiffResult r = CompareReductionWithReference(query, options);
    EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
  }
}

TEST(CsrDifferentialTest, FactoringIdenticalToReference) {
  // The flat factoring recursion vs the pointer reference: value bits,
  // call counts, and the exact budget edge, with the reductions on and
  // off, over the harness's graphs. Budgets keep the no-reduction runs
  // (exponential on the larger digraphs) short; a blown budget must blow
  // identically.
  Rng rng(1979);
  for (int round = 0; round < 206; ++round) {
    const QueryGraph query = testing::MakeHarnessGraph(rng, round);
    for (bool reductions : {true, false}) {
      FactoringOptions options;
      options.use_reductions = reductions;
      options.max_calls = reductions ? 250 : 100;
      DiffResult r = CompareFactoringWithReference(query, options);
      EXPECT_TRUE(r.ok) << "round " << round << " reductions " << reductions
                        << ": " << r.message;
    }
  }
}

TEST(CsrDifferentialTest, FactoringIdenticalOnServingShapedDags) {
  // The serving workload's residues. At small budgets nearly every
  // answer exhausts the budget, with the reductions on or off, and must
  // do so exactly as the reference does. The answers that factor within
  // 10,000 calls are then compared at that budget: deep recursions whose
  // every value bit and call must match.
  Rng rng(2009);
  int64_t deepest = 0;
  for (int round = 0; round < 3; ++round) {
    const QueryGraph query = testing::MakeServingShapedDag(rng);
    for (bool reductions : {true, false}) {
      FactoringOptions options;
      options.use_reductions = reductions;
      options.max_calls = reductions ? 500 : 100;
      DiffResult r = CompareFactoringWithReference(query, options);
      EXPECT_TRUE(r.ok) << "round " << round << " reductions " << reductions
                        << ": " << r.message;
    }
    FactoringOptions deep;
    deep.max_calls = 10000;
    for (NodeId target : query.answers) {
      FactoringStats stats;
      if (!ExactReliabilityFactoring(query, target, deep, &stats).ok()) {
        continue;
      }
      deepest = std::max(deepest, stats.calls);
      QueryGraph single = query;
      single.answers = {target};
      DiffResult r = CompareFactoringWithReference(single, deep);
      EXPECT_TRUE(r.ok) << "round " << round << ": " << r.message;
    }
  }
  EXPECT_GT(deepest, 1000) << "no deep factoring was compared";
}

TEST(CsrDifferentialTest, ShardGranularityInvariance) {
  // Same seed, different shard sizes: each backend must change results
  // the same way (shard plan is part of the reproducibility key, not a
  // backend detail).
  Rng rng(62);
  QueryGraph query = testing::MakeHarnessGraph(rng, 0);
  for (int64_t shard_trials : {1, 7, 64, 512}) {
    McOptions mc;
    mc.trials = 999;
    mc.seed = 11;
    mc.shard_trials = shard_trials;
    mc.num_threads = 4;
    mc.backend = McOptions::Backend::kCsrSnapshot;
    Result<McEstimate> csr = EstimateReliabilityMc(query, mc);
    mc.backend = McOptions::Backend::kPointerView;
    Result<McEstimate> ptr = EstimateReliabilityMc(query, mc);
    ASSERT_TRUE(csr.ok() && ptr.ok());
    EXPECT_TRUE(
        testing::ScoresBitIdentical(csr.value().scores, ptr.value().scores))
        << "shard_trials=" << shard_trials;
  }
}

}  // namespace
}  // namespace biorank
