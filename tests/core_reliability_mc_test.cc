#include "core/reliability_mc.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "core/trial_bound.h"
#include "testing/random_graphs.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank {
namespace {

McOptions WordParallel(int64_t trials, uint64_t seed) {
  McOptions options;
  options.trials = trials;
  options.seed = seed;
  options.mode = McOptions::Mode::kWordParallel;
  options.num_threads = 1;
  return options;
}

/// The one-shot tally over the whole shard plan.
McShardTallies TallyAll(const QueryGraph& g, const McOptions& options) {
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(g);
  EXPECT_TRUE(snapshot.ok());
  const int64_t shards = static_cast<int64_t>(
      PlanTrialShards(options.trials, options.shard_trials).value().size());
  Result<McShardTallies> tally =
      TallyReliabilityMcShards(snapshot.value(), options, 0, shards);
  EXPECT_TRUE(tally.ok()) << tally.status();
  return tally.ok() ? tally.value() : McShardTallies{};
}

TEST(McTest, SingleCertainEdgeIsAlwaysReached) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 1.0);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 100;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().scores[t], 1.0);
  EXPECT_DOUBLE_EQ(r.value().scores[g.source], 1.0);
}

TEST(McTest, ZeroEdgeNeverReached) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.0);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 100;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value().scores[t], 0.0);
}

TEST(McTest, ConvergesToFig4aReliability) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.trials = 200000;
  options.seed = 7;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 0.5, 0.005);
}

TEST(McTest, ConvergesToBridgeReliability) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 200000;
  options.seed = 11;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 15.0 / 32.0, 0.005);
}

TEST(McTest, WordParallelAndTraversalAgreeInDistribution) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions traversal;
  traversal.trials = 100000;
  traversal.seed = 13;
  traversal.mode = McOptions::Mode::kTraversal;
  McOptions word = traversal;
  word.mode = McOptions::Mode::kWordParallel;
  Result<McEstimate> rt = EstimateReliabilityMc(g, traversal);
  Result<McEstimate> rw = EstimateReliabilityMc(g, word);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rw.ok());
  EXPECT_NEAR(rt.value().scores[g.answers[0]],
              rw.value().scores[g.answers[0]], 0.01);
  EXPECT_NEAR(rw.value().scores[g.answers[0]], 15.0 / 32.0, 0.01);
}

TEST(McTest, UncertainTargetNodeCountsPresence) {
  // r(t) = P[reachable AND present] = q * p = 0.5 * 0.6.
  QueryGraphBuilder b;
  NodeId t = b.Node(0.6, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 200000;
  options.seed = 17;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[t], 0.3, 0.005);
}

TEST(McTest, DeterministicForFixedSeed) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 5000;
  options.seed = 99;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, DifferentSeedsDiffer) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions a;
  a.trials = 5000;
  a.seed = 1;
  McOptions b = a;
  b.seed = 2;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, a);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, b);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_NE(r1.value().scores[g.answers[0]], r2.value().scores[g.answers[0]]);
}

TEST(McTest, MultithreadedMatchesAccuracy) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 100000;
  options.seed = 23;
  options.num_threads = 4;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value().scores[g.answers[0]], 15.0 / 32.0, 0.01);
}

TEST(McTest, MultithreadedIsDeterministicGivenThreadCount) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 20000;
  options.seed = 29;
  options.num_threads = 3;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, BitIdenticalAcrossThreadCounts) {
  // The sharded engine's contract: for a fixed seed the estimate depends
  // only on (seed, trials, shard_trials, mode), never on thread count.
  // Trials span many shards (20000 / 512 -> 40 shards) so real work
  // interleaves differently per pool, yet the counts must agree exactly.
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 20000;
  options.seed = 29;
  options.num_threads = 1;  // Pure inline single-thread reference.
  Result<McEstimate> reference = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(reference.ok());

  for (int threads : {2, 8}) {
    ThreadPool pool(threads - 1);
    McOptions parallel = options;
    parallel.num_threads = threads;
    parallel.pool = &pool;
    Result<McEstimate> r = EstimateReliabilityMc(g, parallel);
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().scores, reference.value().scores)
        << "thread count " << threads << " changed the estimate";
  }
}

TEST(McTest, ShardTrialsIsPartOfTheReproducibilityKey) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions a;
  a.trials = 5000;
  a.seed = 3;
  a.shard_trials = 512;
  McOptions b = a;
  b.shard_trials = 100;
  Result<McEstimate> ra = EstimateReliabilityMc(g, a);
  Result<McEstimate> rb = EstimateReliabilityMc(g, b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  // Different shard schedules draw from different stream sets.
  EXPECT_NE(ra.value().scores[g.answers[0]], rb.value().scores[g.answers[0]]);
  // But both still converge to the same quantity.
  EXPECT_NEAR(ra.value().scores[g.answers[0]],
              rb.value().scores[g.answers[0]], 0.05);
}

TEST(McTest, AutoThreadsMatchesExplicitPool) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions auto_options;
  auto_options.trials = 4000;
  auto_options.seed = 41;
  auto_options.num_threads = 0;  // Shared pool, whatever its size.
  ThreadPool pool(3);
  McOptions pool_options = auto_options;
  pool_options.pool = &pool;
  Result<McEstimate> r1 = EstimateReliabilityMc(g, auto_options);
  Result<McEstimate> r2 = EstimateReliabilityMc(g, pool_options);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(r1.value().scores, r2.value().scores);
}

TEST(McTest, WordParallelModeIsAlsoThreadCountInvariant) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  McOptions options;
  options.trials = 6000;
  options.seed = 53;
  options.mode = McOptions::Mode::kWordParallel;
  options.num_threads = 1;
  Result<McEstimate> reference = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(reference.ok());
  ThreadPool pool(3);
  McOptions parallel = options;
  parallel.num_threads = 4;
  parallel.pool = &pool;
  Result<McEstimate> r = EstimateReliabilityMc(g, parallel);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().scores, reference.value().scores);
}

TEST(McTest, RejectsNonPositiveTrials) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.trials = 0;
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidThreadCount) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.num_threads = -1;  // 0 means "full shared pool" and is valid.
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidShardTrials) {
  QueryGraph g = MakeFig4aSerialParallel();
  McOptions options;
  options.shard_trials = 0;
  EXPECT_FALSE(EstimateReliabilityMc(g, options).ok());
}

TEST(McTest, RejectsInvalidQueryGraph) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0);
  QueryGraph g = std::move(b).Build({t, t});  // Duplicate answer.
  EXPECT_FALSE(EstimateReliabilityMc(g).ok());
}

TEST(McTest, HandlesCyclesWithoutHanging) {
  QueryGraphBuilder b;
  NodeId a = b.Node(1.0, "a");
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), a, 0.5);
  b.Edge(a, t, 0.5);
  b.Edge(t, a, 0.5);  // Cycle a <-> t.
  QueryGraph g = std::move(b).Build({t});
  McOptions options;
  options.trials = 10000;
  Result<McEstimate> r = EstimateReliabilityMc(g, options);
  ASSERT_TRUE(r.ok());
  // Reliability of t: edge(s,a) and edge(a,t) both present = 0.25. The
  // cycle back-edge changes nothing.
  EXPECT_NEAR(r.value().scores[t], 0.25, 0.02);
}

TEST(McWordParallelTest, LaneMasksCoverExactlyTheTrials) {
  // s -certain-> a and s -(1/2)-> b, all nodes certain. A coin of
  // exactly 1/2 has threshold 2^52, decided by one word for all lanes,
  // so the word count is the number of trial words: ceil(shard / 64)
  // summed over the shard plan (215 is the 7895-trial plan's tail).
  QueryGraphBuilder builder;
  NodeId a = builder.Node(1.0, "a");
  NodeId b = builder.Node(1.0, "b");
  builder.Edge(builder.Source(), a, 1.0);
  builder.Edge(builder.Source(), b, 0.5);
  QueryGraph g = std::move(builder).Build({a, b});
  for (int64_t trials : {1, 63, 64, 65, 215, 7895}) {
    McShardTallies tally = TallyAll(g, WordParallel(trials, 5));
    const std::vector<int64_t> plan = PlanTrialShards(trials, 512).value();
    int64_t expected_words = 0;
    for (int64_t shard : plan) {
      expected_words += (shard + 63) / 64;
    }
    EXPECT_EQ(tally.trials, trials);
    EXPECT_EQ(tally.counts[g.source], trials) << trials;
    EXPECT_EQ(tally.counts[a], trials) << trials;
    EXPECT_GE(tally.counts[b], 0) << trials;
    EXPECT_LE(tally.counts[b], trials) << trials;
    EXPECT_EQ(tally.words, expected_words) << trials;
  }
  const McShardTallies big = TallyAll(g, WordParallel(7895, 5));
  EXPECT_NEAR(static_cast<double>(big.counts[b]) / 7895.0, 0.5,
              4.0 * std::sqrt(0.25 / 7895.0));
}

TEST(McWordParallelTest, CertainAndImpossibleElementsDrawNothing) {
  QueryGraphBuilder builder;
  NodeId a = builder.Node(1.0, "a");
  NodeId t = builder.Node(1.0, "t");
  NodeId cut = builder.Node(0.5, "cut");   // Behind an impossible edge.
  NodeId dead = builder.Node(0.0, "dead");  // Behind a certain edge.
  builder.Edge(builder.Source(), a, 1.0);
  builder.Edge(a, t, 1.0);
  builder.Edge(builder.Source(), cut, 0.0);
  builder.Edge(a, dead, 1.0);
  QueryGraph g = std::move(builder).Build({t, cut, dead});
  const McShardTallies tally = TallyAll(g, WordParallel(1000, 3));
  EXPECT_EQ(tally.words, 0);
  EXPECT_EQ(tally.counts[t], 1000);
  EXPECT_EQ(tally.counts[cut], 0);
  EXPECT_EQ(tally.counts[dead], 0);
}

TEST(McWordParallelTest, AbsentSourceReachesNothing) {
  QueryGraphBuilder builder;
  NodeId t = builder.Node(0.9, "t");
  builder.Edge(builder.Source(), t, 0.8);
  QueryGraph g = std::move(builder).Build({t});
  ASSERT_TRUE(g.graph.SetNodeProb(g.source, 0.0).ok());
  const McShardTallies tally = TallyAll(g, WordParallel(777, 9));
  EXPECT_EQ(tally.words, 0);
  EXPECT_EQ(tally.counts[g.source], 0);
  EXPECT_EQ(tally.counts[t], 0);
}

TEST(McWordParallelTest, CyclicGraphReachesAroundTheCycle) {
  // s -> a and s -> t at 1/2 each, a <-> t at 1/2 each: a and t are both
  // reached with probability 1 - (1/2)(3/4) = 5/8, t through a and a
  // through t.
  QueryGraphBuilder builder;
  NodeId a = builder.Node(1.0, "a");
  NodeId t = builder.Node(1.0, "t");
  builder.Edge(builder.Source(), a, 0.5);
  builder.Edge(builder.Source(), t, 0.5);
  builder.Edge(a, t, 0.5);
  builder.Edge(t, a, 0.5);
  QueryGraph g = std::move(builder).Build({a, t});
  const int64_t trials = 100000;
  Result<McEstimate> r = EstimateReliabilityMc(g, WordParallel(trials, 21));
  ASSERT_TRUE(r.ok());
  const double sigma = std::sqrt(0.625 * 0.375 / trials);
  EXPECT_NEAR(r.value().scores[a], 0.625, 4.0 * sigma);
  EXPECT_NEAR(r.value().scores[t], 0.625, 4.0 * sigma);
}

TEST(McWordParallelTest, ShardPartitionsSumToTheOneShotTally) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  const McOptions options = WordParallel(7895, 61);
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(g);
  ASSERT_TRUE(snapshot.ok());
  const McShardTallies whole = TallyAll(g, options);
  const std::vector<std::vector<int64_t>> partitions = {
      {0, 16}, {0, 8, 16}, {0, 1, 2, 15, 16}, {0, 5, 6, 7, 11, 16}};
  for (const std::vector<int64_t>& cuts : partitions) {
    std::vector<int64_t> counts(whole.counts.size(), 0);
    int64_t trials = 0;
    int64_t words = 0;
    for (size_t i = 0; i + 1 < cuts.size(); ++i) {
      Result<McShardTallies> piece = TallyReliabilityMcShards(
          snapshot.value(), options, cuts[i], cuts[i + 1]);
      ASSERT_TRUE(piece.ok());
      for (size_t v = 0; v < counts.size(); ++v) {
        counts[v] += piece.value().counts[v];
      }
      trials += piece.value().trials;
      words += piece.value().words;
    }
    EXPECT_EQ(counts, whole.counts) << cuts.size() - 1 << " pieces";
    EXPECT_EQ(trials, whole.trials);
    EXPECT_EQ(words, whole.words);
  }
}

TEST(McWordParallelTest, PointerBackendRejectsIt) {
  McOptions options = WordParallel(100, 1);
  options.backend = McOptions::Backend::kPointerView;
  Result<McEstimate> r = EstimateReliabilityMc(MakeFig4aSerialParallel(),
                                               options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST(McWordParallelTest, WithinFourSigmaOfExactOnHarnessGraphs) {
  // The statistical contract: on every harness graph (layered DAGs,
  // trees, cyclic digraphs) and every answer that factoring solves, the
  // 100k-trial estimate lies within 4 sigma of the exact reliability.
  constexpr int64_t kTrials = 100000;
  Rng rng(1979);
  int compared = 0;
  int cyclic_compared = 0;
  double worst_z = 0.0;
  for (int round = 0; round < 206; ++round) {
    const QueryGraph query = testing::MakeHarnessGraph(rng, round);
    Result<McEstimate> estimate = EstimateReliabilityMc(
        query, WordParallel(kTrials, 4000 + static_cast<uint64_t>(round)));
    ASSERT_TRUE(estimate.ok()) << "round " << round;
    FactoringOptions factoring;
    factoring.max_calls = 2000;
    for (NodeId answer : query.answers) {
      Result<double> exact =
          ExactReliabilityFactoring(query, answer, factoring);
      if (!exact.ok()) continue;
      const double p = exact.value();
      const double sigma =
          std::sqrt(std::max(p * (1.0 - p), 0.0) / kTrials);
      const double error = std::fabs(estimate.value().scores[answer] - p);
      EXPECT_LE(error, 4.0 * sigma + 1e-12)
          << "round " << round << " answer " << answer << ": exact " << p
          << " estimate " << estimate.value().scores[answer];
      if (sigma > 0.0) worst_z = std::max(worst_z, error / sigma);
      ++compared;
      if (round % 3 == 2) ++cyclic_compared;
    }
  }
  // 1371 answers at this budget, 98 of them on cyclic digraphs.
  EXPECT_GT(compared, 1000);
  EXPECT_GT(cyclic_compared, 50);
  RecordProperty("answers_compared", compared);
  RecordProperty("worst_z_milli", static_cast<int>(worst_z * 1000.0));
}

TEST(TrialBoundTest, PaperExampleRoundsBelowTenThousand) {
  Result<int64_t> n = RequiredMcTrials(0.02, 0.05);
  ASSERT_TRUE(n.ok());
  // Appendix A with eps=.02, delta=.05 gives 7,896; the paper rounds to
  // "10,000 trials should be enough".
  EXPECT_EQ(n.value(), 7896);
  EXPECT_LE(n.value(), 10000);
}

TEST(TrialBoundTest, MonotoneInEpsilonAndDelta) {
  int64_t loose = RequiredMcTrials(0.05, 0.05).value();
  int64_t tight_eps = RequiredMcTrials(0.01, 0.05).value();
  int64_t tight_delta = RequiredMcTrials(0.05, 0.001).value();
  EXPECT_GT(tight_eps, loose);
  EXPECT_GT(tight_delta, loose);
}

TEST(TrialBoundTest, RejectsBadArguments) {
  EXPECT_FALSE(RequiredMcTrials(0.0, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(-0.1, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(1.5, 0.05).ok());
  EXPECT_FALSE(RequiredMcTrials(0.02, 0.0).ok());
  EXPECT_FALSE(RequiredMcTrials(0.02, 1.0).ok());
}

}  // namespace
}  // namespace biorank
