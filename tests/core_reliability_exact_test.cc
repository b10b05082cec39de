#include "core/reliability_exact.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "core/query_graph.h"
#include "testing/differential.h"
#include "testing/reference_factoring.h"

namespace biorank {
namespace {

TEST(BruteForceTest, SingleEdge) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.4, 1e-12);
}

TEST(BruteForceTest, SerialChain) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), mid, 0.9);
  b.Edge(mid, t, 0.7);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.9 * 0.5 * 0.7 * 0.8, 1e-12);
}

TEST(BruteForceTest, ParallelEdges) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.5);
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.75, 1e-12);
}

TEST(BruteForceTest, Fig4aIsHalf) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<double> r = ExactReliabilityBruteForce(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.5, 1e-12);
}

TEST(BruteForceTest, WheatstoneBridgeMatchesPaper) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<double> r = ExactReliabilityBruteForce(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 15.0 / 32.0, 1e-12);  // 0.469 in Figure 4b.
}

TEST(BruteForceTest, UnreachableTargetIsZero) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(BruteForceTest, SourceIsItsOwnTargetWithProbOne) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, g.source);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 1.0);
}

TEST(BruteForceTest, RefusesTooManyUncertainElements) {
  QueryGraphBuilder b;
  std::vector<NodeId> nodes;
  for (int i = 0; i < 30; ++i) {
    NodeId n = b.Node(0.5);
    b.Edge(b.Source(), n, 0.5);
    nodes.push_back(n);
  }
  QueryGraph g = std::move(b).Build(nodes);
  Result<double> r = ExactReliabilityBruteForce(g, nodes[0], 10);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(BruteForceTest, ZeroProbabilityEdgeNeverConnects) {
  QueryGraphBuilder b;
  NodeId t = b.Node(1.0, "t");
  b.Edge(b.Source(), t, 0.0);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(FactoringTest, MatchesBruteForceOnBridge) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 15.0 / 32.0, 1e-12);
}

TEST(FactoringTest, MatchesBruteForceOnFig4a) {
  QueryGraph g = MakeFig4aSerialParallel();
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0]);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.5, 1e-12);
}

TEST(FactoringTest, WorksWithoutReductions) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  FactoringOptions options;
  options.use_reductions = false;
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0], options);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 15.0 / 32.0, 1e-12);
}

TEST(FactoringTest, HandlesUncertainNodesViaReification) {
  QueryGraphBuilder b;
  NodeId mid = b.Node(0.5, "mid");
  NodeId t = b.Node(0.8, "t");
  b.Edge(b.Source(), mid, 0.9);
  b.Edge(mid, t, 0.7);
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_NEAR(r.value(), 0.9 * 0.5 * 0.7 * 0.8, 1e-12);
}

TEST(FactoringTest, UnreachableTargetIsZero) {
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  QueryGraph g = std::move(b).Build({t});
  Result<double> r = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(FactoringTest, BudgetExceededFails) {
  QueryGraph g = MakeFig4bWheatstoneBridge();
  FactoringOptions options;
  options.use_reductions = false;
  options.max_calls = 2;
  Result<double> r = ExactReliabilityFactoring(g, g.answers[0], options);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(FactoringTest, AllAnswersVector) {
  QueryGraphBuilder b;
  NodeId t1 = b.Node(1.0, "t1");
  NodeId t2 = b.Node(1.0, "t2");
  b.Edge(b.Source(), t1, 0.5);
  b.Edge(b.Source(), t2, 0.25);
  QueryGraph g = std::move(b).Build({t1, t2});
  Result<std::vector<double>> r = ExactReliabilityAllAnswers(g);
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.value().size(), 2u);
  EXPECT_NEAR(r.value()[0], 0.5, 1e-12);
  EXPECT_NEAR(r.value()[1], 0.25, 1e-12);
}

TEST(FactoringTest, DoubleBridgeMatchesBruteForce) {
  // Two Wheatstone bridges in series: irreducible beyond one conditioning.
  QueryGraphBuilder b;
  NodeId a1 = b.Node(1.0), b1 = b.Node(1.0), m = b.Node(1.0);
  NodeId a2 = b.Node(1.0), b2 = b.Node(1.0), t = b.Node(1.0);
  NodeId s = b.Source();
  b.Edge(s, a1, 0.6);
  b.Edge(s, b1, 0.7);
  b.Edge(a1, b1, 0.5);
  b.Edge(a1, m, 0.8);
  b.Edge(b1, m, 0.4);
  b.Edge(m, a2, 0.6);
  b.Edge(m, b2, 0.7);
  b.Edge(a2, b2, 0.5);
  b.Edge(a2, t, 0.8);
  b.Edge(b2, t, 0.4);
  QueryGraph g = std::move(b).Build({t});
  Result<double> brute = ExactReliabilityBruteForce(g, t);
  Result<double> factored = ExactReliabilityFactoring(g, t);
  ASSERT_TRUE(brute.ok());
  ASSERT_TRUE(factored.ok());
  EXPECT_NEAR(brute.value(), factored.value(), 1e-12);
}

/// Factors `g` for `t` with the reductions on and off and checks each
/// run against brute force (value) and the pointer reference (value bits
/// and call count).
void ExpectMatchesReferenceAndBruteForce(const QueryGraph& g, NodeId t) {
  Result<double> brute = ExactReliabilityBruteForce(g, t);
  ASSERT_TRUE(brute.ok()) << brute.status();
  for (bool reductions : {true, false}) {
    FactoringOptions options;
    options.use_reductions = reductions;
    FactoringStats stats;
    Result<double> got = ExactReliabilityFactoring(g, t, options, &stats);
    int64_t ref_calls = -1;
    Result<double> ref =
        testing::ReferenceFactoring(g, t, options, &ref_calls);
    ASSERT_TRUE(got.ok()) << got.status();
    ASSERT_TRUE(ref.ok()) << ref.status();
    EXPECT_NEAR(got.value(), brute.value(), 1e-12) << reductions;
    EXPECT_TRUE(testing::ScoresBitIdentical({got.value()}, {ref.value()}))
        << got.value() << " vs " << ref.value() << ", reductions "
        << reductions;
    EXPECT_EQ(stats.calls, ref_calls) << reductions;
  }
}

TEST(FactoringTest, PivotBehindCertainDeadEnds) {
  // The source's certain region is a chain with a dead end (b) and
  // zero-probability exits; the target sits behind uncertain edges only.
  // The pivot DFS must walk the certain chain and take the first
  // uncertain edge it meets in out-edge order.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId a = b.Node(1.0), dead = b.Node(1.0), c = b.Node(1.0);
  NodeId d = b.Node(1.0), t = b.Node(1.0);
  b.Edge(s, a, 1.0);
  b.Edge(a, dead, 1.0);
  b.Edge(dead, t, 0.0);
  b.Edge(s, c, 1.0);
  b.Edge(c, t, 0.0);
  b.Edge(c, d, 0.5);
  b.Edge(d, t, 0.6);
  b.Edge(a, t, 0.4);
  b.Edge(a, d, 0.3);
  QueryGraph g = std::move(b).Build({t});
  ExpectMatchesReferenceAndBruteForce(g, t);
}

TEST(FactoringTest, ZeroProbabilityPivotNeighbour) {
  // x is never present (p = 0, a q = 0 edge after reification) and sits
  // next to the pivot candidates; a q = 0 edge also joins source and
  // target directly. Neither may be crossed or conditioned on.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId x = b.Node(0.0), y = b.Node(0.8), t = b.Node(0.9);
  b.Edge(s, x, 0.5);
  b.Edge(x, t, 0.9);
  b.Edge(s, y, 0.7);
  b.Edge(y, x, 0.6);
  b.Edge(y, t, 0.3);
  b.Edge(s, t, 0.0);
  b.Edge(x, y, 0.4);
  QueryGraph g = std::move(b).Build({t});
  ExpectMatchesReferenceAndBruteForce(g, t);
}

TEST(FactoringTest, SourceIsItsOwnTarget) {
  // A certain source reaches itself in one call; an uncertain one splits
  // into in/out sides under reification and conditions once on p(s).
  QueryGraphBuilder b;
  NodeId t = b.Node(0.9, "t");
  b.Edge(b.Source(), t, 0.5);
  QueryGraph g = std::move(b).Build({t});
  FactoringStats stats;
  Result<double> r = ExactReliabilityFactoring(g, g.source, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value(), 1.0);
  EXPECT_EQ(stats.calls, 1);
  ExpectMatchesReferenceAndBruteForce(g, g.source);

  ASSERT_TRUE(g.graph.SetNodeProb(g.source, 0.75).ok());
  r = ExactReliabilityFactoring(g, g.source, {}, &stats);
  ASSERT_TRUE(r.ok()) << r.status();
  EXPECT_EQ(r.value(), 0.75);
  EXPECT_EQ(stats.calls, 3);
  ExpectMatchesReferenceAndBruteForce(g, g.source);
}

}  // namespace
}  // namespace biorank
