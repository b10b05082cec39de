// The bounds-driven ranking service: top-k values must agree exactly
// with the exact per-answer reliabilities where those are computable,
// and the service output must be bit-identical with the cache on or
// off, at 1 or k threads, and across repeated requests.

#include "serve/ranking_service.h"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reliability_exact.h"
#include "testing/random_graphs.h"
#include "testing/reference_canonical.h"
#include "util/parallel.h"
#include "util/rng.h"

namespace biorank::serve {
namespace {

using biorank::testing::MakeRandomLayeredDag;
using biorank::testing::RandomDagOptions;

/// (node, reliability) pairs for exact output comparison. Doubles are
/// compared with ==: the service's determinism contract is bit-identity.
std::vector<std::pair<NodeId, double>> Flatten(const TopKResult& result) {
  std::vector<std::pair<NodeId, double>> out;
  for (const RankedCandidate& c : result.top) {
    out.emplace_back(c.node, c.reliability);
  }
  return out;
}

std::vector<QueryGraph> MakeWorkload(int count, uint64_t seed) {
  Rng rng(seed);
  RandomDagOptions options;
  options.layers = 2;
  options.nodes_per_layer = 4;
  options.answers = 6;
  std::vector<QueryGraph> graphs;
  for (int i = 0; i < count; ++i) {
    graphs.push_back(MakeRandomLayeredDag(rng, options));
  }
  return graphs;
}

TEST(RankingServiceTest, MonteCarloWithinFourSigmaOfFactoringOnServingDags) {
  // Serving-shaped layered DAGs (31 nodes, 12 answers). A default
  // service factors the residues of at most 24 edges; with factoring off
  // (exact_max_edges = 0) the same candidates resolve by the
  // word-parallel kernel, and each must lie within 4 sigma of its
  // factored value.
  Rng rng(4243);
  RankingServiceOptions options;
  options.num_threads = 1;
  RankingService factored(options);
  options.exact_max_edges = 0;
  RankingService forced(options);
  const double trials = static_cast<double>(forced.McTrialsPerCandidate());
  int compared = 0;
  for (int round = 0; round < 48; ++round) {
    const QueryGraph g = testing::MakeServingShapedDag(rng);
    const int k = static_cast<int>(g.answers.size());
    Result<TopKResult> exact = factored.RankTopK(g, k);
    Result<TopKResult> mc = forced.RankTopK(g, k);
    ASSERT_TRUE(exact.ok()) << exact.status();
    ASSERT_TRUE(mc.ok()) << mc.status();
    for (const RankedCandidate& e : exact.value().top) {
      if (e.resolution != Resolution::kExact) continue;
      for (const RankedCandidate& m : mc.value().top) {
        if (m.node != e.node) continue;
        ASSERT_EQ(m.resolution, Resolution::kMonteCarlo);
        const double p = e.reliability;
        const double sigma = std::sqrt(p * (1.0 - p) / trials);
        EXPECT_NEAR(m.reliability, p, 4.0 * sigma + 1e-12)
            << "round " << round << " answer " << m.node;
        ++compared;
      }
    }
  }
  EXPECT_GE(compared, 20);  // 25 factored candidates on these DAGs.
}

TEST(RankingServiceTest, FullRankingMatchesExactReliability) {
  for (const QueryGraph& g :
       {MakeFig4aSerialParallel(), MakeFig4bWheatstoneBridge()}) {
    RankingService service;
    Result<TopKResult> result =
        service.RankTopK(g, static_cast<int>(g.answers.size()));
    ASSERT_TRUE(result.ok()) << result.status();
    Result<std::vector<double>> exact = ExactReliabilityAllAnswers(g);
    ASSERT_TRUE(exact.ok());
    ASSERT_EQ(result.value().top.size(), g.answers.size());
    for (const RankedCandidate& c : result.value().top) {
      for (size_t i = 0; i < g.answers.size(); ++i) {
        if (g.answers[i] == c.node) {
          EXPECT_NEAR(c.reliability, exact.value()[i], 1e-12)
              << "answer node " << c.node;
          EXPECT_TRUE(c.exact);
        }
      }
    }
  }
}

TEST(RankingServiceTest, TopKIsSortedAndTruncated) {
  Rng rng(7);
  RandomDagOptions options;
  options.answers = 8;
  QueryGraph g = MakeRandomLayeredDag(rng, options);
  RankingService service;
  Result<TopKResult> all = service.RankTopK(g, 8);
  ASSERT_TRUE(all.ok()) << all.status();
  Result<TopKResult> top3 = service.RankTopK(g, 3);
  ASSERT_TRUE(top3.ok());
  ASSERT_EQ(top3.value().top.size(), 3u);
  for (size_t i = 1; i < all.value().top.size(); ++i) {
    EXPECT_GE(all.value().top[i - 1].reliability,
              all.value().top[i].reliability);
  }
  // The truncated request returns a prefix of the full ranking.
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(top3.value().top[i].node, all.value().top[i].node);
    EXPECT_EQ(top3.value().top[i].reliability,
              all.value().top[i].reliability);
  }
}

TEST(RankingServiceTest, BitIdenticalWithCacheOnAndOff) {
  std::vector<QueryGraph> workload = MakeWorkload(6, 11);
  RankingServiceOptions with_cache;
  RankingServiceOptions without_cache;
  without_cache.enable_cache = false;
  RankingService cached(with_cache);
  RankingService uncached(without_cache);
  for (int pass = 0; pass < 2; ++pass) {
    for (const QueryGraph& g : workload) {
      Result<TopKResult> a = cached.RankTopK(g, 3);
      Result<TopKResult> b = uncached.RankTopK(g, 3);
      ASSERT_TRUE(a.ok()) << a.status();
      ASSERT_TRUE(b.ok()) << b.status();
      EXPECT_EQ(Flatten(a.value()), Flatten(b.value()));
    }
  }
  // The warm cache actually served hits; the uncached service did not.
  EXPECT_GT(cached.cache().Stats().hits, 0u);
  EXPECT_EQ(uncached.cache().Stats().hits + uncached.cache().Stats().misses,
            0u);
}

TEST(RankingServiceTest, BitIdenticalAcrossThreadCounts) {
  std::vector<QueryGraph> workload = MakeWorkload(4, 23);
  RankingServiceOptions inline_options;
  inline_options.num_threads = 1;
  inline_options.exact_max_edges = 0;  // Force Monte Carlo on survivors.
  RankingServiceOptions pooled_options = inline_options;
  pooled_options.num_threads = 4;
  ThreadPool pool(3);
  pooled_options.pool = &pool;
  RankingService inline_service(inline_options);
  RankingService pooled_service(pooled_options);
  bool saw_mc = false;
  for (const QueryGraph& g : workload) {
    Result<TopKResult> a = inline_service.RankTopK(g, 3);
    Result<TopKResult> b = pooled_service.RankTopK(g, 3);
    ASSERT_TRUE(a.ok()) << a.status();
    ASSERT_TRUE(b.ok()) << b.status();
    EXPECT_EQ(Flatten(a.value()), Flatten(b.value()));
    saw_mc = saw_mc || a.value().stats.monte_carlo > 0;
  }
  EXPECT_TRUE(saw_mc) << "workload never exercised the MC path";
}

TEST(RankingServiceTest, SecondRequestIsServedFromTheCache) {
  QueryGraph g = MakeFig4aSerialParallel();
  RankingService service;
  Result<TopKResult> first = service.RankTopK(g, 1);
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().stats.cache_hits, 0);
  EXPECT_GT(first.value().stats.cache_misses, 0);
  Result<TopKResult> second = service.RankTopK(g, 1);
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(second.value().stats.cache_misses, 0);
  EXPECT_GT(second.value().stats.cache_hits, 0);
  EXPECT_EQ(Flatten(first.value()), Flatten(second.value()));
}

TEST(RankingServiceTest, BoundsPruneBelowTheCut) {
  // A star of answers with well-separated edge probabilities: with k=2
  // the weak answers' upper bounds sit below the strong answers' lower
  // bounds, so they must be pruned without exact/MC work.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  std::vector<NodeId> answers;
  for (int i = 0; i < 8; ++i) {
    NodeId t = b.Node(1.0);
    b.Edge(s, t, i < 2 ? 0.9 : 0.1 + 0.01 * i);
    answers.push_back(t);
  }
  QueryGraph g = std::move(b).Build(answers);
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].node, answers[0]);
  EXPECT_EQ(result.value().top[1].node, answers[1]);
  EXPECT_DOUBLE_EQ(result.value().top[0].reliability, 0.9);
  EXPECT_GT(result.value().stats.pruned, 0);
  EXPECT_GT(result.value().stats.PrunedFraction(), 0.0);
}

TEST(RankingServiceTest, IsomorphicAnswersShareOneResolution) {
  // Two answers with identical evidence shape: one canonical key, one
  // computation, and the duplicate lookup counts as a hit.
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m1 = b.Node(0.9);
  NodeId m2 = b.Node(0.9);
  NodeId t1 = b.Node(0.8);
  NodeId t2 = b.Node(0.8);
  b.Edge(s, m1, 0.7);
  b.Edge(s, m2, 0.7);
  b.Edge(m1, t1, 0.6);
  b.Edge(m2, t2, 0.6);
  QueryGraph g = std::move(b).Build({t1, t2});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.value().stats.cache_hits, 1);
  EXPECT_EQ(result.value().stats.cache_misses, 1);
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].reliability,
            result.value().top[1].reliability);
}

TEST(RankingServiceTest, EmptyAnswerSetReturnsEmptyResult) {
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId m = b.Node(0.9);
  b.Edge(s, m, 0.5);
  QueryGraph g = std::move(b).Build({});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 3);
  ASSERT_TRUE(result.ok()) << result.status();
  EXPECT_TRUE(result.value().top.empty());
  EXPECT_EQ(result.value().stats.candidates, 0);
}

TEST(RankingServiceTest, UnreachableAnswerHasEmptyEvidenceSubgraph) {
  // An answer with no path from the query node: its query-relevant
  // subgraph is empty, its reliability is exactly 0, and it must still
  // appear in a full ranking (below every supported answer).
  QueryGraphBuilder b;
  NodeId s = b.Source();
  NodeId supported = b.Node(1.0);
  NodeId stranded = b.Node(1.0);
  b.Edge(s, supported, 0.7);
  QueryGraph g = std::move(b).Build({supported, stranded});
  RankingService service;
  Result<TopKResult> result = service.RankTopK(g, 2);
  ASSERT_TRUE(result.ok()) << result.status();
  ASSERT_EQ(result.value().top.size(), 2u);
  EXPECT_EQ(result.value().top[0].node, supported);
  EXPECT_DOUBLE_EQ(result.value().top[0].reliability, 0.7);
  EXPECT_EQ(result.value().top[1].node, stranded);
  EXPECT_DOUBLE_EQ(result.value().top[1].reliability, 0.0);
  EXPECT_TRUE(result.value().top[1].exact);
}

TEST(RankingServiceTest, RankPreparedRejectsNullCanonicals) {
  RankingService service;
  std::vector<PreparedCandidate> prepared(1);
  prepared[0].node = 1;
  EXPECT_EQ(service.RankPrepared(prepared, 1).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(RankingServiceTest, InvalidRequestsAreRejected) {
  QueryGraph g = MakeFig4aSerialParallel();
  RankingService service;
  EXPECT_FALSE(service.RankTopK(g, 0).ok());
  // k larger than the answer set is clamped, not an error.
  Result<TopKResult> clamped = service.RankTopK(g, 99);
  ASSERT_TRUE(clamped.ok());
  EXPECT_EQ(clamped.value().top.size(), g.answers.size());
}

TEST(RankingServiceTest, CanonicalizeRejectsBeforeFanOut) {
  RankingService service;
  const CanonicalizeOptions options;
  std::vector<CanonicalCandidate> out;

  QueryGraph duplicate = MakeFig4bWheatstoneBridge();
  duplicate.answers.push_back(duplicate.answers[0]);
  Status status = service.CanonicalizeTargets(duplicate, duplicate.answers,
                                              options, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());
  EXPECT_EQ(CanonicalizeCandidate(duplicate, duplicate.answers[0])
                .status()
                .code(),
            StatusCode::kInvalidArgument);

  QueryGraph dead_source = MakeFig4aSerialParallel();
  ASSERT_TRUE(dead_source.graph.RemoveNode(dead_source.source).ok());
  status = service.CanonicalizeTargets(dead_source, dead_source.answers,
                                       options, out);
  EXPECT_EQ(status.code(), StatusCode::kInvalidArgument);
  EXPECT_TRUE(out.empty());

  // A non-answer target anywhere in the list fails the whole call before
  // any target is canonicalized, on the caller-built snapshot path too.
  const QueryGraph bridge = MakeFig4bWheatstoneBridge();
  const CsrSnapshot csr = BuildCsrSnapshot(bridge.graph);
  for (NodeId bad : {bridge.source, NodeId{-1}, NodeId{1000}}) {
    std::vector<NodeId> targets = {bridge.answers[0], bad};
    status = service.CanonicalizeTargets(bridge, targets, options, out, &csr);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << bad;
    EXPECT_TRUE(out.empty());
    EXPECT_EQ(CanonicalizeCandidate(bridge, bad, options, &csr).status().code(),
              StatusCode::kInvalidArgument)
        << bad;
  }
}

/// Canonicalizes `targets` of every graph through `service` and checks
/// each candidate against the pointer reference.
void ExpectMatchesReference(RankingService& service,
                            const std::vector<QueryGraph>& graphs,
                            bool one_target_per_call, int& mismatches) {
  CanonicalizeOptions options;
  options.collect_provenance = true;
  for (const QueryGraph& g : graphs) {
    std::vector<std::vector<NodeId>> calls;
    if (one_target_per_call) {
      for (NodeId t : g.answers) calls.push_back({t});
    } else {
      calls.push_back(g.answers);
    }
    for (const std::vector<NodeId>& targets : calls) {
      std::vector<CanonicalCandidate> out;
      if (!service.CanonicalizeTargets(g, targets, options, out).ok()) {
        ++mismatches;
        continue;
      }
      for (size_t i = 0; i < targets.size(); ++i) {
        Result<CanonicalCandidate> want =
            testing::ReferenceCanonicalizeCandidate(g, targets[i], options);
        if (!want.ok() || out[i].key.repr != want.value().key.repr ||
            out[i].provenance.edges != want.value().provenance.edges ||
            out[i].reduction_stats.passes !=
                want.value().reduction_stats.passes) {
          ++mismatches;
        }
      }
    }
  }
}

TEST(RankingServiceTest, ConcurrentCallersOwnTheirScratch) {
  // Scratch belongs to each call, never to the service or a slot of the
  // pool: two external callers may both run on slot 0 — one inline (a
  // single target), one as pool worker 0 — or both inline on a
  // one-thread service. Every result must still equal the reference.
  std::vector<QueryGraph> graphs = MakeWorkload(6, 97);
  ThreadPool pool(3);
  RankingServiceOptions pooled_options;
  pooled_options.num_threads = 4;
  pooled_options.pool = &pool;
  RankingService pooled(pooled_options);
  RankingServiceOptions inline_options;
  inline_options.num_threads = 1;
  RankingService inline_service(inline_options);

  for (RankingService* service : {&pooled, &inline_service}) {
    int mismatches_a = 0;
    int mismatches_b = 0;
    std::thread a([&] {
      for (int rep = 0; rep < 3; ++rep) {
        ExpectMatchesReference(*service, graphs, true, mismatches_a);
      }
    });
    std::thread b([&] {
      for (int rep = 0; rep < 3; ++rep) {
        ExpectMatchesReference(*service, graphs, false, mismatches_b);
      }
    });
    a.join();
    b.join();
    EXPECT_EQ(mismatches_a, 0);
    EXPECT_EQ(mismatches_b, 0);
  }
}

TEST(RankingServiceTest, ConcurrentFactoringOwnsItsScratch) {
  // Factoring scratch belongs to each ExactReliabilityFactoring call:
  // two external threads rank different irreducible graphs through one
  // pooled, cache-off service at once (so every request factors again,
  // on pool threads too), and every result and factoring call count
  // must equal an inline single-thread reference.
  Rng rng(2718);
  RandomDagOptions dag;
  dag.layers = 3;
  dag.nodes_per_layer = 4;
  dag.answers = 6;
  dag.edge_density = 0.6;
  std::vector<QueryGraph> graphs[2];
  for (int i = 0; i < 8; ++i) {
    graphs[i % 2].push_back(MakeRandomLayeredDag(rng, dag));
  }
  graphs[0].push_back(MakeFig4bWheatstoneBridge());

  RankingServiceOptions reference_options;
  reference_options.enable_cache = false;
  reference_options.num_threads = 1;
  RankingService reference(reference_options);
  std::vector<TopKResult> want[2];
  int64_t reference_calls = 0;
  for (int side = 0; side < 2; ++side) {
    for (const QueryGraph& g : graphs[side]) {
      Result<TopKResult> r = reference.RankTopK(g, 3);
      ASSERT_TRUE(r.ok()) << r.status();
      reference_calls += r.value().stats.factoring_calls;
      want[side].push_back(r.value());
    }
  }
  ASSERT_GT(reference_calls, 0) << "the workload never factored";

  ThreadPool pool(3);
  RankingServiceOptions pooled_options;
  pooled_options.enable_cache = false;
  pooled_options.num_threads = 4;
  pooled_options.pool = &pool;
  RankingService pooled(pooled_options);
  int mismatches[2] = {0, 0};
  auto run = [&](int side) {
    for (int rep = 0; rep < 3; ++rep) {
      for (size_t i = 0; i < graphs[side].size(); ++i) {
        Result<TopKResult> r = pooled.RankTopK(graphs[side][i], 3);
        if (!r.ok() ||
            Flatten(r.value()) != Flatten(want[side][i]) ||
            r.value().stats.factoring_calls !=
                want[side][i].stats.factoring_calls) {
          ++mismatches[side];
        }
      }
    }
  };
  std::thread a(run, 0);
  std::thread b(run, 1);
  a.join();
  b.join();
  EXPECT_EQ(mismatches[0], 0);
  EXPECT_EQ(mismatches[1], 0);
}

}  // namespace
}  // namespace biorank::serve
