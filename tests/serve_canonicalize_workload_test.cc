// The paper's own workload against the canonicalization oracle: every
// answer of every protein-function query over the default universe is
// canonicalized through RankingService::CanonicalizeTargets (the serving
// fan-out, at 1 and 4 threads) and must be identical to the pointer
// reference. These evidence subgraphs — a dozen nodes that reduce to a
// single source -> answer edge — are the shape the random-graph
// differential harness under-represents.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "api/query.h"
#include "api/server.h"
#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "serve/ranking_service.h"
#include "testing/reference_canonical.h"
#include "util/parallel.h"

namespace biorank {
namespace {

TEST(CanonicalizeWorkloadTest, EveryProteinCandidateMatchesTheReference) {
  api::Server server;
  ThreadPool pool(3);
  serve::RankingServiceOptions single;
  single.num_threads = 1;
  serve::RankingServiceOptions pooled;
  pooled.num_threads = 4;
  pooled.pool = &pool;
  serve::RankingService single_service(single);
  serve::RankingService pooled_service(pooled);
  CanonicalizeOptions options;
  options.collect_provenance = true;

  int queries = 0;
  int candidates = 0;
  int single_edge = 0;
  for (const Protein& protein : server.universe().proteins()) {
    const api::QueryRequest request =
        api::MakeProteinFunctionRequest(protein.gene_symbol);
    Result<ExploratoryQueryResult> run = server.mediator().Run(request.query);
    ASSERT_TRUE(run.ok()) << protein.gene_symbol << ": " << run.status();
    const QueryGraph& graph = run.value().query_graph;
    const CsrSnapshot csr = BuildCsrSnapshot(graph.graph);
    std::vector<CanonicalCandidate> got_single;
    std::vector<CanonicalCandidate> got_pooled;
    ASSERT_TRUE(single_service
                    .CanonicalizeTargets(graph, graph.answers, options,
                                         got_single, &csr)
                    .ok());
    ASSERT_TRUE(pooled_service
                    .CanonicalizeTargets(graph, graph.answers, options,
                                         got_pooled, &csr)
                    .ok());
    ASSERT_EQ(got_single.size(), graph.answers.size());
    ASSERT_EQ(got_pooled.size(), graph.answers.size());
    ++queries;
    for (size_t i = 0; i < graph.answers.size(); ++i) {
      Result<CanonicalCandidate> want = testing::ReferenceCanonicalizeCandidate(
          graph, graph.answers[i], options);
      ASSERT_TRUE(want.ok()) << want.status();
      const CanonicalCandidate& w = want.value();
      for (const CanonicalCandidate* got : {&got_single[i], &got_pooled[i]}) {
        const std::string where =
            protein.gene_symbol + " answer " + std::to_string(i);
        ASSERT_EQ(got->key.repr, w.key.repr) << where;
        ASSERT_EQ(got->key.hash, w.key.hash) << where;
        ASSERT_EQ(got->target, w.target) << where;
        ASSERT_TRUE(CsrBytesEqual(BuildCsrSnapshot(got->canonical.graph),
                                  BuildCsrSnapshot(w.canonical.graph)))
            << where;
        const ReductionStats& a = got->reduction_stats;
        const ReductionStats& b = w.reduction_stats;
        ASSERT_EQ(a.nodes_before, b.nodes_before) << where;
        ASSERT_EQ(a.edges_before, b.edges_before) << where;
        ASSERT_EQ(a.nodes_after, b.nodes_after) << where;
        ASSERT_EQ(a.edges_after, b.edges_after) << where;
        ASSERT_EQ(a.sink_deletions, b.sink_deletions) << where;
        ASSERT_EQ(a.orphan_deletions, b.orphan_deletions) << where;
        ASSERT_EQ(a.serial_collapses, b.serial_collapses) << where;
        ASSERT_EQ(a.parallel_merges, b.parallel_merges) << where;
        ASSERT_EQ(a.self_loop_deletions, b.self_loop_deletions) << where;
        ASSERT_EQ(a.passes, b.passes) << where;
        ASSERT_EQ(got->provenance.nodes, w.provenance.nodes) << where;
        ASSERT_EQ(got->provenance.edges, w.provenance.edges) << where;
      }
      ++candidates;
      if (w.canonical.graph.num_edges() == 1) ++single_edge;
    }
  }
  EXPECT_EQ(queries, server.universe().num_proteins());
  // The workload's shape: ~9.3k candidates, every one of which reduces
  // to a single source -> answer edge.
  EXPECT_GT(candidates, 9000);
  EXPECT_EQ(single_edge, candidates);
}

}  // namespace
}  // namespace biorank
