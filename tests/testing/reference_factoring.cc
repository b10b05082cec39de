// The seed-era pointer-graph factoring recursion, kept as the
// differential oracle for the flat production kernel. Nothing in src/
// links against this file.

#include "testing/reference_factoring.h"

#include <algorithm>
#include <vector>

#include "core/graph_algo.h"
#include "core/reify.h"
#include "testing/reference_canonical.h"

namespace biorank::testing {

namespace {

bool IsUncertain(double p) { return p > 0.0 && p < 1.0; }

/// Reachability from `start` over alive edges that pass `edge_ok`.
template <typename EdgeOk>
bool Reaches(const ProbabilisticEntityGraph& graph, NodeId start,
             NodeId target, EdgeOk&& edge_ok) {
  if (!graph.IsValidNode(start) || !graph.IsValidNode(target)) return false;
  if (start == target) return true;
  std::vector<bool> visited(graph.node_capacity(), false);
  std::vector<NodeId> stack = {start};
  visited[start] = true;
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    bool found = false;
    graph.ForEachOutEdge(x, [&](EdgeId e) {
      if (found || !edge_ok(e)) return;
      NodeId y = graph.edge(e).to;
      if (visited[y]) return;
      if (y == target) {
        found = true;
        return;
      }
      visited[y] = true;
      stack.push_back(y);
    });
    if (found) return true;
  }
  return false;
}

struct FactoringContext {
  int64_t calls = 0;
  int64_t max_calls = 0;
  bool use_reductions = false;
  bool budget_exceeded = false;
};

/// Recursive edge-conditioning on a reified (edge-failures-only) graph.
double FactorRec(QueryGraph query_graph, FactoringContext& ctx) {
  if (ctx.budget_exceeded) return 0.0;
  if (++ctx.calls > ctx.max_calls) {
    ctx.budget_exceeded = true;
    return 0.0;
  }
  ProbabilisticEntityGraph& graph = query_graph.graph;
  NodeId s = query_graph.source;
  NodeId t = query_graph.answers[0];

  if (ctx.use_reductions) {
    ReferenceReduceQueryGraph(query_graph);
  }

  // Pruning 1: unreachable even if every uncertain edge were present.
  auto any_alive = [&](EdgeId e) { return graph.edge(e).q > 0.0; };
  if (!Reaches(graph, s, t, any_alive)) return 0.0;

  // Pruning 2: reachable through certain edges alone.
  auto certain = [&](EdgeId e) { return graph.edge(e).q >= 1.0; };
  if (Reaches(graph, s, t, certain)) return 1.0;

  // Pick an uncertain edge to condition on: the first uncertain edge found
  // by a DFS from the source.
  EdgeId pivot = -1;
  {
    std::vector<bool> visited(graph.node_capacity(), false);
    std::vector<NodeId> stack = {s};
    visited[s] = true;
    while (!stack.empty() && pivot < 0) {
      NodeId x = stack.back();
      stack.pop_back();
      graph.ForEachOutEdge(x, [&](EdgeId e) {
        if (pivot >= 0) return;
        const GraphEdge& edge = graph.edge(e);
        if (IsUncertain(edge.q)) {
          pivot = e;
          return;
        }
        if (edge.q > 0.0 && !visited[edge.to]) {
          visited[edge.to] = true;
          stack.push_back(edge.to);
        }
      });
    }
  }
  if (pivot < 0) {
    for (EdgeId e = 0; e < graph.edge_capacity() && pivot < 0; ++e) {
      if (graph.IsValidEdge(e) && IsUncertain(graph.edge(e).q)) pivot = e;
    }
    if (pivot < 0) return 0.0;
  }

  double q = graph.edge(pivot).q;

  QueryGraph with_edge = query_graph;
  with_edge.graph.SetEdgeProb(pivot, 1.0);
  double r_present = FactorRec(std::move(with_edge), ctx);

  QueryGraph without_edge = std::move(query_graph);
  without_edge.graph.RemoveEdge(pivot);
  double r_absent = FactorRec(std::move(without_edge), ctx);

  return q * r_present + (1.0 - q) * r_absent;
}

}  // namespace

Result<double> ReferenceFactoring(const QueryGraph& query_graph,
                                  NodeId target,
                                  const FactoringOptions& options,
                                  int64_t* calls) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("factoring: invalid target");
  }
  QueryGraph single;
  single.graph = query_graph.graph;
  single.source = query_graph.source;
  single.answers = {target};
  QueryGraph restricted = RestrictToQueryRelevantSubgraph(single);
  ReifiedGraph reified = ReifyNodeFailures(restricted);

  FactoringContext ctx;
  ctx.max_calls = options.max_calls;
  ctx.use_reductions = options.use_reductions;
  double value = FactorRec(std::move(reified.query_graph), ctx);
  if (calls != nullptr) {
    // The call that found the budget spent did no work.
    *calls = std::min(ctx.calls, std::max<int64_t>(ctx.max_calls, 0));
  }
  if (ctx.budget_exceeded) {
    return Status::FailedPrecondition(
        "factoring: exceeded max_calls budget (graph too complex)");
  }
  return value;
}

}  // namespace biorank::testing
