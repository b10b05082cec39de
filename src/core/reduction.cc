#include "core/reduction.h"

#include <vector>

namespace biorank {

void FlatReductionGraph::Clear() {
  nodes.clear();
  edges.clear();
  alive_nodes = 0;
  alive_edges = 0;
}

int32_t FlatReductionGraph::AddNode(double p, uint8_t role) {
  Node node;
  node.p = p;
  node.role = role;
  nodes.push_back(node);
  ++alive_nodes;
  return static_cast<int32_t>(nodes.size() - 1);
}

int32_t FlatReductionGraph::AddEdge(int32_t from, int32_t to, double q) {
  const int32_t id = static_cast<int32_t>(edges.size());
  Edge edge;
  edge.from = from;
  edge.to = to;
  edge.q = q;
  edges.push_back(edge);
  Node& f = nodes[static_cast<size_t>(from)];
  if (f.out_tail == kNone) {
    f.out_head = id;
  } else {
    edges[static_cast<size_t>(f.out_tail)].out_next = id;
  }
  f.out_tail = id;
  ++f.out_degree;
  Node& t = nodes[static_cast<size_t>(to)];
  if (t.in_tail == kNone) {
    t.in_head = id;
  } else {
    edges[static_cast<size_t>(t.in_tail)].in_next = id;
  }
  t.in_tail = id;
  ++t.in_degree;
  ++alive_edges;
  return id;
}

void FlatReductionGraph::RemoveEdge(int32_t e) {
  Edge& edge = edges[static_cast<size_t>(e)];
  if (!edge.alive) return;
  edge.alive = false;
  --nodes[static_cast<size_t>(edge.from)].out_degree;
  --nodes[static_cast<size_t>(edge.to)].in_degree;
  --alive_edges;
}

void FlatReductionGraph::RemoveNode(int32_t x) {
  if (!nodes[static_cast<size_t>(x)].alive) return;
  ForEachOutEdge(x, [&](int32_t e) { RemoveEdge(e); });
  ForEachInEdge(x, [&](int32_t e) { RemoveEdge(e); });
  nodes[static_cast<size_t>(x)].alive = false;
  --alive_nodes;
}

namespace {

using Node = FlatReductionGraph::Node;
using Edge = FlatReductionGraph::Edge;
using MergeGroup = FlatReductionGraph::MergeGroup;

/// One full pass of all enabled rules. Returns true if anything changed.
bool ReductionPass(FlatReductionGraph& g, const ReductionOptions& options,
                   ReductionStats& stats) {
  const int32_t n = static_cast<int32_t>(g.nodes.size());
  bool changed = false;
  auto node = [&g](int32_t x) -> Node& {
    return g.nodes[static_cast<size_t>(x)];
  };
  auto edge = [&g](int32_t e) -> Edge& {
    return g.edges[static_cast<size_t>(e)];
  };
  auto removable = [&node](int32_t x) {
    return node(x).alive && node(x).role == 0;
  };

  // Rule: delete self-loops (reachability is unaffected by them).
  if (options.delete_self_loops) {
    const int32_t m = static_cast<int32_t>(g.edges.size());
    for (int32_t e = 0; e < m; ++e) {
      if (edge(e).alive && edge(e).from == edge(e).to) {
        g.RemoveEdge(e);
        ++stats.self_loop_deletions;
        changed = true;
      }
    }
  }

  // Rule: merge parallel edges, 1 - prod(1 - q). Per source node, one
  // scan folds each target's group in out-edge order; a second keeps the
  // group's first edge and drops the rest.
  if (options.merge_parallel) {
    for (int32_t x = 0; x < n; ++x) {
      if (!node(x).alive || node(x).out_degree < 2) continue;
      const int32_t epoch = ++g.merge_epoch;
      bool any_group = false;
      g.ForEachOutEdge(x, [&](int32_t e) {
        MergeGroup& group = g.merge[static_cast<size_t>(edge(e).to)];
        if (group.stamp != epoch) group = {epoch, e, 0, 1.0};
        ++group.count;
        group.fail *= 1.0 - edge(e).q;
        if (group.count >= 2) any_group = true;
      });
      if (!any_group) continue;
      g.ForEachOutEdge(x, [&](int32_t e) {
        const MergeGroup& group = g.merge[static_cast<size_t>(edge(e).to)];
        if (group.count < 2) return;
        if (group.first == e) {
          edge(e).q = ClampProb(1.0 - group.fail);
          stats.parallel_merges += group.count - 1;
        } else {
          g.RemoveEdge(e);
        }
      });
      changed = true;
    }
  }

  // Rule: collapse serial interior nodes.
  if (options.collapse_serial) {
    for (int32_t x = 0; x < n; ++x) {
      if (!removable(x) || node(x).in_degree != 1 ||
          node(x).out_degree != 1) {
        continue;
      }
      int32_t in_edge = FlatReductionGraph::kNone;
      int32_t out_edge = FlatReductionGraph::kNone;
      g.ForEachInEdge(x, [&](int32_t e) { in_edge = e; });
      g.ForEachOutEdge(x, [&](int32_t e) { out_edge = e; });
      const int32_t y = edge(in_edge).from;
      const int32_t z = edge(out_edge).to;
      if (y == x || z == x) continue;  // Self-loop shapes; other rules apply.
      const double q = edge(in_edge).q * node(x).p * edge(out_edge).q;
      g.RemoveNode(x);  // Also removes both incident edges.
      // When y == z the spliced path would be a self-loop; drop it.
      if (y != z) g.AddEdge(y, z, ClampProb(q));
      ++stats.serial_collapses;
      changed = true;
    }
  }

  // Rule: delete sinks that are not protected.
  if (options.delete_sinks) {
    bool removed = true;
    while (removed) {  // Deleting a sink can create new sinks upstream.
      removed = false;
      for (int32_t x = 0; x < n; ++x) {
        if (removable(x) && node(x).out_degree == 0) {
          g.RemoveNode(x);
          ++stats.sink_deletions;
          removed = true;
          changed = true;
        }
      }
    }
  }

  // Rule: delete orphans (no in-edges) other than the source. Unreachable
  // answers are protected and stay (they keep score 0).
  if (options.delete_orphans) {
    bool removed = true;
    while (removed) {
      removed = false;
      for (int32_t x = 0; x < n; ++x) {
        if (removable(x) && node(x).in_degree == 0) {
          g.RemoveNode(x);
          ++stats.orphan_deletions;
          removed = true;
          changed = true;
        }
      }
    }
  }

  return changed;
}

}  // namespace

ReductionStats ReduceFlatGraph(FlatReductionGraph& graph,
                               const ReductionOptions& options) {
  ReductionStats stats;
  stats.nodes_before = graph.alive_nodes;
  stats.edges_before = graph.alive_edges;
  if (graph.merge.size() < graph.nodes.size()) {
    graph.merge.resize(graph.nodes.size());
  }
  while (ReductionPass(graph, options, stats)) ++stats.passes;
  stats.nodes_after = graph.alive_nodes;
  stats.edges_after = graph.alive_edges;
  return stats;
}

void LoadQueryGraph(const QueryGraph& query_graph, FlatReductionGraph& flat,
                    std::vector<NodeId>* node_ids,
                    std::vector<EdgeId>* edge_ids) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  flat.Clear();
  if (node_ids != nullptr) node_ids->clear();
  if (edge_ids != nullptr) edge_ids->clear();
  std::vector<int32_t> dense(static_cast<size_t>(graph.node_capacity()),
                             FlatReductionGraph::kNone);
  for (NodeId id = 0; id < graph.node_capacity(); ++id) {
    if (!graph.IsValidNode(id)) continue;
    dense[static_cast<size_t>(id)] = flat.AddNode(graph.node(id).p, 0);
    if (node_ids != nullptr) node_ids->push_back(id);
  }
  auto stamp = [&](NodeId id, uint8_t role) {
    if (graph.IsValidNode(id)) {
      flat.nodes[static_cast<size_t>(dense[static_cast<size_t>(id)])].role |=
          role;
    }
  };
  stamp(query_graph.source, FlatReductionGraph::kRoleSource);
  for (NodeId t : query_graph.answers) {
    stamp(t, FlatReductionGraph::kRoleTarget);
  }
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    flat.AddEdge(dense[static_cast<size_t>(edge.from)],
                 dense[static_cast<size_t>(edge.to)], edge.q);
    if (edge_ids != nullptr) edge_ids->push_back(e);
  }
}

ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options) {
  FlatReductionGraph flat;
  std::vector<NodeId> node_ids;
  std::vector<EdgeId> edge_ids;
  LoadQueryGraph(query_graph, flat, &node_ids, &edge_ids);
  const size_t loaded_edges = flat.edges.size();
  ReductionStats stats = ReduceFlatGraph(flat, options);

  // Write back while every original element is still alive: merged
  // probabilities first (a merged edge may die later in the run and must
  // keep the merged value, as under the pointer rules), then the spliced
  // edges, which take the ids the rules created them under, then the
  // tombstones.
  ProbabilisticEntityGraph& graph = query_graph.graph;
  for (size_t i = 0; i < loaded_edges; ++i) {
    if (graph.edge(edge_ids[i]).q != flat.edges[i].q) {
      graph.SetEdgeProb(edge_ids[i], flat.edges[i].q);
    }
  }
  for (size_t i = loaded_edges; i < flat.edges.size(); ++i) {
    const FlatReductionGraph::Edge& edge = flat.edges[i];
    edge_ids.push_back(
        graph
            .AddEdge(node_ids[static_cast<size_t>(edge.from)],
                     node_ids[static_cast<size_t>(edge.to)], edge.q)
            .value());
  }
  for (size_t i = 0; i < flat.edges.size(); ++i) {
    if (!flat.edges[i].alive) graph.RemoveEdge(edge_ids[i]);
  }
  for (size_t x = 0; x < flat.nodes.size(); ++x) {
    if (!flat.nodes[x].alive) graph.RemoveNode(node_ids[x]);
  }
  return stats;
}

}  // namespace biorank
