#include "core/graph.h"

namespace biorank {

NodeId ProbabilisticEntityGraph::AddNode(double p, std::string label,
                                         std::string entity_set) {
  NodeId id = node_capacity();
  nodes_.push_back(GraphNode{ClampProb(p), std::move(label),
                             std::move(entity_set), /*alive=*/true});
  out_.emplace_back();
  in_.emplace_back();
  ++num_alive_nodes_;
  return id;
}

Result<EdgeId> ProbabilisticEntityGraph::AddEdge(NodeId from, NodeId to,
                                                 double q) {
  if (!IsValidNode(from)) {
    return Status::InvalidArgument("AddEdge: invalid from node " +
                                   std::to_string(from));
  }
  if (!IsValidNode(to)) {
    return Status::InvalidArgument("AddEdge: invalid to node " +
                                   std::to_string(to));
  }
  EdgeId id = edge_capacity();
  edges_.push_back(GraphEdge{from, to, ClampProb(q), /*alive=*/true});
  out_[from].push_back(id);
  in_[to].push_back(id);
  ++num_alive_edges_;
  return id;
}

Status ProbabilisticEntityGraph::RemoveNode(NodeId id) {
  if (id < 0 || id >= node_capacity()) {
    return Status::OutOfRange("RemoveNode: id " + std::to_string(id));
  }
  if (!nodes_[id].alive) return Status::OK();
  for (EdgeId e : out_[id]) {
    if (edges_[e].alive) {
      edges_[e].alive = false;
      --num_alive_edges_;
    }
  }
  for (EdgeId e : in_[id]) {
    if (edges_[e].alive) {
      edges_[e].alive = false;
      --num_alive_edges_;
    }
  }
  nodes_[id].alive = false;
  --num_alive_nodes_;
  return Status::OK();
}

Status ProbabilisticEntityGraph::RemoveEdge(EdgeId id) {
  if (id < 0 || id >= edge_capacity()) {
    return Status::OutOfRange("RemoveEdge: id " + std::to_string(id));
  }
  if (edges_[id].alive) {
    edges_[id].alive = false;
    --num_alive_edges_;
  }
  return Status::OK();
}

Status ProbabilisticEntityGraph::SetNodeProb(NodeId id, double p) {
  if (!IsValidNode(id)) {
    return Status::OutOfRange("SetNodeProb: id " + std::to_string(id));
  }
  nodes_[id].p = ClampProb(p);
  return Status::OK();
}

Status ProbabilisticEntityGraph::SetEdgeProb(EdgeId id, double q) {
  if (!IsValidEdge(id)) {
    return Status::OutOfRange("SetEdgeProb: id " + std::to_string(id));
  }
  edges_[id].q = ClampProb(q);
  return Status::OK();
}

std::vector<EdgeId> ProbabilisticEntityGraph::OutEdges(NodeId id) const {
  std::vector<EdgeId> result;
  for (EdgeId e : out_[id]) {
    if (edges_[e].alive) result.push_back(e);
  }
  return result;
}

std::vector<EdgeId> ProbabilisticEntityGraph::InEdges(NodeId id) const {
  std::vector<EdgeId> result;
  for (EdgeId e : in_[id]) {
    if (edges_[e].alive) result.push_back(e);
  }
  return result;
}

int ProbabilisticEntityGraph::OutDegree(NodeId id) const {
  int degree = 0;
  for (EdgeId e : out_[id]) {
    if (edges_[e].alive) ++degree;
  }
  return degree;
}

int ProbabilisticEntityGraph::InDegree(NodeId id) const {
  int degree = 0;
  for (EdgeId e : in_[id]) {
    if (edges_[e].alive) ++degree;
  }
  return degree;
}

std::vector<NodeId> ProbabilisticEntityGraph::AliveNodes() const {
  std::vector<NodeId> result;
  result.reserve(num_alive_nodes_);
  for (NodeId i = 0; i < node_capacity(); ++i) {
    if (nodes_[i].alive) result.push_back(i);
  }
  return result;
}

std::vector<EdgeId> ProbabilisticEntityGraph::AliveEdges() const {
  std::vector<EdgeId> result;
  result.reserve(num_alive_edges_);
  for (EdgeId i = 0; i < edge_capacity(); ++i) {
    if (edges_[i].alive) result.push_back(i);
  }
  return result;
}

CompactGraphView CompactGraphView::FromGraph(
    const ProbabilisticEntityGraph& graph) {
  CompactGraphView view;
  int n = graph.node_capacity();
  view.node_p.assign(n, 0.0);
  std::vector<int32_t> out_degree(n, 0), in_degree(n, 0);
  for (NodeId i = 0; i < n; ++i) {
    if (!graph.IsValidNode(i)) continue;
    view.node_p[i] = graph.node(i).p;
    out_degree[i] = graph.OutDegree(i);
    in_degree[i] = graph.InDegree(i);
  }
  view.out_offset.assign(n + 1, 0);
  view.in_offset.assign(n + 1, 0);
  for (int i = 0; i < n; ++i) {
    view.out_offset[i + 1] = view.out_offset[i] + out_degree[i];
    view.in_offset[i + 1] = view.in_offset[i] + in_degree[i];
  }
  int total = view.out_offset[n];
  view.edge_to.assign(total, kInvalidNode);
  view.edge_q.assign(total, 0.0);
  view.edge_from.assign(total, kInvalidNode);
  view.in_edge_q.assign(total, 0.0);
  std::vector<int32_t> out_cursor(view.out_offset.begin(),
                                  view.out_offset.end() - 1);
  std::vector<int32_t> in_cursor(view.in_offset.begin(),
                                 view.in_offset.end() - 1);
  for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
    if (!graph.IsValidEdge(e)) continue;
    const GraphEdge& edge = graph.edge(e);
    int32_t oc = out_cursor[edge.from]++;
    view.edge_to[oc] = edge.to;
    view.edge_q[oc] = edge.q;
    int32_t ic = in_cursor[edge.to]++;
    view.edge_from[ic] = edge.from;
    view.in_edge_q[ic] = edge.q;
  }
  return view;
}

}  // namespace biorank
