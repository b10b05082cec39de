#include "core/reliability_exact.h"

#include <algorithm>

#include "core/graph_algo.h"
#include "core/reduction.h"
#include "core/reify.h"

namespace biorank {

namespace {

bool IsUncertain(double p) { return p > 0.0 && p < 1.0; }

/// Reachability from `start` over alive edges that pass `edge_ok` through
/// nodes that pass `node_ok`. `start` itself must pass `node_ok`.
template <typename NodeOk, typename EdgeOk>
bool Reaches(const ProbabilisticEntityGraph& graph, NodeId start,
             NodeId target, NodeOk&& node_ok, EdgeOk&& edge_ok) {
  if (!graph.IsValidNode(start) || !graph.IsValidNode(target)) return false;
  if (!node_ok(start)) return false;
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
      if (visited[y] || !node_ok(y)) return;
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

/// The factoring recursion of one ExactReliabilityFactoring call, on
/// flat graphs. levels_[d] holds the graph at recursion depth d; a call
/// writes each child world into levels_[d + 1], so the parent's graph
/// survives its first child for the second. Levels are addressed by
/// depth, never by a reference held across a child's growth. The marks,
/// the DFS stack and the compaction map are shared by all depths: each is
/// used only between two recursive steps. Once every level has grown to
/// its size, a conditioning call allocates nothing.
class FlatFactoring {
 public:
  /// Loads the reified single-target graph as depth 0; only its source
  /// and its one answer carry roles.
  FlatFactoring(const QueryGraph& reified, const FactoringOptions& options)
      : max_calls_(options.max_calls),
        use_reductions_(options.use_reductions),
        levels_(1) {
    Level& root = levels_[0];
    LoadQueryGraph(reified, root.graph);
    for (size_t x = 0; x < root.graph.nodes.size(); ++x) {
      const uint8_t role = root.graph.nodes[x].role;
      if (role & FlatReductionGraph::kRoleSource) {
        root.source = static_cast<int32_t>(x);
      }
      if (role & FlatReductionGraph::kRoleTarget) {
        root.target = static_cast<int32_t>(x);
      }
    }
    // Conditioning and the rules never add nodes, so depth 0 sizes the
    // per-node scratch of every depth.
    mark_.assign(root.graph.nodes.size(), 0);
    remap_.assign(root.graph.nodes.size(), FlatReductionGraph::kNone);
  }

  /// Reliability of the graph at `depth`, conditioning recursively.
  double Factor(size_t depth) {
    if (budget_exceeded_) return 0.0;
    if (calls_ >= max_calls_) {
      budget_exceeded_ = true;
      return 0.0;
    }
    ++calls_;
    Level& level = levels_[depth];
    FlatReductionGraph& graph = level.graph;
    if (use_reductions_) ReduceFlatGraph(graph);

    // Pruning 1: unreachable even if every uncertain edge were present.
    if (!Reaches(level, [](double q) { return q > 0.0; })) return 0.0;
    // Pruning 2: reachable through certain edges alone.
    if (Reaches(level, [](double q) { return q >= 1.0; })) return 1.0;

    const int32_t pivot = PickPivot(level);
    if (pivot == FlatReductionGraph::kNone) return 0.0;  // See PickPivot.
    const double q = graph.edges[static_cast<size_t>(pivot)].q;

    if (levels_.size() == depth + 1) levels_.emplace_back();
    Condition(depth, pivot, /*present=*/true);
    const double r_present = Factor(depth + 1);
    Condition(depth, pivot, /*present=*/false);
    const double r_absent = Factor(depth + 1);
    return q * r_present + (1.0 - q) * r_absent;
  }

  int64_t calls() const { return calls_; }
  bool budget_exceeded() const { return budget_exceeded_; }

 private:
  struct Level {
    FlatReductionGraph graph;
    int32_t source = FlatReductionGraph::kNone;
    int32_t target = FlatReductionGraph::kNone;
  };

  uint32_t NextEpoch() {
    if (++epoch_ == 0) {  // Wrapped: no stale stamp may equal a new epoch.
      std::fill(mark_.begin(), mark_.end(), 0);
      epoch_ = 1;
    }
    return epoch_;
  }

  /// Whether the target is reachable from the source over alive edges
  /// whose probability passes `edge_ok`.
  template <typename EdgeOk>
  bool Reaches(const Level& level, EdgeOk&& edge_ok) {
    if (level.source == level.target) return true;
    const FlatReductionGraph& g = level.graph;
    const uint32_t epoch = NextEpoch();
    stack_.clear();
    stack_.push_back(level.source);
    mark_[static_cast<size_t>(level.source)] = epoch;
    while (!stack_.empty()) {
      const int32_t x = stack_.back();
      stack_.pop_back();
      for (int32_t e = g.nodes[static_cast<size_t>(x)].out_head;
           e != FlatReductionGraph::kNone;
           e = g.edges[static_cast<size_t>(e)].out_next) {
        const FlatReductionGraph::Edge& edge = g.edges[static_cast<size_t>(e)];
        if (!edge.alive || !edge_ok(edge.q)) continue;
        if (edge.to == level.target) return true;
        if (mark_[static_cast<size_t>(edge.to)] == epoch) continue;
        mark_[static_cast<size_t>(edge.to)] = epoch;
        stack_.push_back(edge.to);
      }
    }
    return false;
  }

  /// The edge to condition on: the first uncertain edge a DFS from the
  /// source meets (it lies in the reachable region, keeping branches
  /// meaningful), crossing only certain edges. After the two prunings the
  /// DFS always finds one: the target is reachable over edges with
  /// q > 0 but not over certain ones, so every such path leaves the
  /// source's certain region through an uncertain edge of a node the DFS
  /// visits. (The pointer recursion's fallback scan of all edges by id
  /// was therefore never taken, and is gone.)
  int32_t PickPivot(const Level& level) {
    const FlatReductionGraph& g = level.graph;
    const uint32_t epoch = NextEpoch();
    stack_.clear();
    stack_.push_back(level.source);
    mark_[static_cast<size_t>(level.source)] = epoch;
    while (!stack_.empty()) {
      const int32_t x = stack_.back();
      stack_.pop_back();
      for (int32_t e = g.nodes[static_cast<size_t>(x)].out_head;
           e != FlatReductionGraph::kNone;
           e = g.edges[static_cast<size_t>(e)].out_next) {
        const FlatReductionGraph::Edge& edge = g.edges[static_cast<size_t>(e)];
        if (!edge.alive) continue;
        if (IsUncertain(edge.q)) return e;
        if (edge.q > 0.0 && mark_[static_cast<size_t>(edge.to)] != epoch) {
          mark_[static_cast<size_t>(edge.to)] = epoch;
          stack_.push_back(edge.to);
        }
      }
    }
    return FlatReductionGraph::kNone;
  }

  /// Writes one world of conditioning on `pivot` into levels_[depth + 1]:
  /// the alive part of levels_[depth], compacted with relative node and
  /// edge order kept, the pivot certain (`present`) or gone.
  void Condition(size_t depth, int32_t pivot, bool present) {
    const Level& parent = levels_[depth];
    Level& child = levels_[depth + 1];
    const FlatReductionGraph& from = parent.graph;
    FlatReductionGraph& to = child.graph;
    to.Clear();
    for (size_t x = 0; x < from.nodes.size(); ++x) {
      const FlatReductionGraph::Node& node = from.nodes[x];
      remap_[x] = node.alive ? to.AddNode(node.p, node.role)
                             : FlatReductionGraph::kNone;
    }
    for (size_t e = 0; e < from.edges.size(); ++e) {
      const FlatReductionGraph::Edge& edge = from.edges[e];
      if (!edge.alive) continue;
      const bool is_pivot = static_cast<int32_t>(e) == pivot;
      if (is_pivot && !present) continue;
      to.AddEdge(remap_[static_cast<size_t>(edge.from)],
                 remap_[static_cast<size_t>(edge.to)],
                 is_pivot ? 1.0 : edge.q);
    }
    child.source = remap_[static_cast<size_t>(parent.source)];
    child.target = remap_[static_cast<size_t>(parent.target)];
  }

  const int64_t max_calls_;
  const bool use_reductions_;
  int64_t calls_ = 0;
  bool budget_exceeded_ = false;
  std::vector<Level> levels_;
  std::vector<uint32_t> mark_;
  uint32_t epoch_ = 0;
  std::vector<int32_t> stack_;
  std::vector<int32_t> remap_;
};

}  // namespace

Result<double> ExactReliabilityBruteForce(const QueryGraph& query_graph,
                                          NodeId target,
                                          int max_uncertain_elements) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  if (!graph.IsValidNode(target)) {
    return Status::InvalidArgument("brute force: invalid target");
  }

  std::vector<NodeId> uncertain_nodes;
  std::vector<EdgeId> uncertain_edges;
  for (NodeId i : graph.AliveNodes()) {
    if (IsUncertain(graph.node(i).p)) uncertain_nodes.push_back(i);
  }
  for (EdgeId e : graph.AliveEdges()) {
    if (IsUncertain(graph.edge(e).q)) uncertain_edges.push_back(e);
  }
  int total = static_cast<int>(uncertain_nodes.size() + uncertain_edges.size());
  if (total > max_uncertain_elements) {
    return Status::FailedPrecondition(
        "brute force: " + std::to_string(total) +
        " uncertain elements exceed limit " +
        std::to_string(max_uncertain_elements));
  }

  std::vector<bool> node_present(graph.node_capacity(), false);
  std::vector<bool> edge_present(graph.edge_capacity(), false);
  // Deterministic elements keep fixed states.
  for (NodeId i : graph.AliveNodes()) node_present[i] = graph.node(i).p >= 1.0;
  for (EdgeId e : graph.AliveEdges()) edge_present[e] = graph.edge(e).q >= 1.0;

  double reliability = 0.0;
  uint64_t worlds = 1ULL << total;
  for (uint64_t world = 0; world < worlds; ++world) {
    double prob = 1.0;
    for (size_t i = 0; i < uncertain_nodes.size(); ++i) {
      bool present = (world >> i) & 1;
      node_present[uncertain_nodes[i]] = present;
      double p = graph.node(uncertain_nodes[i]).p;
      prob *= present ? p : (1.0 - p);
    }
    for (size_t i = 0; i < uncertain_edges.size(); ++i) {
      bool present = (world >> (uncertain_nodes.size() + i)) & 1;
      edge_present[uncertain_edges[i]] = present;
      double q = graph.edge(uncertain_edges[i]).q;
      prob *= present ? q : (1.0 - q);
    }
    bool connected = Reaches(
        graph, query_graph.source, target,
        [&](NodeId n) { return node_present[n]; },
        [&](EdgeId e) { return edge_present[e]; });
    if (connected) reliability += prob;
  }
  return reliability;
}

Result<double> ExactReliabilityFactoring(const QueryGraph& query_graph,
                                         NodeId target,
                                         const FactoringOptions& options,
                                         FactoringStats* stats) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (!query_graph.graph.IsValidNode(target)) {
    return Status::InvalidArgument("factoring: invalid target");
  }

  // Work on the single-target query graph restricted to relevant nodes.
  QueryGraph single;
  single.graph = query_graph.graph;
  single.source = query_graph.source;
  single.answers = {target};
  QueryGraph restricted = RestrictToQueryRelevantSubgraph(single);

  // Remove node failures so the recursion only conditions edges.
  ReifiedGraph reified = ReifyNodeFailures(restricted);

  FlatFactoring factoring(reified.query_graph, options);
  const double value = factoring.Factor(0);
  if (stats != nullptr) stats->calls = factoring.calls();
  if (factoring.budget_exceeded()) {
    return Status::FailedPrecondition(
        "factoring: exceeded max_calls budget (graph too complex)");
  }
  return value;
}

Result<std::vector<double>> ExactReliabilityAllAnswers(
    const QueryGraph& query_graph, const FactoringOptions& options) {
  std::vector<double> scores;
  scores.reserve(query_graph.answers.size());
  for (NodeId t : query_graph.answers) {
    Result<double> r = ExactReliabilityFactoring(query_graph, t, options);
    if (!r.ok()) return r.status();
    scores.push_back(r.value());
  }
  return scores;
}

}  // namespace biorank
