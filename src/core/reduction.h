// Reliability-preserving graph reductions of Section 3.1: sink and
// orphan deletion, serial collapse, parallel merge, self-loop removal,
// applied to fixpoint while protecting the source and answer nodes.

#ifndef BIORANK_CORE_REDUCTION_H_
#define BIORANK_CORE_REDUCTION_H_

#include <cstdint>
#include <vector>

#include "core/query_graph.h"

namespace biorank {

/// Which graph transformation rules ReduceQueryGraph applies. The first
/// three are the paper's rules (Section 3.1, "Graph Reductions"); the last
/// two are sound extras that the paper's "delete inaccessible nodes" rule
/// implies for source-target reliability. All rules preserve the
/// source-target reliability of every protected node exactly (verified by
/// property tests against brute-force exact reliability).
struct ReductionOptions {
  bool delete_sinks = true;      ///< Remove non-answer nodes with no out-edges.
  bool collapse_serial = true;   ///< Splice out 1-in/1-out interior nodes.
  bool merge_parallel = true;    ///< Combine parallel edges: 1 - prod(1 - q).
  bool delete_orphans = true;    ///< Remove non-source nodes with no in-edges.
  bool delete_self_loops = true; ///< Self-loops never affect reachability.
};

/// Counters describing one ReduceQueryGraph run.
struct ReductionStats {
  int nodes_before = 0;
  int edges_before = 0;
  int nodes_after = 0;
  int edges_after = 0;
  int sink_deletions = 0;
  int orphan_deletions = 0;
  int serial_collapses = 0;
  int parallel_merges = 0;
  int self_loop_deletions = 0;
  int passes = 0;

  /// Fraction of nodes+edges removed, in [0,1]. The paper reports -78% on
  /// its 20 scenario graphs.
  double RemovedFraction() const {
    int before = nodes_before + edges_before;
    if (before == 0) return 0.0;
    int after = nodes_after + edges_after;
    return static_cast<double>(before - after) / static_cast<double>(before);
  }
};

/// The one representation the reduction rules run on: a small flat graph
/// with dense node ids, append-only edge ids, and per-node out/in edge
/// lists kept as singly linked chains in edge-id order. Removal is a
/// tombstone plus degree bookkeeping, so the rules' iteration orders (and
/// with them every floating-point operation) replay the pointer graph's
/// exactly: node ids ascend, each node's out-edges ascend by edge id, and
/// a spliced edge takes the next id. Callers fill it (LoadQueryGraph, or
/// canonicalization straight from a CSR footprint), run ReduceFlatGraph,
/// and read the survivors back; exact factoring conditions on it too. Clear() keeps capacity, so one instance
/// serves as reusable per-thread scratch.
struct FlatReductionGraph {
  /// Node roles; any nonzero role protects the node from deletion and
  /// serial collapse.
  static constexpr uint8_t kRoleSource = 1;
  static constexpr uint8_t kRoleTarget = 2;
  static constexpr int32_t kNone = -1;

  struct Node {
    double p = 1.0;
    int32_t out_head = kNone;
    int32_t out_tail = kNone;
    int32_t in_head = kNone;
    int32_t in_tail = kNone;
    int32_t out_degree = 0;  ///< Alive out-edges.
    int32_t in_degree = 0;   ///< Alive in-edges.
    uint8_t role = 0;
    bool alive = true;
  };
  struct Edge {
    int32_t from = kNone;
    int32_t to = kNone;
    int32_t out_next = kNone;  ///< Next edge in `from`'s out chain.
    int32_t in_next = kNone;   ///< Next edge in `to`'s in chain.
    double q = 1.0;
    bool alive = true;
  };

  std::vector<Node> nodes;
  std::vector<Edge> edges;
  int alive_nodes = 0;
  int alive_edges = 0;

  /// Empties the graph, keeping capacity.
  void Clear();
  /// Appends a live node; `p` is stored as given.
  int32_t AddNode(double p, uint8_t role);
  /// Appends a live edge at the tail of both endpoints' chains; `q` is
  /// stored as given.
  int32_t AddEdge(int32_t from, int32_t to, double q);
  void RemoveEdge(int32_t e);
  /// Tombstones `x` and every alive edge incident to it.
  void RemoveNode(int32_t x);

  /// Visits each alive out-/in-edge of `x` in edge-id order.
  template <typename Fn>
  void ForEachOutEdge(int32_t x, Fn&& fn) const {
    for (int32_t e = nodes[static_cast<size_t>(x)].out_head; e != kNone;
         e = edges[static_cast<size_t>(e)].out_next) {
      if (edges[static_cast<size_t>(e)].alive) fn(e);
    }
  }
  template <typename Fn>
  void ForEachInEdge(int32_t x, Fn&& fn) const {
    for (int32_t e = nodes[static_cast<size_t>(x)].in_head; e != kNone;
         e = edges[static_cast<size_t>(e)].in_next) {
      if (edges[static_cast<size_t>(e)].alive) fn(e);
    }
  }

  /// Parallel-merge scratch of ReduceFlatGraph, indexed by target node:
  /// each source node's scan stamps the targets it folds.
  struct MergeGroup {
    int32_t stamp = 0;
    int32_t first = kNone;
    int32_t count = 0;
    double fail = 1.0;
  };
  std::vector<MergeGroup> merge;
  int32_t merge_epoch = 0;
};

/// Applies the transformation rules to `graph` until a pass changes
/// nothing (Section 3.1), protecting every node with a nonzero role.
/// Each pass runs, in order: self-loop deletion (edge-id order), parallel
/// merge (per node, product of 1 - q over the group in out-edge order,
/// the first edge kept with ClampProb(1 - product)), serial collapse (node
/// order; the spliced edge ClampProb(q_in * p * q_out) is appended),
/// sink deletion to fixpoint, then orphan deletion to fixpoint.
ReductionStats ReduceFlatGraph(FlatReductionGraph& graph,
                               const ReductionOptions& options = {});

/// Fills `flat` with the alive part of `query_graph`: alive nodes in
/// ascending id (role source / target for the query node and every
/// answer), alive edges in ascending id. `node_ids` / `edge_ids`
/// (optional) receive the flat -> original id maps.
void LoadQueryGraph(const QueryGraph& query_graph, FlatReductionGraph& flat,
                    std::vector<NodeId>* node_ids = nullptr,
                    std::vector<EdgeId>* edge_ids = nullptr);

/// Applies the transformation rules repeatedly until none changes the
/// graph (Section 3.1). The source and all answer nodes are protected from
/// deletion and from serial collapse. Mutates `query_graph` in place
/// (tombstoning removed elements, appending spliced edges under the ids
/// the rules create them in) and returns counters. Runs ReduceFlatGraph
/// on the alive part and writes the result back.
///
/// Rule semantics:
///  - Serial collapse of interior node x with unique in-edge (y,x) and
///    unique out-edge (x,z), y != x != z: replace with edge (y,z) of
///    probability q(y,x) * p(x) * q(x,z). When y == z the spliced path
///    returns to its origin and contributes nothing; x is simply deleted.
///  - Parallel merge of edges e1..ek from x to y: one edge with
///    probability 1 - prod_i (1 - q(ei)).
ReductionStats ReduceQueryGraph(QueryGraph& query_graph,
                                const ReductionOptions& options = {});

}  // namespace biorank

#endif  // BIORANK_CORE_REDUCTION_H_
