// The seed-era pointer-graph implementations of restriction, reduction,
// and canonicalization, kept as the differential oracle for the
// flat production path (core/canonical.cc, core/reduction.cc). Nothing in
// src/ links against this file.

#include "testing/reference_canonical.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "core/graph_algo.h"
#include "util/rng.h"

namespace biorank::testing {

namespace {

/// One full pass of all enabled rules. Returns true if anything changed.
bool ReductionPass(QueryGraph& query_graph, const ReductionOptions& options,
                   const std::vector<bool>& protected_nodes,
                   ReductionStats& stats) {
  ProbabilisticEntityGraph& graph = query_graph.graph;
  bool changed = false;

  // Rule: delete self-loops (reachability is unaffected by them).
  if (options.delete_self_loops) {
    for (EdgeId e = 0; e < graph.edge_capacity(); ++e) {
      if (!graph.IsValidEdge(e)) continue;
      if (graph.edge(e).from == graph.edge(e).to) {
        graph.RemoveEdge(e);
        ++stats.self_loop_deletions;
        changed = true;
      }
    }
  }

  // Rule: merge parallel edges, 1 - prod(1 - q).
  if (options.merge_parallel) {
    for (NodeId x = 0; x < graph.node_capacity(); ++x) {
      if (!graph.IsValidNode(x)) continue;
      std::unordered_map<NodeId, std::vector<EdgeId>> by_target;
      graph.ForEachOutEdge(
          x, [&](EdgeId e) { by_target[graph.edge(e).to].push_back(e); });
      for (auto& [target, edges] : by_target) {
        if (edges.size() < 2) continue;
        double fail_all = 1.0;
        for (EdgeId e : edges) fail_all *= 1.0 - graph.edge(e).q;
        // Keep the first edge, fold the others into it.
        graph.SetEdgeProb(edges[0], 1.0 - fail_all);
        for (size_t i = 1; i < edges.size(); ++i) graph.RemoveEdge(edges[i]);
        stats.parallel_merges += static_cast<int>(edges.size()) - 1;
        changed = true;
      }
    }
  }

  // Rule: collapse serial interior nodes.
  if (options.collapse_serial) {
    for (NodeId x = 0; x < graph.node_capacity(); ++x) {
      if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
      std::vector<EdgeId> in = graph.InEdges(x);
      std::vector<EdgeId> out = graph.OutEdges(x);
      if (in.size() != 1 || out.size() != 1) continue;
      NodeId y = graph.edge(in[0]).from;
      NodeId z = graph.edge(out[0]).to;
      if (y == x || z == x) continue;  // Self-loop shapes; other rules apply.
      double q = graph.edge(in[0]).q * graph.node(x).p * graph.edge(out[0]).q;
      graph.RemoveNode(x);  // Also removes both incident edges.
      if (y != z) {
        graph.AddEdge(y, z, q).value();
      }
      // When y == z the spliced path would be a self-loop; drop it.
      ++stats.serial_collapses;
      changed = true;
    }
  }

  // Rule: delete sinks that are not protected.
  if (options.delete_sinks) {
    bool removed = true;
    while (removed) {  // Deleting a sink can create new sinks upstream.
      removed = false;
      for (NodeId x = 0; x < graph.node_capacity(); ++x) {
        if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
        if (graph.OutDegree(x) == 0) {
          graph.RemoveNode(x);
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
      for (NodeId x = 0; x < graph.node_capacity(); ++x) {
        if (!graph.IsValidNode(x) || protected_nodes[x]) continue;
        if (graph.InDegree(x) == 0) {
          graph.RemoveNode(x);
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

ReductionStats ReferenceReduceQueryGraph(QueryGraph& query_graph,
                                         const ReductionOptions& options) {
  ReductionStats stats;
  ProbabilisticEntityGraph& graph = query_graph.graph;
  stats.nodes_before = graph.num_nodes();
  stats.edges_before = graph.num_edges();

  std::vector<bool> protected_nodes(graph.node_capacity(), false);
  if (query_graph.source >= 0 &&
      query_graph.source < graph.node_capacity()) {
    protected_nodes[query_graph.source] = true;
  }
  for (NodeId t : query_graph.answers) {
    if (t >= 0 && t < graph.node_capacity()) protected_nodes[t] = true;
  }

  while (ReductionPass(query_graph, options, protected_nodes, stats)) {
    ++stats.passes;
  }

  stats.nodes_after = graph.num_nodes();
  stats.edges_after = graph.num_edges();
  return stats;
}


QueryGraph ReferenceRestrict(const QueryGraph& query_graph,
                             const std::vector<NodeId>& answers,
                             std::vector<bool>* kept_nodes) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  std::vector<bool> reach = ReachableFrom(graph, query_graph.source);
  std::vector<bool> keep(graph.node_capacity(), false);
  keep[query_graph.source] = true;
  // Union over answers of CoReach(t), intersected with Reach(source).
  std::vector<bool> wanted(graph.node_capacity(), false);
  for (NodeId t : answers) {
    if (!graph.IsValidNode(t)) continue;
    wanted[t] = true;
  }
  // One backward BFS from all answers at once.
  std::vector<NodeId> stack;
  std::vector<bool> co(graph.node_capacity(), false);
  for (NodeId t : answers) {
    if (graph.IsValidNode(t) && !co[t]) {
      co[t] = true;
      stack.push_back(t);
    }
  }
  while (!stack.empty()) {
    NodeId x = stack.back();
    stack.pop_back();
    graph.ForEachInEdge(x, [&](EdgeId e) {
      NodeId y = graph.edge(e).from;
      if (!co[y]) {
        co[y] = true;
        stack.push_back(y);
      }
    });
  }
  for (NodeId i = 0; i < graph.node_capacity(); ++i) {
    if (!graph.IsValidNode(i)) continue;
    if ((reach[i] && co[i]) || wanted[i]) keep[i] = true;
  }
  if (kept_nodes != nullptr) *kept_nodes = keep;
  std::vector<NodeId> old_to_new;
  QueryGraph result;
  result.graph = InducedSubgraph(graph, keep, &old_to_new);
  result.source = old_to_new[query_graph.source];
  for (NodeId t : answers) {
    if (graph.IsValidNode(t)) result.answers.push_back(old_to_new[t]);
  }
  return result;
}

namespace {

uint64_t DoubleBits(double value) {
  uint64_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  return bits;
}

/// Order-sensitive 64-bit combine built on SplitMix64. Colors are only an
/// ordering device — the canonical repr is a full serialization — so a
/// hash collision can cost a cache miss but never a wrong key.
uint64_t Mix(uint64_t a, uint64_t b) {
  uint64_t state = a ^ (b + 0x9E3779B97F4A7C15ULL + (a << 6) + (a >> 2));
  return SplitMix64Next(state);
}

constexpr uint8_t kRoleSource = 1;
constexpr uint8_t kRoleTarget = 2;

/// Dense, label-free view of the alive part of a query graph.
struct LabelView {
  int n = 0;
  std::vector<double> p;
  std::vector<uint64_t> p_bits;
  std::vector<uint8_t> role;
  struct Edge {
    int from = 0;
    int to = 0;
    double q = 0.0;
    uint64_t q_bits = 0;
  };
  std::vector<Edge> edges;
  std::vector<std::vector<int>> out;
  std::vector<std::vector<int>> in;
};

LabelView BuildView(const QueryGraph& query_graph) {
  const ProbabilisticEntityGraph& graph = query_graph.graph;
  LabelView view;
  std::vector<int> dense(graph.node_capacity(), -1);
  for (NodeId id : graph.AliveNodes()) {
    dense[id] = view.n++;
    const GraphNode& node = graph.node(id);
    view.p.push_back(node.p);
    view.p_bits.push_back(DoubleBits(node.p));
    view.role.push_back(0);
  }
  view.role[dense[query_graph.source]] |= kRoleSource;
  for (NodeId t : query_graph.answers) view.role[dense[t]] |= kRoleTarget;
  view.out.resize(view.n);
  view.in.resize(view.n);
  for (EdgeId e : graph.AliveEdges()) {
    const GraphEdge& edge = graph.edge(e);
    LabelView::Edge dense_edge;
    dense_edge.from = dense[edge.from];
    dense_edge.to = dense[edge.to];
    dense_edge.q = edge.q;
    dense_edge.q_bits = DoubleBits(edge.q);
    int index = static_cast<int>(view.edges.size());
    view.edges.push_back(dense_edge);
    view.out[dense_edge.from].push_back(index);
    view.in[dense_edge.to].push_back(index);
  }
  return view;
}

int CountClasses(const std::vector<uint64_t>& colors) {
  std::vector<uint64_t> sorted = colors;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  return static_cast<int>(sorted.size());
}

/// Weisfeiler-Lehman color refinement: each round folds the sorted
/// multisets of (edge q, neighbor color) signatures — out- and in-edges
/// separately — into every node's color, until the partition stops
/// splitting.
void Refine(const LabelView& view, std::vector<uint64_t>& colors) {
  int classes = CountClasses(colors);
  std::vector<uint64_t> next(colors.size());
  std::vector<uint64_t> signature;
  for (int round = 0; round < view.n; ++round) {
    for (int i = 0; i < view.n; ++i) {
      uint64_t h = Mix(colors[static_cast<size_t>(i)], 0xA1);
      signature.clear();
      for (int e : view.out[i]) {
        signature.push_back(
            Mix(view.edges[e].q_bits, colors[view.edges[e].to]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      h = Mix(h, 0xB2);
      signature.clear();
      for (int e : view.in[i]) {
        signature.push_back(
            Mix(view.edges[e].q_bits, colors[view.edges[e].from]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      next[static_cast<size_t>(i)] = h;
    }
    colors.swap(next);
    int next_classes = CountClasses(colors);
    if (next_classes == classes) break;  // Partition stable: fixpoint.
    classes = next_classes;
  }
}

void AppendHex(std::string& out, uint64_t value) {
  char buffer[24];
  std::snprintf(buffer, sizeof(buffer), "%016llx",
                static_cast<unsigned long long>(value));
  out += buffer;
}

/// Serializes the graph under the total node order induced by discrete
/// colors. Equal strings imply identical labeled probabilistic graphs.
std::string SerializeOrdered(const LabelView& view,
                             const std::vector<uint64_t>& colors,
                             std::vector<int>* position_out) {
  std::vector<int> order(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
  });
  std::vector<int> position(static_cast<size_t>(view.n));
  for (int pos = 0; pos < view.n; ++pos) {
    position[static_cast<size_t>(order[static_cast<size_t>(pos)])] = pos;
  }
  if (position_out != nullptr) *position_out = position;

  std::string out;
  out.reserve(32 + 32 * static_cast<size_t>(view.n) +
              40 * view.edges.size());
  out += "g " + std::to_string(view.n) + " " +
         std::to_string(view.edges.size()) + "\n";
  for (int pos = 0; pos < view.n; ++pos) {
    int node = order[static_cast<size_t>(pos)];
    out += "v " + std::to_string(pos) + " ";
    AppendHex(out, view.p_bits[static_cast<size_t>(node)]);
    out += " " + std::to_string(view.role[static_cast<size_t>(node)]) + "\n";
  }
  struct EdgeTuple {
    int from;
    int to;
    uint64_t q_bits;
  };
  std::vector<EdgeTuple> tuples;
  tuples.reserve(view.edges.size());
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits});
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.q_bits < b.q_bits;
            });
  for (const EdgeTuple& t : tuples) {
    out += "e " + std::to_string(t.from) + " " + std::to_string(t.to) + " ";
    AppendHex(out, t.q_bits);
    out += "\n";
  }
  return out;
}

/// Individualization-refinement search for the lexicographically smallest
/// serialization. Within the leaf budget every member of the first
/// ambiguous color class is tried, which makes the result a true
/// canonical form; past the budget only the first branch is kept (still
/// deterministic, possibly non-canonical — a cache-hit-rate concern, not
/// a correctness one).
struct Canonizer {
  const LabelView& view;
  int leaves_left;
  std::string best;
  std::vector<int> best_position;

  void Run(std::vector<uint64_t> colors) {
    Refine(view, colors);
    // Find the ambiguous class with the smallest color value.
    std::vector<int> order(static_cast<size_t>(view.n));
    for (int i = 0; i < view.n; ++i) order[static_cast<size_t>(i)] = i;
    std::sort(order.begin(), order.end(), [&](int a, int b) {
      return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
    });
    std::vector<int> ambiguous;
    for (size_t i = 0; i < order.size();) {
      size_t j = i;
      while (j < order.size() &&
             colors[static_cast<size_t>(order[j])] ==
                 colors[static_cast<size_t>(order[i])]) {
        ++j;
      }
      if (j - i > 1) {
        ambiguous.assign(order.begin() + static_cast<long>(i),
                         order.begin() + static_cast<long>(j));
        break;
      }
      i = j;
    }
    if (ambiguous.empty()) {
      std::vector<int> position;
      std::string repr = SerializeOrdered(view, colors, &position);
      --leaves_left;
      if (best.empty() || repr < best) {
        best = std::move(repr);
        best_position = std::move(position);
      }
      return;
    }
    std::sort(ambiguous.begin(), ambiguous.end());
    bool first = true;
    for (int node : ambiguous) {
      if (!first && leaves_left <= 0) break;
      first = false;
      std::vector<uint64_t> branch = colors;
      branch[static_cast<size_t>(node)] =
          Mix(branch[static_cast<size_t>(node)], 0xC3);
      Run(std::move(branch));
    }
  }
};

/// Canonical labeling of `query_graph`: repr + the original-dense-id ->
/// canonical-position map.
CanonicalKey CanonicalizeView(const LabelView& view,
                              const CanonicalizeOptions& options,
                              std::vector<int>* position_out) {
  std::vector<uint64_t> colors(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) {
    colors[static_cast<size_t>(i)] =
        Mix(view.p_bits[static_cast<size_t>(i)],
            view.role[static_cast<size_t>(i)]);
  }
  Canonizer canonizer{view, std::max(1, options.max_label_leaves), {}, {}};
  canonizer.Run(std::move(colors));
  CanonicalKey key;
  key.repr = std::move(canonizer.best);
  key.hash = Fnv1a64(key.repr);
  if (position_out != nullptr) *position_out = canonizer.best_position;
  return key;
}

}  // namespace

Result<CanonicalCandidate> ReferenceCanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  if (std::find(query_graph.answers.begin(), query_graph.answers.end(),
                target) == query_graph.answers.end()) {
    return Status::InvalidArgument(
        "canonical: target is not an answer node of the query graph");
  }

  // Restrict to this answer's evidence subgraph, then reduce with only
  // the source and this target protected — other answers are ordinary
  // interior nodes here, which is what lets distinct tuples share a
  // canonical form.
  std::vector<bool> kept;
  std::vector<bool>* kept_out = options.collect_provenance ? &kept : nullptr;
  QueryGraph restricted =
      ReferenceRestrict(query_graph, {target}, kept_out);

  CanonicalCandidate out;
  if (options.collect_provenance) {
    const ProbabilisticEntityGraph& graph = query_graph.graph;
    for (NodeId id = 0; id < graph.node_capacity(); ++id) {
      if (!kept[static_cast<size_t>(id)]) continue;
      out.provenance.nodes.push_back(id);
      // Only kept nodes' out-edges can land in the subgraph, so the scan
      // is proportional to the candidate's footprint, not the full graph
      // (re-canonicalization runs once per answer per delta).
      graph.ForEachOutEdge(id, [&](EdgeId e) {
        if (kept[static_cast<size_t>(graph.edge(e).to)]) {
          out.provenance.edges.push_back(e);
        }
      });
    }
    std::sort(out.provenance.edges.begin(), out.provenance.edges.end());
  }
  out.reduction_stats =
      ReferenceReduceQueryGraph(restricted, options.reduction);

  LabelView view = BuildView(restricted);
  std::vector<int> position;
  out.key = CanonicalizeView(view, options, &position);

  // Rebuild the reduced graph in canonical order so every isomorphic
  // input produces this exact graph (same numbering, same probability
  // bits) and downstream computations become pure functions of the key.
  std::vector<int> node_at(position.size());
  for (size_t i = 0; i < position.size(); ++i) {
    node_at[static_cast<size_t>(position[i])] = static_cast<int>(i);
  }
  for (int pos = 0; pos < view.n; ++pos) {
    int node = node_at[static_cast<size_t>(pos)];
    NodeId id =
        out.canonical.graph.AddNode(view.p[static_cast<size_t>(node)]);
    uint8_t role = view.role[static_cast<size_t>(node)];
    if (role & kRoleSource) out.canonical.source = id;
    if (role & kRoleTarget) out.canonical.answers.push_back(id);
  }
  struct EdgeTuple {
    int from;
    int to;
    uint64_t q_bits;
    double q;
  };
  std::vector<EdgeTuple> tuples;
  tuples.reserve(view.edges.size());
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits,
                      edge.q});
  }
  std::sort(tuples.begin(), tuples.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.q_bits < b.q_bits;
            });
  for (const EdgeTuple& t : tuples) {
    out.canonical.graph.AddEdge(t.from, t.to, t.q).value();
  }
  out.target = out.canonical.answers.empty() ? kInvalidNode
                                             : out.canonical.answers[0];
  BIORANK_RETURN_IF_ERROR(out.canonical.Validate());
  return out;
}

std::vector<bool> QueryRelevantMask(const CsrSnapshot& csr, NodeId source,
                                    const std::vector<NodeId>& answers) {
  const uint32_t n = csr.num_nodes();
  const size_t capacity = csr.dense_id.size();
  std::vector<bool> keep(capacity, false);
  if (source >= 0 && static_cast<size_t>(source) < capacity) {
    keep[static_cast<size_t>(source)] = true;
  }

  auto dense_of = [&](NodeId id) -> uint32_t {
    if (id < 0 || static_cast<size_t>(id) >= capacity) return kCsrInvalid;
    return csr.dense_id[static_cast<size_t>(id)];
  };

  // Forward BFS from the source over the packed out-edges.
  std::vector<bool> reach(n, false);
  std::vector<uint32_t> stack;
  const uint32_t src = dense_of(source);
  if (src != kCsrInvalid) {
    reach[src] = true;
    stack.push_back(src);
    while (!stack.empty()) {
      const uint32_t x = stack.back();
      stack.pop_back();
      for (uint32_t i = csr.out_offset[x]; i < csr.out_offset[x + 1]; ++i) {
        const uint32_t y = csr.out_to[i];
        if (!reach[y]) {
          reach[y] = true;
          stack.push_back(y);
        }
      }
    }
  }

  // One backward BFS from all answers at once over the transposed CSR.
  std::vector<bool> co(n, false);
  std::vector<bool> wanted(n, false);
  for (NodeId t : answers) {
    const uint32_t dense = dense_of(t);
    if (dense == kCsrInvalid) continue;
    wanted[dense] = true;
    if (!co[dense]) {
      co[dense] = true;
      stack.push_back(dense);
    }
  }
  while (!stack.empty()) {
    const uint32_t x = stack.back();
    stack.pop_back();
    for (uint32_t i = csr.in_offset[x]; i < csr.in_offset[x + 1]; ++i) {
      const uint32_t y = csr.in_from[i];
      if (!co[y]) {
        co[y] = true;
        stack.push_back(y);
      }
    }
  }

  for (uint32_t d = 0; d < n; ++d) {
    if ((reach[d] && co[d]) || wanted[d]) {
      keep[static_cast<size_t>(csr.orig_id[d])] = true;
    }
  }
  return keep;
}

}  // namespace biorank::testing
