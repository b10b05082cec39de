#include "core/canonical.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <memory>
#include <vector>

#include "util/rng.h"

namespace biorank {

uint64_t Fnv1a64(const std::string& text) {
  uint64_t hash = 14695981039346656037ULL;
  for (char c : text) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ULL;
  }
  return hash;
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

constexpr uint8_t kRoleSource = FlatReductionGraph::kRoleSource;
constexpr uint8_t kRoleTarget = FlatReductionGraph::kRoleTarget;

/// Dense, label-free view of the alive part of a flat graph, with CSR
/// incidence lists over `edges`.
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
  std::vector<int> out_offset;  ///< Size n + 1, into out_edges.
  std::vector<int> out_edges;
  std::vector<int> in_offset;   ///< Size n + 1, into in_edges.
  std::vector<int> in_edges;
};

/// Fills `view` (reusing its capacity) from the alive nodes of `graph` in
/// ascending id and its alive edges in ascending id. `dense` is scratch.
void BuildView(const FlatReductionGraph& graph, LabelView& view,
               std::vector<int>& dense) {
  view.n = 0;
  view.p.clear();
  view.p_bits.clear();
  view.role.clear();
  view.edges.clear();
  dense.assign(graph.nodes.size(), -1);
  for (size_t x = 0; x < graph.nodes.size(); ++x) {
    const FlatReductionGraph::Node& node = graph.nodes[x];
    if (!node.alive) continue;
    dense[x] = view.n++;
    view.p.push_back(node.p);
    view.p_bits.push_back(DoubleBits(node.p));
    view.role.push_back(node.role);
  }
  const size_t n = static_cast<size_t>(view.n);
  view.out_offset.assign(n + 1, 0);
  view.in_offset.assign(n + 1, 0);
  for (const FlatReductionGraph::Edge& flat_edge : graph.edges) {
    if (!flat_edge.alive) continue;
    LabelView::Edge edge;
    edge.from = dense[static_cast<size_t>(flat_edge.from)];
    edge.to = dense[static_cast<size_t>(flat_edge.to)];
    edge.q = flat_edge.q;
    edge.q_bits = DoubleBits(edge.q);
    view.edges.push_back(edge);
    ++view.out_offset[static_cast<size_t>(edge.from) + 1];
    ++view.in_offset[static_cast<size_t>(edge.to) + 1];
  }
  for (size_t i = 0; i < n; ++i) {
    view.out_offset[i + 1] += view.out_offset[i];
    view.in_offset[i + 1] += view.in_offset[i];
  }
  // Scatter with the offsets as cursors (each ends one segment late),
  // then shift them back into place.
  view.out_edges.resize(view.edges.size());
  view.in_edges.resize(view.edges.size());
  for (size_t e = 0; e < view.edges.size(); ++e) {
    const LabelView::Edge& edge = view.edges[e];
    view.out_edges[static_cast<size_t>(
        view.out_offset[static_cast<size_t>(edge.from)]++)] =
        static_cast<int>(e);
    view.in_edges[static_cast<size_t>(
        view.in_offset[static_cast<size_t>(edge.to)]++)] = static_cast<int>(e);
  }
  for (size_t i = n; i > 0; --i) {
    view.out_offset[i] = view.out_offset[i - 1];
    view.in_offset[i] = view.in_offset[i - 1];
  }
  view.out_offset[0] = 0;
  view.in_offset[0] = 0;
}

struct EdgeTuple {
  int from;
  int to;
  uint64_t q_bits;
  double q;
};

/// Sorts by (from, to, q bits): the canonical edge order.
void SortTuples(std::vector<EdgeTuple>& tuples) {
  std::sort(tuples.begin(), tuples.end(),
            [](const EdgeTuple& a, const EdgeTuple& b) {
              if (a.from != b.from) return a.from < b.from;
              if (a.to != b.to) return a.to < b.to;
              return a.q_bits < b.q_bits;
            });
}

/// Buffers one labeling reuses across refinement rounds and branches.
struct LabelScratch {
  std::vector<uint64_t> next;
  std::vector<uint64_t> signature;
  std::vector<uint64_t> sorted;
  std::vector<int> order;
  std::vector<EdgeTuple> tuples;
};

int CountClasses(const std::vector<uint64_t>& colors,
                 std::vector<uint64_t>& sorted) {
  sorted.assign(colors.begin(), colors.end());
  std::sort(sorted.begin(), sorted.end());
  return static_cast<int>(std::unique(sorted.begin(), sorted.end()) -
                          sorted.begin());
}

/// Weisfeiler-Lehman color refinement: each round folds the sorted
/// multisets of (edge q, neighbor color) signatures — out- and in-edges
/// separately — into every node's color, until the partition stops
/// splitting. Returns the number of color classes.
int Refine(const LabelView& view, std::vector<uint64_t>& colors,
           LabelScratch& scratch) {
  int classes = CountClasses(colors, scratch.sorted);
  std::vector<uint64_t>& next = scratch.next;
  std::vector<uint64_t>& signature = scratch.signature;
  next.resize(colors.size());
  for (int round = 0; round < view.n; ++round) {
    for (int i = 0; i < view.n; ++i) {
      const size_t node = static_cast<size_t>(i);
      uint64_t h = Mix(colors[node], 0xA1);
      signature.clear();
      for (int k = view.out_offset[node]; k < view.out_offset[node + 1];
           ++k) {
        const LabelView::Edge& edge = view.edges[static_cast<size_t>(
            view.out_edges[static_cast<size_t>(k)])];
        signature.push_back(
            Mix(edge.q_bits, colors[static_cast<size_t>(edge.to)]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      h = Mix(h, 0xB2);
      signature.clear();
      for (int k = view.in_offset[node]; k < view.in_offset[node + 1]; ++k) {
        const LabelView::Edge& edge = view.edges[static_cast<size_t>(
            view.in_edges[static_cast<size_t>(k)])];
        signature.push_back(
            Mix(edge.q_bits, colors[static_cast<size_t>(edge.from)]));
      }
      std::sort(signature.begin(), signature.end());
      for (uint64_t s : signature) h = Mix(h, s);
      next[node] = h;
    }
    colors.swap(next);
    int next_classes = CountClasses(colors, scratch.sorted);
    if (next_classes == classes) break;  // Partition stable: fixpoint.
    classes = next_classes;
  }
  return classes;
}

void AppendDecimal(std::string& out, uint64_t value) {
  char buffer[24];
  std::to_chars_result end =
      std::to_chars(buffer, buffer + sizeof(buffer), value);
  out.append(buffer, end.ptr);
}

/// Appends `value` as 16 zero-padded lower-case hex digits.
void AppendHex(std::string& out, uint64_t value) {
  static constexpr char kDigits[] = "0123456789abcdef";
  char buffer[16];
  for (int i = 15; i >= 0; --i) {
    buffer[i] = kDigits[value & 0xF];
    value >>= 4;
  }
  out.append(buffer, sizeof(buffer));
}

/// Serializes the graph under the total node order induced by discrete
/// colors. Equal strings imply identical labeled probabilistic graphs.
std::string SerializeOrdered(const LabelView& view,
                             const std::vector<uint64_t>& colors,
                             LabelScratch& scratch,
                             std::vector<int>& position) {
  std::vector<int>& order = scratch.order;
  order.resize(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) order[static_cast<size_t>(i)] = i;
  std::sort(order.begin(), order.end(), [&](int a, int b) {
    return colors[static_cast<size_t>(a)] < colors[static_cast<size_t>(b)];
  });
  position.resize(static_cast<size_t>(view.n));
  for (int pos = 0; pos < view.n; ++pos) {
    position[static_cast<size_t>(order[static_cast<size_t>(pos)])] = pos;
  }

  std::string out;
  out.reserve(32 + 32 * static_cast<size_t>(view.n) +
              40 * view.edges.size());
  out += "g ";
  AppendDecimal(out, static_cast<uint64_t>(view.n));
  out += ' ';
  AppendDecimal(out, view.edges.size());
  out += '\n';
  for (int pos = 0; pos < view.n; ++pos) {
    const size_t node = static_cast<size_t>(order[static_cast<size_t>(pos)]);
    out += "v ";
    AppendDecimal(out, static_cast<uint64_t>(pos));
    out += ' ';
    AppendHex(out, view.p_bits[node]);
    out += ' ';
    AppendDecimal(out, view.role[node]);
    out += '\n';
  }
  std::vector<EdgeTuple>& tuples = scratch.tuples;
  tuples.clear();
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits,
                      edge.q});
  }
  SortTuples(tuples);
  for (const EdgeTuple& t : tuples) {
    out += "e ";
    AppendDecimal(out, static_cast<uint64_t>(t.from));
    out += ' ';
    AppendDecimal(out, static_cast<uint64_t>(t.to));
    out += ' ';
    AppendHex(out, t.q_bits);
    out += '\n';
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
  LabelScratch& scratch;
  int leaves_left;
  std::string best;
  std::vector<int> best_position;

  void Run(std::vector<uint64_t> colors) {
    if (Refine(view, colors, scratch) == view.n) {
      // Discrete partition: a leaf.
      std::vector<int> position;
      std::string repr = SerializeOrdered(view, colors, scratch, position);
      --leaves_left;
      if (best.empty() || repr < best) {
        best = std::move(repr);
        best_position = std::move(position);
      }
      return;
    }
    // Branch on the ambiguous class with the smallest color value.
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

/// Canonical labeling of `view`: repr + the view-node -> canonical-position
/// map.
CanonicalKey CanonicalizeView(const LabelView& view,
                              const CanonicalizeOptions& options,
                              LabelScratch& scratch,
                              std::vector<int>* position_out) {
  std::vector<uint64_t> colors(static_cast<size_t>(view.n));
  for (int i = 0; i < view.n; ++i) {
    colors[static_cast<size_t>(i)] =
        Mix(view.p_bits[static_cast<size_t>(i)],
            view.role[static_cast<size_t>(i)]);
  }
  Canonizer canonizer{view, scratch, std::max(1, options.max_label_leaves),
                      {}, {}};
  canonizer.Run(std::move(colors));
  CanonicalKey key;
  key.repr = std::move(canonizer.best);
  key.hash = Fnv1a64(key.repr);
  if (position_out != nullptr) {
    *position_out = std::move(canonizer.best_position);
  }
  return key;
}

/// Rebuilds the labeled view in canonical order (`position` maps view
/// node -> canonical position) so every isomorphic input produces this
/// exact graph: same numbering, same probability bits.
void RebuildCanonical(const LabelView& view, const std::vector<int>& position,
                      LabelScratch& scratch, CanonicalCandidate& out) {
  std::vector<int>& node_at = scratch.order;
  node_at.resize(position.size());
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
  std::vector<EdgeTuple>& tuples = scratch.tuples;
  tuples.clear();
  for (const LabelView::Edge& edge : view.edges) {
    tuples.push_back({position[static_cast<size_t>(edge.from)],
                      position[static_cast<size_t>(edge.to)], edge.q_bits,
                      edge.q});
  }
  SortTuples(tuples);
  for (const EdgeTuple& t : tuples) {
    out.canonical.graph.AddEdge(t.from, t.to, t.q).value();
  }
  out.target = out.canonical.answers.empty() ? kInvalidNode
                                             : out.canonical.answers[0];
}

}  // namespace

/// One slot's reusable arrays. `mark`/`local` are indexed by dense CSR
/// id; an entry is meaningful only while its stamp equals `epoch`, which
/// advances once per answer instead of clearing the arrays.
struct CandidateCanonicalizer::SlotScratch {
  std::vector<uint32_t> mark;
  std::vector<int32_t> local;  ///< Dense CSR id -> footprint node id.
  uint32_t epoch = 0;
  std::vector<uint32_t> stack;
  std::vector<uint32_t> footprint;
  FlatReductionGraph flat;
  LabelView view;
  LabelScratch label;
  std::vector<int> dense;
  std::vector<int> position;
};

CandidateCanonicalizer::CandidateCanonicalizer() = default;
CandidateCanonicalizer::CandidateCanonicalizer(
    CandidateCanonicalizer&&) noexcept = default;
CandidateCanonicalizer& CandidateCanonicalizer::operator=(
    CandidateCanonicalizer&&) noexcept = default;
CandidateCanonicalizer::~CandidateCanonicalizer() = default;

Result<CandidateCanonicalizer> CandidateCanonicalizer::Create(
    const QueryGraph& query_graph, const CanonicalizeOptions& options,
    const CsrSnapshot* graph_csr, int slot_count) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  CandidateCanonicalizer out;
  out.query_graph_ = &query_graph;
  out.options_ = options;
  if (graph_csr == nullptr) {
    out.owned_csr_ =
        std::make_unique<CsrSnapshot>(BuildCsrSnapshot(query_graph.graph));
    graph_csr = out.owned_csr_.get();
  }
  const CsrSnapshot& csr = *graph_csr;
  out.csr_ = graph_csr;
  const Status mismatch = Status::InvalidArgument(
      "canonical: flat snapshot does not match the query graph");
  if (csr.orig_capacity() != query_graph.graph.node_capacity()) {
    return mismatch;
  }
  const size_t n = csr.num_nodes();
  out.source_ = csr.dense_id[static_cast<size_t>(query_graph.source)];
  if (out.source_ == kCsrInvalid) return mismatch;
  out.answer_.assign(n, 0);
  for (NodeId t : query_graph.answers) {
    const uint32_t d = csr.dense_id[static_cast<size_t>(t)];
    if (d == kCsrInvalid) return mismatch;
    out.answer_[d] = 1;
  }
  // Reach(source): one forward BFS serves every answer's restriction.
  out.reach_.assign(n, 0);
  std::vector<uint32_t> stack = {out.source_};
  out.reach_[out.source_] = 1;
  while (!stack.empty()) {
    const uint32_t u = stack.back();
    stack.pop_back();
    for (uint32_t k = csr.out_offset[u]; k < csr.out_offset[u + 1]; ++k) {
      const uint32_t v = csr.out_to[k];
      if (!out.reach_[v]) {
        out.reach_[v] = 1;
        stack.push_back(v);
      }
    }
  }
  out.slots_.resize(static_cast<size_t>(std::max(1, slot_count)));
  return out;
}

Status CandidateCanonicalizer::CheckTarget(NodeId target) const {
  if (target < 0 || target >= csr_->orig_capacity() ||
      csr_->dense_id[static_cast<size_t>(target)] == kCsrInvalid ||
      !answer_[csr_->dense_id[static_cast<size_t>(target)]]) {
    return Status::InvalidArgument(
        "canonical: target is not an answer node of the query graph");
  }
  return Status::OK();
}

Result<CanonicalCandidate> CandidateCanonicalizer::Canonicalize(
    int slot, NodeId target) {
  BIORANK_RETURN_IF_ERROR(CheckTarget(target));
  if (slot < 0 || static_cast<size_t>(slot) >= slots_.size()) {
    return Status::InvalidArgument("canonical: slot out of range");
  }
  std::unique_ptr<SlotScratch>& slot_scratch =
      slots_[static_cast<size_t>(slot)];
  if (slot_scratch == nullptr) {
    slot_scratch = std::make_unique<SlotScratch>();
    slot_scratch->mark.assign(csr_->num_nodes(), 0);
    slot_scratch->local.resize(csr_->num_nodes());
  }
  SlotScratch& s = *slot_scratch;
  const CsrSnapshot& csr = *csr_;
  const uint32_t epoch = ++s.epoch;

  // Restrict: the footprint is Reach(source) ∩ CoReach(target), plus the
  // target and the source themselves. A node that reaches the target and
  // is reachable from the source has only such nodes on its path to the
  // target, so the backward BFS may stop at the reach set's border.
  const uint32_t target_dense = csr.dense_id[static_cast<size_t>(target)];
  s.footprint.clear();
  s.stack.clear();
  auto visit = [&s, epoch](uint32_t d) {
    s.mark[d] = epoch;
    s.footprint.push_back(d);
    s.stack.push_back(d);
  };
  visit(target_dense);
  while (!s.stack.empty()) {
    const uint32_t u = s.stack.back();
    s.stack.pop_back();
    for (uint32_t k = csr.in_offset[u]; k < csr.in_offset[u + 1]; ++k) {
      const uint32_t v = csr.in_from[k];
      if (reach_[v] && s.mark[v] != epoch) visit(v);
    }
  }
  if (s.mark[source_] != epoch) visit(source_);  // Unreachable target.
  std::sort(s.footprint.begin(), s.footprint.end());

  // The restricted subgraph as a flat graph: footprint nodes in ascending
  // original id, each node's kept out-edges in CSR (original EdgeId)
  // order. Other answers are ordinary interior nodes here, which is what
  // lets distinct tuples share a canonical form.
  FlatReductionGraph& flat = s.flat;
  flat.Clear();
  for (uint32_t d : s.footprint) {
    const uint8_t role = d == source_        ? kRoleSource
                         : d == target_dense ? kRoleTarget
                                             : 0;
    s.local[d] = flat.AddNode(csr.node_p[d], role);
  }
  for (uint32_t d : s.footprint) {
    for (uint32_t k = csr.out_offset[d]; k < csr.out_offset[d + 1]; ++k) {
      const uint32_t v = csr.out_to[k];
      if (s.mark[v] == epoch) {
        flat.AddEdge(s.local[d], s.local[v], csr.out_q[k]);
      }
    }
  }

  CanonicalCandidate out;
  if (options_.collect_provenance) {
    const ProbabilisticEntityGraph& graph = query_graph_->graph;
    for (uint32_t d : s.footprint) {
      const NodeId id = csr.orig_id[d];
      out.provenance.nodes.push_back(id);
      graph.ForEachOutEdge(id, [&](EdgeId e) {
        if (s.mark[csr.dense_id[static_cast<size_t>(graph.edge(e).to)]] ==
            epoch) {
          out.provenance.edges.push_back(e);
        }
      });
    }
    std::sort(out.provenance.edges.begin(), out.provenance.edges.end());
  }

  out.reduction_stats = ReduceFlatGraph(flat, options_.reduction);
  BuildView(flat, s.view, s.dense);
  out.key = CanonicalizeView(s.view, options_, s.label, &s.position);
  RebuildCanonical(s.view, s.position, s.label, out);
  BIORANK_RETURN_IF_ERROR(out.canonical.Validate());
  return out;
}

Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options, const CsrSnapshot* graph_csr) {
  Result<CandidateCanonicalizer> canonicalizer =
      CandidateCanonicalizer::Create(query_graph, options, graph_csr, 1);
  if (!canonicalizer.ok()) return canonicalizer.status();
  return canonicalizer.value().Canonicalize(0, target);
}

Result<CanonicalKey> CanonicalQueryGraphKey(
    const QueryGraph& query_graph, const CanonicalizeOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  FlatReductionGraph flat;
  LoadQueryGraph(query_graph, flat);
  LabelView view;
  std::vector<int> dense;
  BuildView(flat, view, dense);
  LabelScratch scratch;
  return CanonicalizeView(view, options, scratch, nullptr);
}

}  // namespace biorank
