// Canonicalization of reduced per-answer query graphs: the key that
// lets the serving layer share one reliability computation across every
// tuple (and every successive exploratory query) whose reduced evidence
// subgraph is isomorphic — the reuse opportunity motivating the
// serve/reliability_cache memo.

#ifndef BIORANK_CORE_CANONICAL_H_
#define BIORANK_CORE_CANONICAL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reduction.h"
#include "util/status.h"

namespace biorank {

/// Identity of a reduced query graph up to node relabeling.
///
/// `repr` is a full canonical serialization (topology + exact probability
/// bit patterns + source/target roles), so equal reprs imply genuinely
/// identical probabilistic graphs — a cache keyed on `repr` can never
/// return the reliability of a *different* graph. Isomorphic graphs map
/// to the same repr whenever the canonical labeling search converges
/// (always, for graphs within CanonicalizeOptions::max_label_leaves; see
/// CanonicalizeOptions); a missed identification only costs a cache miss,
/// never a wrong value.
struct CanonicalKey {
  std::string repr;  ///< Canonical serialization; equality = same graph.
  uint64_t hash = 0; ///< FNV-1a of repr: shard selector and MC stream id.
};

/// Options for canonicalization.
struct CanonicalizeOptions {
  /// Reduction rules applied to the per-answer subgraph before labeling.
  ReductionOptions reduction;
  /// Canonical labeling individualizes one node of the first ambiguous
  /// color class and recurses; this caps the total number of candidate
  /// labelings explored. Within the cap the labeling is truly canonical
  /// (isomorphic graphs collide); beyond it the search keeps only the
  /// first branch per class — still deterministic and still
  /// collision-free, but two isomorphic graphs may then receive
  /// different keys (a cache miss, not a bug). Reduced evidence graphs
  /// are tiny, so the cap is effectively never hit on real workloads.
  int max_label_leaves = 64;
  /// Record which original-graph nodes and edges the candidate's
  /// *pre-reduction* restricted subgraph contains (the ingest layer's
  /// dependency index consumes this). Off by default: provenance does not
  /// affect the key, and pure serving callers should not pay for it.
  bool collect_provenance = false;
};

/// The original-graph footprint of one candidate: every node and alive
/// edge of the restricted (pre-reduction) evidence subgraph, by the ids
/// of the *request's* graph. An evidence update can change the
/// candidate's canonical key only if it touches this set (or adds an
/// edge from which the target becomes newly reachable — the one growth
/// case, handled by ingest/dependency_index's AddEdge rule).
struct CandidateProvenance {
  std::vector<NodeId> nodes;  ///< Ascending original node ids.
  std::vector<EdgeId> edges;  ///< Ascending original edge ids.
};

/// One answer node's cacheable resolution unit: the canonical form of its
/// reduced evidence subgraph.
struct CanonicalCandidate {
  CanonicalKey key;
  /// The reduced subgraph rebuilt in canonical node order with
  /// `answers = {target}`. Every isomorphic input yields this exact
  /// graph (bit-identical probabilities, same node numbering), so any
  /// computation run on it — bounds, factoring, seeded Monte Carlo — is
  /// a pure function of `key`. Labels and entity sets are dropped; they
  /// do not affect reliability.
  QueryGraph canonical;
  /// The canonical id of the answer node (== canonical.answers[0]).
  NodeId target = kInvalidNode;
  /// Counters from the reduction pass.
  ReductionStats reduction_stats;
  /// Original-graph footprint; populated only when
  /// CanonicalizeOptions::collect_provenance is set.
  CandidateProvenance provenance;
};

/// Canonicalizes answers of one query graph. Construction is the per-call
/// prologue, run once however many answers follow: it validates the query
/// graph and computes Reach(source) over the graph's flat snapshot.
/// Canonicalize(slot, target) is then the per-answer kernel: a backward
/// BFS from `target` confined to that reach set (epoch-stamped marks, so
/// nothing is cleared per answer) yields the evidence footprint in
/// ascending original-id order with each node's out-edges in CSR order;
/// the Section 3.1 rules run on it as a FlatReductionGraph with only the
/// source and `target` protected; labeling reads the survivors directly.
/// Only the final canonical QueryGraph is materialized.
///
/// Scratch arrays belong to the canonicalizer, one set per `slot` in
/// [0, slot_count), created on a slot's first use. A slot must not be
/// used by two threads at once — ThreadPool::ParallelFor's slot argument
/// satisfies this within one call — and scratch never outlives the
/// canonicalizer, so independent callers (even two running inline on
/// slot 0 of one pool) never share it.
class CandidateCanonicalizer {
 public:
  /// Fails with InvalidArgument exactly when `query_graph` does not
  /// validate. `graph_csr`, when given, must be an unmasked flat snapshot
  /// of `query_graph.graph` (core/csr_snapshot.h) and must outlive the
  /// canonicalizer; null builds one here. `query_graph` must outlive the
  /// canonicalizer too.
  static Result<CandidateCanonicalizer> Create(
      const QueryGraph& query_graph, const CanonicalizeOptions& options,
      const CsrSnapshot* graph_csr, int slot_count);

  CandidateCanonicalizer(CandidateCanonicalizer&&) noexcept;
  CandidateCanonicalizer& operator=(CandidateCanonicalizer&&) noexcept;
  ~CandidateCanonicalizer();

  /// InvalidArgument unless `target` is one of the query graph's answers.
  Status CheckTarget(NodeId target) const;

  /// The canonical candidate of answer `target` (which must pass
  /// CheckTarget), computed on `slot`'s scratch.
  Result<CanonicalCandidate> Canonicalize(int slot, NodeId target);

 private:
  struct SlotScratch;

  CandidateCanonicalizer();

  const QueryGraph* query_graph_ = nullptr;
  CanonicalizeOptions options_;
  std::unique_ptr<CsrSnapshot> owned_csr_;
  const CsrSnapshot* csr_ = nullptr;
  uint32_t source_ = 0;          ///< Dense id of the query node.
  std::vector<uint8_t> reach_;   ///< Reach(source), by dense id.
  std::vector<uint8_t> answer_;  ///< Answer flags, by dense id.
  std::vector<std::unique_ptr<SlotScratch>> slots_;
};

/// Restricts `query_graph` to the evidence subgraph of one answer node
/// (nodes on some source -> target path), applies the Section 3.1
/// reductions with only the source and `target` protected, and computes
/// the canonical form. Fails on invalid query graphs or if `target` is
/// not one of the answers. A one-answer CandidateCanonicalizer: callers
/// canonicalizing many targets of one graph (the serving fan-out) should
/// hold one canonicalizer instead, so validation and the forward reach
/// run once. `graph_csr` is as for CandidateCanonicalizer::Create.
Result<CanonicalCandidate> CanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options = {},
    const CsrSnapshot* graph_csr = nullptr);

/// Canonical key of a query graph as-is (no restriction, no reduction).
/// The graph must validate; all answers are marked with the target role.
Result<CanonicalKey> CanonicalQueryGraphKey(
    const QueryGraph& query_graph, const CanonicalizeOptions& options = {});

/// FNV-1a 64-bit hash, exposed for tests and the cache's shard selector.
uint64_t Fnv1a64(const std::string& text);

}  // namespace biorank

#endif  // BIORANK_CORE_CANONICAL_H_
