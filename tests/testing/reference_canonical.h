// Differential oracle for canonicalization and the Section 3.1 reduction
// rules: the pointer-graph implementations the flat production kernels
// replaced. Every production result (keys, canonical graphs, reduction
// counters, provenance, and ReduceQueryGraph's post-state) must be
// identical to these.

#ifndef BIORANK_TESTS_TESTING_REFERENCE_CANONICAL_H_
#define BIORANK_TESTS_TESTING_REFERENCE_CANONICAL_H_

#include <vector>

#include "core/canonical.h"
#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "core/reduction.h"
#include "util/status.h"

namespace biorank::testing {

/// Pointer-graph restriction to the union over `answers` of the nodes on
/// some source -> answer path (answers unreachable from the source stay
/// as isolated nodes). `kept_nodes` (optional) receives the membership
/// mask, indexed by original NodeId.
QueryGraph ReferenceRestrict(const QueryGraph& query_graph,
                             const std::vector<NodeId>& answers,
                             std::vector<bool>* kept_nodes = nullptr);

/// The reduction rules applied directly to the tombstoned pointer graph.
ReductionStats ReferenceReduceQueryGraph(QueryGraph& query_graph,
                                         const ReductionOptions& options = {});

/// Per-answer canonicalization on the pointer graph: validate, restrict
/// into a fresh QueryGraph, reduce it, label it, rebuild it.
Result<CanonicalCandidate> ReferenceCanonicalizeCandidate(
    const QueryGraph& query_graph, NodeId target,
    const CanonicalizeOptions& options = {});

/// Membership mask (indexed by original NodeId) of the query-relevant
/// subgraph: Reach(source) ∩ ∪_t CoReach(t), plus the source and every
/// valid answer — computed by forward/backward BFS over a CSR snapshot's
/// flat arrays. `csr` must be an unmasked snapshot of the graph the ids
/// refer to. A second derivation of ReferenceRestrict's kept mask, on the
/// other substrate: the two must agree bit for bit.
std::vector<bool> QueryRelevantMask(const CsrSnapshot& csr, NodeId source,
                                    const std::vector<NodeId>& answers);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_REFERENCE_CANONICAL_H_
