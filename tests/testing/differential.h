// Differential harness for the CSR-vs-pointer backend contract: every
// comparison runs the same computation on both substrates and reports
// the first bit-level divergence. Scores are compared by bit pattern
// (memcmp), never by tolerance — the contract is "same coins, same
// order, same arithmetic", not "close enough".

#ifndef BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
#define BIORANK_TESTS_TESTING_DIFFERENTIAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/canonical.h"
#include "core/diffusion.h"
#include "core/query_graph.h"
#include "core/reduction.h"
#include "core/reliability_exact.h"
#include "core/reliability_mc.h"
#include "core/topk_mc.h"

namespace biorank::testing {

/// Outcome of one differential comparison. `ok` means bit-identical;
/// otherwise `message` pinpoints the first divergence (suitable for
/// EXPECT_TRUE(r.ok) << r.message).
struct DiffResult {
  bool ok = true;
  std::string message;
};

/// True iff the two vectors have equal length and bitwise-equal contents
/// (NaN matches NaN, +0.0 differs from -0.0).
bool ScoresBitIdentical(const std::vector<double>& a,
                        const std::vector<double>& b);

/// Runs EstimateReliabilityMc's traversal kernel on `query_graph` with
/// the CSR and pointer backends (same trials/seed/threading) and
/// compares the full score vectors bitwise.
DiffResult CompareMcBackends(const QueryGraph& query_graph, int64_t trials,
                             uint64_t seed, int num_threads);

/// The word-parallel kernel's own contract (it has no pointer twin): on
/// `query_graph`'s CSR snapshot, the one-shot single-thread tally is the
/// reference; runs capped at 2, 4 and 8 threads of `pool`, and the sums
/// over several partitions of the shard range (halves, single shards, an
/// uneven split), must reproduce its counts, trials and words exactly,
/// and EstimateReliabilityMc's scores bit for bit at every cap.
DiffResult CompareWordParallelInvariance(const QueryGraph& query_graph,
                                         int64_t trials, uint64_t seed,
                                         ThreadPool& pool);

/// Runs RankTopKAdaptive with both backends and compares the adaptive
/// trajectory: trials_used, separated, and the full ranking (node order,
/// rank numbers, bitwise scores).
DiffResult CompareTopKBackends(const QueryGraph& query_graph,
                               const TopKOptions& base);

/// Runs Diffuse with both backends and compares scores (bitwise),
/// iteration counts, and convergence flags.
DiffResult CompareDiffusionBackends(const QueryGraph& query_graph,
                                    const DiffusionOptions& base);

/// Canonicalizes every answer of `query_graph` on the production flat
/// path — through one two-slot CandidateCanonicalizer (scratch reused
/// across answers) and through one-shot CanonicalizeCandidate — and on
/// the pointer reference (testing/reference_canonical.h). Keys (repr and
/// hash), canonical graphs (CSR byte equality), targets, every
/// ReductionStats field, and provenance must match exactly, and the CSR
/// QueryRelevantMask (testing/reference_canonical.h) must equal the
/// reference's kept mask.
DiffResult CompareCanonicalizationWithReference(
    const QueryGraph& query_graph, const CanonicalizeOptions& options);

/// Runs ReduceQueryGraph (the flat kernel behind its adapter) and the
/// pointer reference rules on copies of `query_graph` and compares the
/// post-states: stats, alive node and edge ids, adjacency order, and
/// p/q bit patterns.
DiffResult CompareReductionWithReference(const QueryGraph& query_graph,
                                         const ReductionOptions& options);

/// Runs ExactReliabilityFactoring (the flat recursion) and the pointer
/// reference (testing/reference_factoring.h) for every answer of
/// `query_graph` under `options`. Statuses, call counts and value bits
/// must match. Where the reference succeeds, production must also
/// succeed with `max_calls` set to exactly the reference's call count
/// (same bits) and fail with FailedPrecondition at one less.
DiffResult CompareFactoringWithReference(const QueryGraph& query_graph,
                                         const FactoringOptions& options);

}  // namespace biorank::testing

#endif  // BIORANK_TESTS_TESTING_DIFFERENTIAL_H_
