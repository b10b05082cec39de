// Monte Carlo estimation of source-target reliability (the paper's
// Algorithm 3.1): the lazy depth-first sampler that only flips coins for
// elements actually reached, and a word-parallel kernel that runs 64
// trials as the lanes of a machine word.

#ifndef BIORANK_CORE_RELIABILITY_MC_H_
#define BIORANK_CORE_RELIABILITY_MC_H_

#include <cstdint>
#include <vector>

#include "core/csr_snapshot.h"
#include "core/query_graph.h"
#include "util/parallel.h"
#include "util/status.h"

namespace biorank {

/// Monte Carlo estimation options (Section 3.1, Algorithm 3.1).
struct McOptions {
  /// How the random subgraphs are sampled.
  enum class Mode {
    /// Algorithm 3.1: depth-first traversal from the source that only
    /// flips coins for elements actually reached, one trial at a time
    /// (the paper reports an average 3.4x speedup over flipping every
    /// coin). Bit-identical between the two backends.
    kTraversal,
    /// 64 trials per `uint64_t`, one lane each (CSR backend only; the
    /// pointer backend rejects it with InvalidArgument). An element's
    /// coins are drawn for just the lanes that reach it, by bit-slicing
    /// its 53-bit threshold t from the most significant bit down: one
    /// random word per bit decides every lane whose random bit differs
    /// from t's, so lane j accepts iff its uniform 53-bit U_j < t —
    /// exactly the traversal's coin. Reach propagates as
    /// `arrived[y] |= coins(edge, reached[x])` in topological order,
    /// with a worklist fixpoint when the reachable part has a cycle;
    /// the counts are popcounts. Coins are drawn per word rather than
    /// per trial, so estimates are not bit-identical to kTraversal's;
    /// they are deterministic per (seed, shard) at any thread count and
    /// under any partition of the shard range, and statistically equal
    /// to the exact reliability.
    kWordParallel,
  };

  /// Which graph substrate the trials run on. In kTraversal mode both
  /// backends flip the same coins in the same order, so every estimate
  /// is bit-identical between them (pinned by
  /// tests/core_csr_differential_test.cc).
  enum class Backend {
    /// Flat CSR snapshot (core/csr_snapshot.h) with an inlined sampler —
    /// the hot path. Default.
    kCsrSnapshot,
    /// The seed-era CompactGraphView walk. Kept verbatim as the
    /// differential reference and for A/B timing in the benches.
    kPointerView,
  };

  int64_t trials = 10000;
  uint64_t seed = 42;
  Mode mode = Mode::kTraversal;
  Backend backend = Backend::kCsrSnapshot;
  /// Parallelism. Trials are split into fixed shards of `shard_trials`
  /// whose RNG streams depend only on (seed, shard index), and the
  /// per-shard reach counts are integers, so the estimate is bit-identical
  /// for any thread count: results depend only on (seed, trials,
  /// shard_trials, mode).
  ///
  /// 0 = use the full shared pool (`BIORANK_THREADS` or hardware
  /// concurrency); 1 = run inline on the calling thread; k > 1 = cap the
  /// pool at k concurrent threads. Negative values are rejected.
  int num_threads = 0;
  /// Trials per parallel shard. Larger shards amortize scheduling; smaller
  /// shards load-balance better. Changing this changes the RNG streams
  /// (and thus the exact estimate), so it is part of the reproducibility
  /// key.
  int64_t shard_trials = 512;
  /// Pool to fan shards out on; nullptr = ThreadPool::Global().
  ThreadPool* pool = nullptr;
};

/// A Monte Carlo reliability estimate.
struct McEstimate {
  /// Per-NodeId fraction of trials in which the node was reached from the
  /// source and present. Dead nodes get 0.
  std::vector<double> scores;
  int64_t trials = 0;
};

/// Estimates the reliability score of *every* node (answers included) of
/// the query graph by Monte Carlo simulation. Fails on invalid query
/// graphs or non-positive trial counts.
Result<McEstimate> EstimateReliabilityMc(const QueryGraph& query_graph,
                                         const McOptions& options = {});

/// Same estimator on a prebuilt CSR query snapshot, skipping the
/// per-call snapshot build — the fast path for callers that run many
/// batches against one graph (topk_mc's adaptive rounds, the Figure 7
/// repetition harness). `options.backend` is ignored (the snapshot *is*
/// the backend); scores come back indexed by the snapshot's original
/// NodeIds, exactly like EstimateReliabilityMc.
Result<McEstimate> EstimateReliabilityMcOnSnapshot(
    const CsrQuerySnapshot& snapshot, const McOptions& options = {});

/// Integer per-node reach counts for one contiguous range of the
/// deterministic shard schedule PlanTrialShards(options.trials,
/// options.shard_trials). This is the resumable half of the estimator:
/// shard i always draws from RNG stream (options.seed, i) regardless of
/// which call runs it, and the counts are integers, so summing the
/// tallies of any partition of [0, num_shards) reproduces — bit for bit
/// — the totals EstimateReliabilityMcOnSnapshot computes in one shot.
/// The serve layer's anytime refinement path rides this: each Refine
/// increment runs the next few shards and accumulates the tallies, and a
/// fully-refined estimate equals the blocking one exactly.
struct McShardTallies {
  /// Per original-NodeId reach counts over the range's trials (dead
  /// nodes count 0).
  std::vector<int64_t> counts;
  /// Trials the range covered (the sum of its shard sizes).
  int64_t trials = 0;
  /// 64-bit random words the range drew: a deterministic, host-independent
  /// count of the sampling work (certain and impossible elements draw
  /// none).
  int64_t words = 0;
};
Result<McShardTallies> TallyReliabilityMcShards(
    const CsrQuerySnapshot& snapshot, const McOptions& options,
    int64_t shard_begin, int64_t shard_end);

}  // namespace biorank

#endif  // BIORANK_CORE_RELIABILITY_MC_H_
