#include "core/reliability_mc.h"

#include <algorithm>
#include <cmath>

#include "core/trial_bound.h"
#include "util/rng.h"

namespace biorank {

namespace {

Status ValidateMcOptions(const McOptions& options) {
  if (options.trials <= 0) {
    return Status::InvalidArgument("MC trials must be positive");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "MC num_threads must be >= 0 (0 = full shared pool)");
  }
  if (options.shard_trials < 1) {
    return Status::InvalidArgument("MC shard_trials must be >= 1");
  }
  return Status::OK();
}

/// Per-executor scratch reused across every shard a thread runs, so shard
/// granularity costs no allocations. Reach counts are integers, which is
/// what makes the cross-shard sum order-independent and the final estimate
/// bit-identical for any thread count.
struct TrialWorkspace {
  std::vector<int64_t> reach_count;
  /// `last_sim[x] == epoch` marks x as simulated in the current trial.
  /// The epoch increments monotonically across trials *and shards*, so
  /// reuse needs no clearing.
  std::vector<int64_t> last_sim;
  std::vector<NodeId> stack;
  int64_t epoch = 0;

  void Init(int node_count) {
    reach_count.assign(node_count, 0);
    last_sim.assign(node_count, -1);
    stack.reserve(64);
  }
};

/// Runs `trials` traversal trials (Algorithm 3.1), accumulating per-node
/// reach counts into `ws.reach_count`.
void RunTraversalTrials(const CompactGraphView& view, NodeId source,
                        int64_t trials, Rng rng, TrialWorkspace& ws) {
  for (int64_t trial = 0; trial < trials; ++trial) {
    const int64_t epoch = ++ws.epoch;
    ws.stack.clear();
    ws.last_sim[source] = epoch;
    if (rng.NextBernoulli(view.node_p[source])) {
      ++ws.reach_count[source];
      ws.stack.push_back(source);
    }
    while (!ws.stack.empty()) {
      NodeId x = ws.stack.back();
      ws.stack.pop_back();
      for (int32_t i = view.out_offset[x]; i < view.out_offset[x + 1]; ++i) {
        // One coin per edge per trial: x expands at most once per trial.
        if (!rng.NextBernoulli(view.edge_q[i])) continue;
        NodeId y = view.edge_to[i];
        if (ws.last_sim[y] == epoch) continue;
        ws.last_sim[y] = epoch;
        if (rng.NextBernoulli(view.node_p[y])) {
          ++ws.reach_count[y];
          ws.stack.push_back(y);
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// CSR-snapshot backend. Same trials, same coins, flat arrays, and a
// fully inlined sampler: the pointer path pays an out-of-line Rng call
// per coin, which dominates the per-edge cost of the traversal kernel.
// ---------------------------------------------------------------------------

/// xoshiro256++ inlined into the kernel, bit-compatible with util/rng.h's
/// Rng: same SplitMix64 seeding, same output function, same top-53-bit
/// double mapping, and the same "certain elements consume no draw"
/// shortcut. Any divergence from Rng breaks the pointer-vs-CSR
/// bit-identity the differential suite asserts, so it cannot rot quietly.
struct InlineRng {
  uint64_t s[4];

  explicit InlineRng(uint64_t seed) {
    for (auto& word : s) word = SplitMix64Next(seed);
  }

  inline uint64_t Next() {
    const uint64_t rotated = s[0] + s[3];
    const uint64_t result = ((rotated << 23) | (rotated >> 41)) + s[0];
    const uint64_t t = s[1] << 17;
    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = ((s[3] << 45) | (s[3] >> 19));
    return result;
  }

  inline bool Bernoulli(double p) {
    if (p <= 0.0) return false;
    if (p >= 1.0) return true;
    return static_cast<double>(Next() >> 11) * 0x1.0p-53 < p;
  }
};

/// Probabilities pre-scaled to 53-bit integer thresholds so the kernel
/// compares the raw 53-bit draw directly: for integer x < 2^53 and
/// p in (0,1), (double)x * 2^-53 < p  ⟺  x < ceil(p * 2^53) — both
/// sides are exact (power-of-two scaling is lossless and x has ≤ 53
/// bits), so the accept/reject decision is bit-identical to
/// Rng::NextBernoulli. Certain and impossible elements get sentinel
/// values that preserve the "no draw consumed" shortcut. On the Fig. 7
/// workload 76% of edges are certain, so the hot loop's common case
/// collapses to one integer compare with no RNG advance.
constexpr uint64_t kThreshNever = 0;                     // p <= 0: false, no draw
constexpr uint64_t kThreshCertain = ~uint64_t{0};        // p >= 1: true, no draw

inline uint64_t BernoulliThreshold(double p) {
  if (p <= 0.0) return kThreshNever;
  if (p >= 1.0) return kThreshCertain;
  // ceil(p * 2^53); p < 1 so the product is < 2^53 and never collides
  // with kThreshCertain. p > 0 so it is >= 1 and never kThreshNever.
  return static_cast<uint64_t>(std::ceil(p * 9007199254740992.0));
}

/// Draw-consuming path only; callers must have peeled the sentinels.
inline bool DrawAgainst(InlineRng& rng, uint64_t threshold, int64_t& words) {
  ++words;
  return (rng.Next() >> 11) < threshold;
}

/// Per-call threshold tables mirroring node_p / out_q, built once before
/// the shard fan-out and shared read-only by every worker.
struct CsrThresholds {
  std::vector<uint64_t> node;
  std::vector<uint64_t> edge;

  explicit CsrThresholds(const CsrSnapshot& csr) {
    node.reserve(csr.node_p.size());
    for (double p : csr.node_p) node.push_back(BernoulliThreshold(p));
    edge.reserve(csr.out_q.size());
    for (double q : csr.out_q) edge.push_back(BernoulliThreshold(q));
  }
};

/// Dense scratch for the CSR traversal kernel; arrays are sized to the
/// snapshot's node count (no tombstone slack), so the per-trial working
/// set is as small as the kept subgraph.
struct CsrTrialWorkspace {
  std::vector<int64_t> reach_count;
  std::vector<int64_t> last_sim;
  std::vector<uint32_t> stack;
  int64_t epoch = 0;
  int64_t words = 0;

  void Init(uint32_t node_count) {
    reach_count.assign(node_count, 0);
    last_sim.assign(node_count, -1);
    stack.reserve(64);
  }
};

void RunCsrTraversalTrials(const CsrSnapshot& csr,
                           const CsrThresholds& thresholds, uint32_t source,
                           int64_t trials, InlineRng rng,
                           CsrTrialWorkspace& ws) {
  const uint64_t* const node_t = thresholds.node.data();
  const uint64_t* const edge_t = thresholds.edge.data();
  const uint32_t* const out_offset = csr.out_offset.data();
  const uint32_t* const out_to = csr.out_to.data();
  int64_t words = 0;
  for (int64_t trial = 0; trial < trials; ++trial) {
    const int64_t epoch = ++ws.epoch;
    ws.stack.clear();
    ws.last_sim[source] = epoch;
    const uint64_t source_t = node_t[source];
    if (source_t == kThreshCertain ||
        (source_t != kThreshNever && DrawAgainst(rng, source_t, words))) {
      ++ws.reach_count[source];
      ws.stack.push_back(source);
    }
    while (!ws.stack.empty()) {
      const uint32_t x = ws.stack.back();
      ws.stack.pop_back();
      const uint32_t end = out_offset[x + 1];
      for (uint32_t i = out_offset[x]; i < end; ++i) {
        const uint64_t et = edge_t[i];
        if (et != kThreshCertain &&
            (et == kThreshNever || !DrawAgainst(rng, et, words))) {
          continue;
        }
        const uint32_t y = out_to[i];
        if (ws.last_sim[y] == epoch) continue;
        ws.last_sim[y] = epoch;
        const uint64_t nt = node_t[y];
        if (nt == kThreshCertain ||
            (nt != kThreshNever && DrawAgainst(rng, nt, words))) {
          ++ws.reach_count[y];
          ws.stack.push_back(y);
        }
      }
    }
  }
  ws.words += words;
}

// ---------------------------------------------------------------------------
// Word-parallel kernel (McOptions::Mode::kWordParallel): 64 trials per
// uint64_t, lane j of every mask standing for one trial.
// ---------------------------------------------------------------------------

/// The lanes of `lanes` whose coin against `threshold` lands heads, drawn
/// exactly: lane j accepts iff U_j < t, where U_j is the uniform 53-bit
/// integer whose bits are bit j of successive random words, most
/// significant first. At each bit of t a lane whose random bit differs
/// from t's is decided (a 0 against a 1 accepts, a 1 against a 0
/// rejects); the rest stay open. Below t's lowest set bit an open lane
/// can only tie or exceed t, so it rejects without further draws. Every
/// draw halves the open lanes in expectation, so ~7 words settle 64
/// lanes. Certain and impossible elements, and empty masks, draw
/// nothing.
inline uint64_t DrawLanes(InlineRng& rng, uint64_t threshold, uint64_t lanes,
                          int64_t& words) {
  if (threshold == kThreshCertain) return lanes;
  if (threshold == kThreshNever || lanes == 0) return 0;
  uint64_t accept = 0;
  uint64_t open = lanes;
  const int lowest = __builtin_ctzll(threshold);
  for (int bit = 52; bit >= lowest && open != 0; --bit) {
    const uint64_t random = rng.Next();
    ++words;
    // All ones when t has this bit set: the open lanes drawing 0 accept.
    // Either way the lanes whose bit equals t's stay open. Branch-free,
    // because t's bits are as good as random.
    const uint64_t t_bit = uint64_t{0} - ((threshold >> bit) & 1);
    accept |= open & ~random & t_bit;
    open &= ~(random ^ t_bit);
  }
  return accept;
}

/// The nodes reachable from the source, in topological order when they
/// induce no cycle (Kahn's algorithm over the CSR), else in BFS order
/// with `acyclic` false. Built once per call and shared read-only by
/// every worker; nodes outside it can never be reached in any trial.
struct ReachOrder {
  std::vector<uint32_t> nodes;
  bool acyclic = true;

  ReachOrder(const CsrSnapshot& csr, uint32_t source) {
    const uint32_t n = csr.num_nodes();
    std::vector<uint32_t> indegree(n, 0);
    std::vector<uint8_t> seen(n, 0);
    nodes.push_back(source);
    seen[source] = 1;
    for (size_t head = 0; head < nodes.size(); ++head) {
      const uint32_t x = nodes[head];
      for (uint32_t i = csr.out_offset[x]; i < csr.out_offset[x + 1]; ++i) {
        const uint32_t y = csr.out_to[i];
        ++indegree[y];
        if (!seen[y]) {
          seen[y] = 1;
          nodes.push_back(y);
        }
      }
    }
    std::vector<uint32_t> order;
    order.reserve(nodes.size());
    if (indegree[source] == 0) order.push_back(source);
    for (size_t head = 0; head < order.size(); ++head) {
      const uint32_t x = order[head];
      for (uint32_t i = csr.out_offset[x]; i < csr.out_offset[x + 1]; ++i) {
        if (--indegree[csr.out_to[i]] == 0) order.push_back(csr.out_to[i]);
      }
    }
    acyclic = order.size() == nodes.size();
    if (acyclic) nodes.swap(order);
  }
};

/// Per-slot scratch of the word kernel, indexed by dense node id: the
/// lanes an in-edge delivered to a node (`arrived`), the lanes in which
/// it is reached and present (`reached`), and, for the cyclic fixpoint,
/// the lanes whose out-edge coins are already drawn (`expanded`).
struct WordWorkspace {
  std::vector<int64_t> reach_count;
  std::vector<uint64_t> arrived;
  std::vector<uint64_t> reached;
  std::vector<uint64_t> expanded;
  std::vector<uint8_t> queued;
  std::vector<uint32_t> worklist;
  int64_t words = 0;

  void Init(uint32_t node_count) {
    reach_count.assign(node_count, 0);
    arrived.assign(node_count, 0);
    reached.assign(node_count, 0);
    expanded.assign(node_count, 0);
    queued.assign(node_count, 0);
  }
};

/// One word of trials on a DAG: each node, visited once in topological
/// order, has every in-edge's delivery before its own coin is drawn.
/// Returns the random words drawn.
int64_t RunWordOnDag(const CsrSnapshot& csr, const CsrThresholds& thresholds,
                  const ReachOrder& order, uint32_t source, uint64_t lanes,
                  InlineRng& rng, WordWorkspace& ws) {
  const uint64_t* const node_t = thresholds.node.data();
  const uint64_t* const edge_t = thresholds.edge.data();
  const uint32_t* const out_offset = csr.out_offset.data();
  const uint32_t* const out_to = csr.out_to.data();
  uint64_t* const arrived = ws.arrived.data();
  int64_t words = 0;
  for (uint32_t x : order.nodes) arrived[x] = 0;
  arrived[source] = lanes;
  for (uint32_t x : order.nodes) {
    const uint64_t reach = DrawLanes(rng, node_t[x], arrived[x], words);
    if (reach == 0) continue;
    ws.reach_count[x] += __builtin_popcountll(reach);
    const uint32_t end = out_offset[x + 1];
    for (uint32_t i = out_offset[x]; i < end; ++i) {
      arrived[out_to[i]] |= DrawLanes(rng, edge_t[i], reach, words);
    }
  }
  return words;
}

/// One word of trials on a graph whose reachable part has a cycle: a
/// worklist runs to the fixpoint, drawing each edge's coins only for
/// lanes its tail newly reached and each node's only for lanes that newly
/// arrive, so no lane flips any coin twice. Returns the random words
/// drawn.
int64_t RunWordOnCyclic(const CsrSnapshot& csr, const CsrThresholds& thresholds,
                     const ReachOrder& order, uint32_t source, uint64_t lanes,
                     InlineRng& rng, WordWorkspace& ws) {
  const uint64_t* const node_t = thresholds.node.data();
  const uint64_t* const edge_t = thresholds.edge.data();
  int64_t words = 0;
  for (uint32_t x : order.nodes) {
    ws.arrived[x] = 0;
    ws.reached[x] = 0;
    ws.expanded[x] = 0;
  }
  ws.arrived[source] = lanes;
  ws.reached[source] = DrawLanes(rng, node_t[source], lanes, words);
  ws.worklist.assign(1, source);
  ws.queued[source] = 1;
  for (size_t head = 0; head < ws.worklist.size(); ++head) {
    const uint32_t x = ws.worklist[head];
    ws.queued[x] = 0;
    const uint64_t fresh = ws.reached[x] & ~ws.expanded[x];
    ws.expanded[x] |= fresh;
    for (uint32_t i = csr.out_offset[x]; i < csr.out_offset[x + 1]; ++i) {
      const uint32_t y = csr.out_to[i];
      const uint64_t delivered =
          DrawLanes(rng, edge_t[i], fresh, words) & ~ws.arrived[y];
      if (delivered == 0) continue;
      ws.arrived[y] |= delivered;
      const uint64_t present = DrawLanes(rng, node_t[y], delivered, words);
      if (present == 0) continue;
      ws.reached[y] |= present;
      if (!ws.queued[y]) {
        ws.queued[y] = 1;
        ws.worklist.push_back(y);
      }
    }
  }
  for (uint32_t x : order.nodes) {
    ws.reach_count[x] += __builtin_popcountll(ws.reached[x]);
  }
  return words;
}

/// Runs `trials` trials as ceil(trials / 64) words, the last one masked
/// to its partial lane count.
void RunWordParallelTrials(const CsrSnapshot& csr,
                           const CsrThresholds& thresholds,
                           const ReachOrder& order, uint32_t source,
                           int64_t trials, InlineRng rng, WordWorkspace& ws) {
  for (int64_t done = 0; done < trials; done += 64) {
    const int64_t width = std::min<int64_t>(64, trials - done);
    const uint64_t lanes =
        width == 64 ? ~uint64_t{0} : (uint64_t{1} << width) - 1;
    ws.words += order.acyclic
                    ? RunWordOnDag(csr, thresholds, order, source, lanes, rng,
                                   ws)
                    : RunWordOnCyclic(csr, thresholds, order, source, lanes,
                                      rng, ws);
  }
}

/// Runs shards [shard_begin, shard_end) of the plan `shards` over `pool`,
/// shard i on the stream of Rng::ForStream(seed, i), through
/// `kernel(trials, rng, workspace)` on per-slot scratch sized on first
/// use. Adds the integer reach counts into `totals` (so which slot ran
/// which shard is invisible) and returns the random words drawn.
template <typename Workspace, typename Kernel>
int64_t RunShardRange(ThreadPool& pool, int max_parallelism, uint64_t seed,
                      const std::vector<int64_t>& shards, int64_t shard_begin,
                      int64_t shard_end, std::vector<int64_t>& totals,
                      const Kernel& kernel) {
  const uint32_t n = static_cast<uint32_t>(totals.size());
  std::vector<Workspace> workspaces(pool.slot_count());
  pool.ParallelFor(
      shard_end - shard_begin,
      [&](int slot, int64_t offset) {
        const int64_t shard = shard_begin + offset;
        Workspace& ws = workspaces[slot];
        if (ws.reach_count.empty()) ws.Init(n);
        kernel(shards[shard],
               InlineRng(DeriveStreamSeed(seed, static_cast<uint64_t>(shard))),
               ws);
      },
      max_parallelism);
  int64_t words = 0;
  for (const Workspace& ws : workspaces) {
    if (ws.reach_count.empty()) continue;
    for (uint32_t i = 0; i < n; ++i) totals[i] += ws.reach_count[i];
    words += ws.words;
  }
  return words;
}

/// The seed-era pointer-view estimator, byte-for-byte the original hot
/// path — now the differential reference backend.
Result<McEstimate> EstimateOnPointerView(const QueryGraph& query_graph,
                                         const McOptions& options) {
  if (options.mode != McOptions::Mode::kTraversal) {
    return Status::InvalidArgument(
        "MC word-parallel mode runs on the CSR backend only");
  }
  CompactGraphView view = CompactGraphView::FromGraph(query_graph.graph);
  const int n = view.node_count();

  // Fixed shard schedule: shard i runs shards[i] trials on RNG stream
  // (seed, i). Which thread runs which shard never affects the counts.
  Result<std::vector<int64_t>> plan =
      PlanTrialShards(options.trials, options.shard_trials);
  if (!plan.ok()) return plan.status();
  const std::vector<int64_t>& shards = plan.value();

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Global();
  const int max_parallelism = options.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options.num_threads;

  std::vector<TrialWorkspace> workspaces(pool.slot_count());
  pool.ParallelFor(
      static_cast<int64_t>(shards.size()),
      [&](int slot, int64_t shard) {
        TrialWorkspace& ws = workspaces[slot];
        if (ws.reach_count.empty()) ws.Init(n);
        Rng rng = Rng::ForStream(options.seed, static_cast<uint64_t>(shard));
        RunTraversalTrials(view, query_graph.source, shards[shard], rng, ws);
      },
      max_parallelism);

  McEstimate estimate;
  estimate.trials = options.trials;
  estimate.scores.assign(n, 0.0);
  std::vector<int64_t> totals(n, 0);
  for (const TrialWorkspace& ws : workspaces) {
    if (ws.reach_count.empty()) continue;
    for (int i = 0; i < n; ++i) totals[i] += ws.reach_count[i];
  }
  for (int i = 0; i < n; ++i) {
    estimate.scores[i] = static_cast<double>(totals[i]) /
                         static_cast<double>(options.trials);
  }
  return estimate;
}

}  // namespace

Result<McShardTallies> TallyReliabilityMcShards(
    const CsrQuerySnapshot& snapshot, const McOptions& options,
    int64_t shard_begin, int64_t shard_end) {
  BIORANK_RETURN_IF_ERROR(ValidateMcOptions(options));
  if (snapshot.source == kCsrInvalid ||
      snapshot.source >= snapshot.csr.num_nodes()) {
    return Status::InvalidArgument("MC snapshot has no valid source node");
  }
  const CsrSnapshot& csr = snapshot.csr;
  const uint32_t n = csr.num_nodes();

  Result<std::vector<int64_t>> plan =
      PlanTrialShards(options.trials, options.shard_trials);
  if (!plan.ok()) return plan.status();
  const std::vector<int64_t>& shards = plan.value();
  if (shard_begin < 0 || shard_end < shard_begin ||
      shard_end > static_cast<int64_t>(shards.size())) {
    return Status::OutOfRange(
        "MC shard range [" + std::to_string(shard_begin) + ", " +
        std::to_string(shard_end) + ") is outside the " +
        std::to_string(shards.size()) + "-shard schedule");
  }

  ThreadPool& pool = options.pool != nullptr ? *options.pool
                                             : ThreadPool::Global();
  const int max_parallelism = options.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options.num_threads;

  std::vector<int64_t> totals(n, 0);
  const CsrThresholds thresholds(csr);
  const uint32_t source = snapshot.source;
  int64_t words = 0;
  if (options.mode == McOptions::Mode::kTraversal) {
    words = RunShardRange<CsrTrialWorkspace>(
        pool, max_parallelism, options.seed, shards, shard_begin, shard_end,
        totals, [&](int64_t trials, InlineRng rng, CsrTrialWorkspace& ws) {
          RunCsrTraversalTrials(csr, thresholds, source, trials, rng, ws);
        });
  } else {
    const ReachOrder order(csr, source);
    words = RunShardRange<WordWorkspace>(
        pool, max_parallelism, options.seed, shards, shard_begin, shard_end,
        totals, [&](int64_t trials, InlineRng rng, WordWorkspace& ws) {
          RunWordParallelTrials(csr, thresholds, order, source, trials, rng,
                                ws);
        });
  }

  // One expansion back to original NodeId indexing (dead nodes count 0)
  // so callers are backend-agnostic.
  McShardTallies tallies;
  tallies.words = words;
  for (int64_t shard = shard_begin; shard < shard_end; ++shard) {
    tallies.trials += shards[shard];
  }
  tallies.counts.assign(static_cast<size_t>(csr.orig_capacity()), 0);
  for (uint32_t i = 0; i < n; ++i) {
    tallies.counts[static_cast<size_t>(csr.orig_id[i])] = totals[i];
  }
  return tallies;
}

Result<McEstimate> EstimateReliabilityMcOnSnapshot(
    const CsrQuerySnapshot& snapshot, const McOptions& options) {
  // One full pass over the shard schedule. Expressing the one-shot
  // estimator through the resumable tally keeps the two structurally
  // incapable of drifting: an incremental refinement that covers the
  // whole schedule sums exactly these integers.
  Result<std::vector<int64_t>> plan =
      PlanTrialShards(options.trials, options.shard_trials);
  if (!plan.ok()) return plan.status();
  Result<McShardTallies> tallies = TallyReliabilityMcShards(
      snapshot, options, 0, static_cast<int64_t>(plan.value().size()));
  if (!tallies.ok()) return tallies.status();
  McEstimate estimate;
  estimate.trials = options.trials;
  estimate.scores.assign(tallies.value().counts.size(), 0.0);
  for (size_t i = 0; i < estimate.scores.size(); ++i) {
    estimate.scores[i] = static_cast<double>(tallies.value().counts[i]) /
                         static_cast<double>(options.trials);
  }
  return estimate;
}

Result<McEstimate> EstimateReliabilityMc(const QueryGraph& query_graph,
                                         const McOptions& options) {
  BIORANK_RETURN_IF_ERROR(query_graph.Validate());
  BIORANK_RETURN_IF_ERROR(ValidateMcOptions(options));
  if (options.backend == McOptions::Backend::kPointerView) {
    return EstimateOnPointerView(query_graph, options);
  }
  Result<CsrQuerySnapshot> snapshot = BuildCsrQuerySnapshot(query_graph);
  if (!snapshot.ok()) return snapshot.status();
  return EstimateReliabilityMcOnSnapshot(snapshot.value(), options);
}

}  // namespace biorank
