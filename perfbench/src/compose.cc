#include "compose.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/csr_snapshot.h"
#include "util/parallel.h"

namespace perfbench {

using biorank::CanonicalCandidate;
using biorank::CsrSnapshot;
using biorank::NodeId;
using biorank::QueryGraph;
using biorank::Result;
using biorank::Status;
using biorank::ThreadPool;
using biorank::serve::PreparedCandidate;
using biorank::serve::RankedCandidate;
using biorank::serve::RankingService;
using biorank::serve::RefinementState;
using biorank::serve::RequestStats;
using biorank::serve::Resolution;
using biorank::serve::UniqueState;

namespace {

/// Validate, flat snapshot and canonicalization of `targets`, each under
/// its own span below `parent`, plus the reduction/residue counters.
Status Canonicalize(RankingService& service, const QueryGraph& graph,
                    const std::vector<NodeId>& targets,
                    std::vector<CanonicalCandidate>& canonicals,
                    RequestTrace& trace, int parent) {
  {
    ScopedSpan span(trace, "core.validate", parent);
    BIORANK_RETURN_IF_ERROR(graph.Validate());
  }
  CsrSnapshot csr;
  {
    ScopedSpan span(trace, "core.csr_build", parent);
    csr = biorank::BuildCsrSnapshot(graph.graph);
  }
  {
    ScopedSpan span(trace, "serve.canonicalize", parent);
    BIORANK_RETURN_IF_ERROR(service.CanonicalizeTargets(
        graph, targets, service.options().canonicalize, canonicals, &csr));
  }
  double before = 0.0;
  double removed = 0.0;
  double canonical_edges = 0.0;
  for (const CanonicalCandidate& c : canonicals) {
    const biorank::ReductionStats& r = c.reduction_stats;
    before += r.nodes_before + r.edges_before;
    removed += (r.nodes_before + r.edges_before) -
               (r.nodes_after + r.edges_after);
    canonical_edges += c.canonical.graph.num_edges();
  }
  trace.Count("core.reduce.before", before);
  trace.Count("core.reduce.removed", removed);
  trace.Count("serve.canonical_edges", canonical_edges);
  trace.Count("serve.canonicalized", static_cast<double>(canonicals.size()));
  return Status::OK();
}

std::vector<PreparedCandidate> Prepare(
    const std::vector<NodeId>& targets,
    const std::vector<CanonicalCandidate>& canonicals) {
  std::vector<PreparedCandidate> prepared(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    prepared[i].node = targets[i];
    prepared[i].canonical = &canonicals[i];
  }
  return prepared;
}

}  // namespace

Fingerprint FingerprintOf(const std::vector<RankedCandidate>& top) {
  Fingerprint fingerprint;
  for (const RankedCandidate& c : top) {
    fingerprint.emplace_back(c.node, c.reliability);
  }
  return fingerprint;
}

void CountStats(const RequestStats& stats, int unique_keys,
                RequestTrace& trace) {
  trace.Count("serve.candidates", stats.candidates);
  if (unique_keys >= 0) trace.Count("serve.unique_keys", unique_keys);
  trace.Count("serve.cache_hits", stats.cache_hits);
  trace.Count("serve.cache_misses", stats.cache_misses);
  trace.Count("serve.pruned", stats.pruned);
  trace.Count("serve.gated", stats.pruned + stats.bound_exact + stats.exact +
                                 stats.monte_carlo);
  trace.Count("serve.exact_resolutions", stats.exact);
  trace.Count("serve.mc_trials", static_cast<double>(stats.mc_trials));
}

Result<std::vector<RankedCandidate>> ComposeBlocking(RankingService& service,
                                                     const QueryGraph& graph,
                                                     int top_k,
                                                     RequestTrace& trace) {
  const std::vector<NodeId>& answers = graph.answers;
  std::vector<RankedCandidate> top;
  if (answers.empty()) return top;
  const int k = std::min(top_k, static_cast<int>(answers.size()));

  std::vector<CanonicalCandidate> canonicals;
  BIORANK_RETURN_IF_ERROR(
      Canonicalize(service, graph, answers, canonicals, trace, 0));
  const std::vector<PreparedCandidate> prepared = Prepare(answers, canonicals);

  RequestStats stats;
  stats.candidates = static_cast<int>(prepared.size());
  std::vector<UniqueState> uniques;
  std::vector<int> unique_index;
  {
    ScopedSpan span(trace, "serve.cache_bounds");
    BIORANK_RETURN_IF_ERROR(
        service.BuildUniqueStates(prepared, uniques, unique_index, stats));
  }
  std::vector<int> survivors;
  {
    ScopedSpan span(trace, "serve.prune");
    service.ClassifySurvivors(unique_index, uniques, k, stats, survivors);
  }
  trace.Count("serve.survivors", static_cast<double>(survivors.size()));

  // The survivor fan-out runs on the same pool, with the same cap, as
  // RankingService::RankPrepared's resolve phase.
  const biorank::serve::RankingServiceOptions& options = service.options();
  ThreadPool& pool =
      options.pool != nullptr ? *options.pool : ThreadPool::Global();
  const int max_parallelism = options.num_threads == 0
                                  ? ThreadPool::kUnlimitedParallelism
                                  : options.num_threads;
  pool.ParallelFor(
      static_cast<int64_t>(survivors.size()),
      [&](int, int64_t j) {
        UniqueState& u =
            uniques[static_cast<size_t>(survivors[static_cast<size_t>(j)])];
        {
          ScopedSpan span(trace, "serve.exact");
          u.status = service.TryResolveExact(u);
        }
        if (!u.status.ok() || u.entry.has_value) return;
        ScopedSpan span(trace, "serve.mc");
        u.status = service.AdvanceMonteCarlo(u, /*trial_budget=*/0);
      },
      max_parallelism);
  for (const UniqueState& u : uniques) {
    if (!u.status.ok()) return u.status;
  }
  for (int index : survivors) {
    const UniqueState& u = uniques[static_cast<size_t>(index)];
    if (u.resolution == Resolution::kExact) {
      ++stats.exact;
    } else {
      ++stats.monte_carlo;
      stats.mc_trials += u.trials_spent;
    }
  }
  {
    ScopedSpan span(trace, "serve.publish");
    service.PublishEntries(uniques);
  }
  CountStats(stats, static_cast<int>(uniques.size()), trace);

  for (size_t ci = 0; ci < prepared.size(); ++ci) {
    const UniqueState& u = uniques[static_cast<size_t>(unique_index[ci])];
    if (!u.entry.has_value) continue;
    RankedCandidate ranked;
    ranked.node = prepared[ci].node;
    ranked.reliability = u.entry.value;
    ranked.lower = u.entry.exact ? u.entry.value : u.entry.lower;
    ranked.upper = u.entry.exact ? u.entry.value : u.entry.upper;
    ranked.exact = u.entry.exact;
    ranked.resolution = u.resolution;
    top.push_back(ranked);
  }
  std::sort(top.begin(), top.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              return biorank::serve::RanksBefore(a, b);
            });
  if (static_cast<int>(top.size()) > k) top.resize(static_cast<size_t>(k));
  ReleaseTraced(trace, "core.release", uniques);
  ReleaseTraced(trace, "core.release", canonicals);
  return top;
}

Result<RefinementState> ComposePrepareAnytime(RankingService& service,
                                              const QueryGraph& graph,
                                              int top_k, RequestTrace& trace) {
  ScopedSpan prepare(trace, "serve.prepare_anytime");
  const int parent = prepare.index();
  const std::vector<NodeId>& targets = graph.answers;
  RefinementState state;
  state.k = std::min(top_k, static_cast<int>(targets.size()));
  state.stats.candidates = static_cast<int>(targets.size());
  if (targets.empty()) return state;
  state.nodes = targets;

  BIORANK_RETURN_IF_ERROR(
      Canonicalize(service, graph, targets, state.canonicals, trace, parent));
  const std::vector<PreparedCandidate> prepared =
      Prepare(targets, state.canonicals);
  {
    ScopedSpan span(trace, "serve.cache_bounds", parent);
    BIORANK_RETURN_IF_ERROR(service.BuildUniqueStates(
        prepared, state.uniques, state.unique_index, state.stats));
  }
  {
    ScopedSpan span(trace, "serve.prune", parent);
    state.threshold =
        service.ClassifySurvivors(state.unique_index, state.uniques, state.k,
                                  state.stats, state.refinable);
  }
  trace.Count("serve.survivors", static_cast<double>(state.refinable.size()));
  {
    ScopedSpan span(trace, "serve.publish", parent);
    service.PublishEntries(state.uniques);
  }
  return state;
}

Status ComposeRefineIncrement(RankingService& service, RefinementState& state,
                              int64_t trial_budget, RequestTrace& trace) {
  ScopedSpan increment(trace, "serve.refine_increment");
  const int parent = increment.index();
  trace.Count("serve.increments", 1);
  const bool use_cache = service.options().enable_cache;
  std::vector<int> still;
  still.reserve(state.refinable.size());
  for (int ui : state.refinable) {
    UniqueState& u = state.uniques[static_cast<size_t>(ui)];
    bool adopted = false;
    if (use_cache && !u.entry.has_value) {
      std::optional<biorank::serve::CacheEntry> got =
          service.cache().Get(u.canonical->key);
      if (got.has_value() &&
          (got->has_value || got->trials > u.entry.trials)) {
        u.entry = *got;
        if (u.entry.has_value) {
          u.resolution = Resolution::kCacheValue;
          ++state.stats.cache_hits;
          adopted = true;
        }
      }
    }
    if (!u.entry.has_value) {
      ScopedSpan span(trace, "serve.exact", parent);
      BIORANK_RETURN_IF_ERROR(service.TryResolveExact(u));
    }
    if (!u.entry.has_value) {
      ScopedSpan span(trace, "serve.mc", parent);
      const int64_t spent_before = u.trials_spent;
      BIORANK_RETURN_IF_ERROR(service.AdvanceMonteCarlo(u, trial_budget));
      state.stats.mc_trials += u.trials_spent - spent_before;
    }
    if (use_cache && !adopted) {
      ScopedSpan span(trace, "serve.publish", parent);
      service.cache().Put(u.canonical->key, u.entry);
    }
    if (u.entry.has_value) {
      if (u.resolution == Resolution::kExact) {
        ++state.stats.exact;
      } else if (u.resolution == Resolution::kMonteCarlo) {
        ++state.stats.monte_carlo;
      }
    } else {
      still.push_back(ui);
    }
  }
  state.refinable.swap(still);
  return Status::OK();
}

}  // namespace perfbench
