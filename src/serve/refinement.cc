#include "serve/refinement.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "core/csr_snapshot.h"
#include "obs/trace.h"

namespace biorank::serve {

Result<RefinementState> PrepareAnytime(RankingService& service,
                                       const QueryGraph& graph,
                                       const std::vector<NodeId>& targets,
                                       int k) {
  BIORANK_RETURN_IF_ERROR(graph.Validate());
  if (k < 1) return Status::InvalidArgument("serve: k must be >= 1");
  if (service.McTrialsPerCandidate() <= 0) {
    return Status::InvalidArgument(
        "serve: mc_epsilon must be in (0,1] and mc_delta in (0,1)");
  }
  if (&targets != &graph.answers) {
    BIORANK_RETURN_IF_ERROR(RankingService::ValidateTargets(graph, targets));
  }

  RefinementState state;
  state.k = std::min(k, static_cast<int>(targets.size()));
  state.stats.candidates = static_cast<int>(targets.size());
  if (targets.empty()) return state;
  state.nodes = targets;

  // Phase 1 — canonicalize (same fan-out as the blocking RankTopK; one
  // flat snapshot serves every target's restriction traversal).
  const CsrSnapshot request_csr = BuildCsrSnapshot(graph.graph);
  BIORANK_RETURN_IF_ERROR(service.CanonicalizeTargets(
      graph, targets, service.options().canonicalize, state.canonicals,
      &request_csr));
  std::vector<PreparedCandidate> prepared(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    prepared[i].node = targets[i];
    prepared[i].canonical = &state.canonicals[i];
  }

  // Phases 2–5 — the deterministic prefix, shared verbatim with the
  // blocking pipeline. No factoring, no Monte Carlo.
  BIORANK_RETURN_IF_ERROR(service.BuildUniqueStates(
      prepared, state.uniques, state.unique_index, state.stats));
  state.threshold = service.ClassifySurvivors(
      state.unique_index, state.uniques, state.k, state.stats,
      state.refinable);

  // Phase 7 — bounds (and free bound-exact closures) are worth caching
  // even if this handle is never refined: the next request on an
  // isomorphic key skips straight to the prune gate.
  service.PublishEntries(state.uniques);
  return state;
}

Result<Completeness> RefineIncrement(
    RankingService& service, RefinementState& state, int64_t trial_budget,
    std::chrono::steady_clock::time_point deadline) {
  const bool use_cache = service.options().enable_cache;
  obs::SpanScope span(obs::CurrentTrace(), "serve.refine_increment");
  const int64_t trials_before = state.stats.mc_trials;
  std::vector<int> still;
  still.reserve(state.refinable.size());
  for (size_t idx = 0; idx < state.refinable.size(); ++idx) {
    const int ui = state.refinable[idx];
    UniqueState& u = state.uniques[static_cast<size_t>(ui)];
    // The deadline is checked between survivors, never mid-shard: an
    // increment that fires the deadline leaves a clean trials-so-far
    // position, and whatever schedule of increments eventually covers
    // the plan converges to the same integer sum.
    if (std::chrono::steady_clock::now() >= deadline) {
      still.push_back(ui);
      continue;
    }

    bool adopted = false;
    if (use_cache && !u.entry.has_value) {
      // Adopt progress another handle (or a blocking request) published
      // for this key. Values and tallies are pure functions of
      // (canonical key, seed, trials), so adopting never changes the
      // converged answer — it only skips coin flips already flipped.
      std::optional<CacheEntry> got = service.cache().Get(u.canonical->key);
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
      const int64_t calls_before = u.factoring_calls;
      BIORANK_RETURN_IF_ERROR(service.TryResolveExact(u));
      state.stats.factoring_calls += u.factoring_calls - calls_before;
    }
    if (!u.entry.has_value) {
      const int64_t spent_before = u.trials_spent;
      const int64_t words_before = u.words_spent;
      BIORANK_RETURN_IF_ERROR(service.AdvanceMonteCarlo(u, trial_budget));
      state.stats.mc_trials += u.trials_spent - spent_before;
      state.stats.mc_words += u.words_spent - words_before;
    }
    if (use_cache && !adopted) {
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
  span.Counter("trials", state.stats.mc_trials - trials_before);
  span.Counter("open", static_cast<int64_t>(state.refinable.size()));
  return Summarize(state);
}

std::vector<RankedCandidate> CurrentRanking(const RefinementState& state) {
  std::vector<RankedCandidate> top;
  top.reserve(state.nodes.size());
  for (size_t ci = 0; ci < state.nodes.size(); ++ci) {
    const UniqueState& u =
        state.uniques[static_cast<size_t>(state.unique_index[ci])];
    RankedCandidate ranked;
    ranked.node = state.nodes[ci];
    if (u.entry.has_value) {
      ranked.reliability = u.entry.value;
      ranked.lower = u.entry.exact ? u.entry.value : u.entry.lower;
      ranked.upper = u.entry.exact ? u.entry.value : u.entry.upper;
      ranked.exact = u.entry.exact;
      ranked.resolution = u.resolution;
    } else if (u.resolution == Resolution::kPruned) {
      continue;  // Provably outside the top k at any final value.
    } else {
      // Open bracket: rank on the midpoint so callers get a best-guess
      // order; the bracket itself rides along for the honest answer.
      ranked.reliability = 0.5 * (u.entry.lower + u.entry.upper);
      ranked.lower = u.entry.lower;
      ranked.upper = u.entry.upper;
      ranked.exact = false;
      ranked.resolution = Resolution::kRefining;
    }
    top.push_back(ranked);
  }
  std::sort(top.begin(), top.end(),
            [](const RankedCandidate& a, const RankedCandidate& b) {
              return RanksBefore(a, b);
            });
  if (static_cast<int>(top.size()) > state.k) {
    top.resize(static_cast<size_t>(state.k));
  }
  return top;
}

Completeness Summarize(const RefinementState& state) {
  Completeness summary;
  for (size_t ci = 0; ci < state.nodes.size(); ++ci) {
    const UniqueState& u =
        state.uniques[static_cast<size_t>(state.unique_index[ci])];
    if (u.entry.has_value) {
      ++summary.resolved;
    } else if (u.resolution == Resolution::kPruned) {
      ++summary.bounded;
    } else {
      ++summary.refining;
      summary.widest_bracket =
          std::max(summary.widest_bracket, u.entry.upper - u.entry.lower);
    }
  }
  summary.complete = summary.refining == 0;
  return summary;
}

}  // namespace biorank::serve
