// The traced request paths, recomposed from each layer's public
// functions so that a span can sit around every call. They mirror
// serve::RankingService::RankTopK, serve::PrepareAnytime and
// serve::RefineIncrement step for step; the traced run checks that their
// rankings are bit-identical to api::Server's, so any drift between this
// file and the library fails the run instead of skewing the numbers.

#ifndef PERFBENCH_COMPOSE_H_
#define PERFBENCH_COMPOSE_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/query_graph.h"
#include "serve/ranking_service.h"
#include "serve/refinement.h"
#include "spans.h"
#include "util/status.h"

namespace perfbench {

/// Blocking top-k of every answer of `graph`: validate, CSR build,
/// canonicalize, cache lookup + bounds, prune, exact/MC resolve,
/// publish, rank. Records one span per step under `trace`'s root and the
/// scheduler counters on `trace`.
biorank::Result<std::vector<biorank::serve::RankedCandidate>> ComposeBlocking(
    biorank::serve::RankingService& service, const biorank::QueryGraph& graph,
    int top_k, RequestTrace& trace);

/// The deterministic prefix of an anytime ranking (no factoring, no MC),
/// under one "serve.prepare_anytime" span with a child span per step.
biorank::Result<biorank::serve::RefinementState> ComposePrepareAnytime(
    biorank::serve::RankingService& service, const biorank::QueryGraph& graph,
    int top_k, RequestTrace& trace);

/// One refinement increment of every open survivor by `trial_budget` MC
/// trials, under one "serve.refine_increment" span with exact, MC and
/// publish child spans per survivor.
biorank::Status ComposeRefineIncrement(biorank::serve::RankingService& service,
                                       biorank::serve::RefinementState& state,
                                       int64_t trial_budget,
                                       RequestTrace& trace);

/// (node, reliability) of each ranked candidate, as
/// api::RankingFingerprint gives them for a response.
Fingerprint FingerprintOf(
    const std::vector<biorank::serve::RankedCandidate>& top);

/// Records a finished request's scheduler counters on `trace`;
/// `unique_keys` < 0 means the caller does not know it.
void CountStats(const biorank::serve::RequestStats& stats, int unique_keys,
                RequestTrace& trace);

}  // namespace perfbench

#endif  // PERFBENCH_COMPOSE_H_
