#include <filesystem>

#include "workloads.h"

namespace perfbench {

namespace {

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

}  // namespace

std::vector<double> EndToEnd::SliceCpuMs() const {
  std::vector<double> slices;
  for (size_t i = 1; i < cpu_marks.size(); ++i) {
    const size_t done = cpu_marks[i].completed - cpu_marks[i - 1].completed;
    if (done == 0) continue;
    slices.push_back(1e3 * (cpu_marks[i].cpu_s - cpu_marks[i - 1].cpu_s) /
                     static_cast<double>(done));
  }
  return slices;
}

double EndToEnd::CpuMsPerRequest() const { return Median(SliceCpuMs()); }

double EndToEnd::SetUpCpuS() const {
  std::vector<double> seconds;
  for (const SetUpTime& t : setups) seconds.push_back(t.cpu_s);
  return Median(seconds);
}

double EndToEnd::SetUpWallS() const {
  std::vector<double> seconds;
  for (const SetUpTime& t : setups) seconds.push_back(t.wall_s);
  return Median(seconds);
}

void AddEndToEnd(const EndToEnd& e2e, RunResult& result) {
  if (e2e.samples.empty()) {
    result.failures.push_back("no request completed in the window");
  }
  if (e2e.SliceCpuMs().empty()) {
    result.failures.push_back("no CPU slice completed in the window");
  }
  result.metrics = {
      {"setup_s", e2e.SetUpCpuS(), "s"},
      {"cpu_ms_per_request", e2e.CpuMsPerRequest(), "ms"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MiB"},
  };
}

std::vector<Metric> BaseReport(const EndToEnd& e2e, const RunResult& result) {
  return {
      {"setup_s", e2e.SetUpCpuS(), "s"},
      {"setup_wall_s", e2e.SetUpWallS(), "s"},
      {"throughput_rps", e2e.ThroughputRps(), "1/s"},
      {"cpu_ms_per_request", e2e.CpuMsPerRequest(), "ms"},
      {"error_rate",
       Ratio(static_cast<double>(result.failed),
             static_cast<double>(result.attempted)),
       "ratio"},
      {"peak_rss_mb", e2e.peak_rss_mb, "MiB"},
  };
}

void AddLayerMetrics(const TraceSummary& s, const TraceExtras& x,
                     RunResult& result) {
  const double mc_s = s.layers.count("serve.mc") != 0
                          ? s.layers.at("serve.mc").total_ms / 1e3
                          : 0.0;
  const double unattributed_share = Ratio(s.unattributed_ms, s.request_ms);
  result.metrics = {
      {"api.queue_ms", s.MsPerRequest("api.queue"), "ms"},
      {"integrate.run_ms", s.MsPerRequest("integrate.run"), "ms"},
      {"integrate.graph_nodes", s.PerRequest("integrate.graph_nodes"),
       "count"},
      {"integrate.graph_edges", s.PerRequest("integrate.graph_edges"),
       "count"},
      {"core.validate_ms", s.MsPerRequest("core.validate"), "ms"},
      {"core.csr_build_ms", s.MsPerRequest("core.csr_build"), "ms"},
      {"core.release_ms", s.MsPerRequest("core.release"), "ms"},
      {"serve.canonicalize_ms", s.MsPerRequest("serve.canonicalize"), "ms"},
      {"serve.candidates", s.PerRequest("serve.candidates"), "count"},
      {"core.reduce.removed_fraction",
       Ratio(s.Sum("core.reduce.removed"), s.Sum("core.reduce.before")),
       "ratio"},
      {"serve.canonical_edges",
       Ratio(s.Sum("serve.canonical_edges"), s.Sum("serve.canonicalized")),
       "count"},
      {"serve.cache_bounds_ms", s.MsPerRequest("serve.cache_bounds"), "ms"},
      {"serve.unique_keys", s.PerRequest("serve.unique_keys"), "count"},
      {"serve.cache_hit_rate",
       Ratio(s.Sum("serve.cache_hits"),
             s.Sum("serve.cache_hits") + s.Sum("serve.cache_misses")),
       "ratio"},
      {"serve.prune_ms", s.MsPerRequest("serve.prune"), "ms"},
      {"serve.pruned_fraction",
       Ratio(s.Sum("serve.pruned"), s.Sum("serve.gated")), "ratio"},
      {"serve.survivors", s.PerRequest("serve.survivors"), "count"},
      {"serve.exact_ms", s.MsPerRequest("serve.exact"), "ms"},
      {"serve.exact_resolutions", s.PerRequest("serve.exact_resolutions"),
       "count"},
      {"serve.mc_ms", s.MsPerRequest("serve.mc"), "ms"},
      {"serve.mc_trials", s.PerRequest("serve.mc_trials"), "count"},
      {"serve.mc_trials_per_s", Ratio(s.Sum("serve.mc_trials"), mc_s), "1/s"},
      {"serve.prepare_anytime_ms", s.MsPerRequest("serve.prepare_anytime"),
       "ms"},
      {"serve.refine_increment_ms", s.MsPerRequest("serve.refine_increment"),
       "ms"},
      {"serve.increments_per_request", s.PerRequest("serve.increments"),
       "count"},
      {"serve.publish_ms", s.MsPerRequest("serve.publish"), "ms"},
      {"serve.rank_prepared_ms", s.MsPerRequest("serve.rank_prepared"), "ms"},
      {"ingest.apply_ms", s.MsPerRequest("ingest.apply"), "ms"},
      {"ingest.dirty_answers", s.PerRequest("ingest.dirty_answers"), "count"},
      {"ingest.clean_answers", s.PerRequest("ingest.clean_answers"), "count"},
      {"ingest.invalidated_entries",
       s.PerRequest("ingest.invalidated_entries"), "count"},
      {"storage.wal_append_ms", s.MsPerRequest("storage.wal_append"), "ms"},
      {"storage.wal_bytes_per_delta",
       Ratio(s.Sum("storage.wal_bytes"), s.Sum("storage.wal_records")), "B"},
      {"storage.wal_records", s.Sum("storage.wal_records"), "count"},
      {"storage.wal_syncs", s.Sum("storage.wal_syncs"), "count"},
      {"storage.checkpoint_ms", s.MsPerRequest("storage.checkpoint"), "ms"},
      {"storage.checkpoint_bytes", s.PerRequest("storage.checkpoint_bytes"),
       "B"},
      {"storage.replayed_records", x.replayed_records, "count"},
      {"storage.cache_entries_restored", x.cache_entries_restored, "count"},
      {"unattributed_ms", Ratio(s.unattributed_ms,
                                static_cast<double>(s.requests)),
       "ms"},
      {"unattributed_share", unattributed_share, "ratio"},
      {"trace.request_ms",
       Ratio(s.request_ms, static_cast<double>(s.requests)), "ms"},
      {"trace.throughput_rps", x.traced_rps, "1/s"},
      {"trace.untraced_throughput_rps", x.untraced_rps, "1/s"},
      {"trace.throughput_ratio", Ratio(x.traced_rps, x.untraced_rps),
       "ratio"},
  };
  if (unattributed_share > 0.10) {
    result.failures.push_back(
        "unattributed time is " + std::to_string(unattributed_share) +
        " of traced request time (limit 0.10)");
  }
}

void FinishTrace(const RunConfig& config, const TraceLog& log,
                 const TraceExtras& extras, RunResult& result) {
  const TraceSummary summary = Fold(log);
  std::filesystem::create_directories(config.out_dir);
  WriteSpans(config.out_dir + "/spans-" + config.workload + ".jsonl", log,
             summary);
  AddLayerMetrics(summary, extras, result);
}

}  // namespace perfbench
