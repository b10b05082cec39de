// The benchmark's workloads. Each runs closed-loop clients against
// api::Server with default ServerOptions for the measured window (or,
// traced, an untraced and a traced pass over the same fixed request
// list), checks the outputs, and returns its metrics.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <vector>

#include "common.h"
#include "spans.h"

namespace perfbench {

RunResult RunProteinRepeat(const RunConfig& config);
RunResult RunIrreducibleAnytime(const RunConfig& config);
RunResult RunSessionDeltasDurable(const RunConfig& config);

/// One completed request of the measured window.
struct Sample {
  double latency_ms = 0.0;  ///< Sent to final answer.
  double first_ms = 0.0;    ///< Sent to first ranking (== latency if blocking).
};

/// The end-to-end metric set shared by every workload: set-up CPU time,
/// CPU time per completed request, and peak memory. Wall-clock throughput
/// and latencies are in each workload's report, not in this set: on a
/// shared virtual machine the host steals CPU from its guests and the
/// disk stalls, which moves wall-clock figures between runs of the same
/// code further than the bound a regression gate may allow, while the
/// process's own CPU time leaves both out.
struct EndToEnd {
  /// Process CPU time at the end of a slice of the window's work, and the
  /// requests completed by then.
  struct CpuMark {
    double cpu_s = 0.0;
    size_t completed = 0;
  };
  std::vector<SetUpTime> setups;
  std::vector<Sample> samples;
  Clock::time_point start;
  double elapsed_s = 0.0;
  double peak_rss_mb = 0.0;
  /// Open() sets the first mark; the workload adds one after each slice.
  std::vector<CpuMark> cpu_marks;

  Sample Make(Clock::time_point sent, Clock::time_point first,
              Clock::time_point done) const {
    return {MsBetween(sent, done), MsBetween(sent, first)};
  }
  /// Opens the window now; returns when it closes.
  Clock::time_point Open(double seconds) {
    start = Clock::now();
    cpu_marks = {{ProcessCpuSeconds(), 0}};
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(seconds));
  }
  /// Ends a slice: `completed` requests have completed since Open().
  void MarkCpu(size_t completed) {
    cpu_marks.push_back({ProcessCpuSeconds(), completed});
  }
  /// Closes the window: elapsed wall time and peak memory.
  void Close() {
    elapsed_s = SecondsBetween(start, Clock::now());
    peak_rss_mb = PeakRssMb();
  }
  /// Completions per second of wall time.
  double ThroughputRps() const {
    return elapsed_s > 0.0 ? static_cast<double>(samples.size()) / elapsed_s
                           : 0.0;
  }
  /// Process CPU milliseconds per completed request, for each slice.
  std::vector<double> SliceCpuMs() const;
  /// Process CPU milliseconds per completed request over the slices.
  double CpuMsPerRequest() const;
  /// Median process CPU and wall-clock seconds of the set-ups.
  double SetUpCpuS() const;
  double SetUpWallS() const;
};

/// Sets the end-to-end metrics of `result` from `e2e`.
void AddEndToEnd(const EndToEnd& e2e, RunResult& result);

/// The report lines every workload starts with: set-up, throughput, CPU
/// time per request, error rate and peak memory.
std::vector<Metric> BaseReport(const EndToEnd& e2e, const RunResult& result);

/// Values of the traced run that do not come from spans.
struct TraceExtras {
  double traced_rps = 0.0;
  double untraced_rps = 0.0;
  double replayed_records = 0.0;
  double cache_entries_restored = 0.0;
};

/// Every per-layer metric, in BENCHMARK.json order; layers a workload
/// does not call read 0. Also fails the run when unattributed time
/// exceeds a tenth of traced request time.
void AddLayerMetrics(const TraceSummary& summary, const TraceExtras& extras,
                     RunResult& result);

/// Folds `log`, writes the span dump for this run, and adds the
/// per-layer metrics.
void FinishTrace(const RunConfig& config, const TraceLog& log,
                 const TraceExtras& extras, RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
