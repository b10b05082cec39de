// Shared plumbing of the end-to-end benchmark: run configuration, the
// result every workload returns, latency statistics, seeded input
// helpers, and the per-run scratch directory.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/graph.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command-line settings of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for the span dump and the per-run
  /// storage directories; created on demand.
  std::string out_dir = ".bench_build/perfbench/out";
};

/// One named measurement with its unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload run reports. `metrics` is the contract line (the
/// end-to-end set untraced, the per-layer set traced); `report` is the
/// workload's own named metrics, printed as a table before the result
/// line. Any entry in `failures` marks the run incorrect.
struct RunResult {
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<Metric> report;
  std::vector<std::string> failures;
  /// Hash of every generated input; equal seeds must give equal digests.
  uint64_t input_digest = 0;
};

double SecondsBetween(Clock::time_point a, Clock::time_point b);
double MsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile of `values` (q in (0,1]). Records a failure
/// in `result` when fewer than ten samples lie above the percentile,
/// because such a tail is not measured, only guessed.
double Percentile(std::vector<double> values, double q,
                  const std::string& name, RunResult& result);

double Median(std::vector<double> values);

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// CPU time this process has used so far, all threads, user and system,
/// in seconds. Time the host steals from the virtual CPUs and time spent
/// waiting for the disk are not in it.
double ProcessCpuSeconds();

/// (node, reliability) pairs: the bit-identity fingerprint of a ranking.
using Fingerprint = std::vector<std::pair<biorank::NodeId, double>>;

/// FNV-1a folding of arbitrary 64-bit words into an input digest.
uint64_t MixDigest(uint64_t digest, uint64_t word);
uint64_t MixDigest(uint64_t digest, double value);

/// Zipf(s) sampler over ranks [0, n): rank r has weight 1 / (r+1)^s.
class Zipf {
 public:
  Zipf(int n, double s);
  /// Maps a uniform draw in [0,1) to a rank.
  int Rank(double uniform) const;

 private:
  std::vector<double> cdf_;
};

/// A fresh, empty directory under `parent` that is removed (with its
/// contents) when the object dies.
class ScratchDir {
 public:
  ScratchDir(const std::string& parent, const std::string& stem);
  ~ScratchDir();
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// Process CPU and wall-clock seconds that one set-up took.
struct SetUpTime {
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Runs `set_up()` (which returns the system it built) at least
/// kMinSetups times and until kMinSetupSeconds have passed, appending
/// each one's times to `times`; returns the last system built. Tiny
/// set-ups repeat often enough that their median is measured, not
/// sampled.
constexpr int kMinSetups = 3;
constexpr double kMinSetupSeconds = 2.0;
template <typename SetUpFn>
auto RepeatSetUp(SetUpFn set_up, std::vector<SetUpTime>& times) {
  const Clock::time_point first = Clock::now();
  decltype(set_up()) built;
  for (int i = 0; i < kMinSetups ||
                  SecondsBetween(first, Clock::now()) < kMinSetupSeconds;
       ++i) {
    built = decltype(set_up())();
    const Clock::time_point start = Clock::now();
    const double cpu_start = ProcessCpuSeconds();
    built = set_up();
    times.push_back({ProcessCpuSeconds() - cpu_start,
                     SecondsBetween(start, Clock::now())});
  }
  return built;
}

/// Calls `fn(client)` on `clients` threads and joins them all.
template <typename Fn>
void RunClients(int clients, Fn fn) {
  std::vector<std::thread> threads;
  threads.reserve(static_cast<size_t>(clients));
  for (int c = 0; c < clients; ++c) threads.emplace_back(fn, c);
  for (std::thread& t : threads) t.join();
}

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
