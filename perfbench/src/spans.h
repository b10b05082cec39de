// Request-scoped spans for the traced run. Every span is recorded here,
// in the benchmark, around a call into one layer's public function; the
// library itself is not instrumented. Spans stay in memory until the run
// ends, then are folded into per-layer times and written out as JSON
// lines.

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// One timed interval. `parent` indexes the request's span list; the
/// root (index 0) has parent -1.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;
};

/// The spans and work counters of one request. Begin/End are
/// thread-safe, so pool threads resolving the request's candidates can
/// record under it.
class RequestTrace {
 public:
  /// Opens the root span (index 0), which covers the whole request.
  RequestTrace(uint64_t id, const char* root_name);
  RequestTrace(const RequestTrace&) = delete;
  RequestTrace& operator=(const RequestTrace&) = delete;

  int Begin(const char* name, int parent = 0);
  void End(int index);
  /// Closes the root span.
  void Finish() { End(0); }

  /// Adds `value` to the request's counter `name` (a string literal).
  void Count(const char* name, double value);

  uint64_t id() const { return id_; }
  const std::vector<Span>& spans() const { return spans_; }
  const std::vector<std::pair<const char*, double>>& counters() const {
    return counters_;
  }

 private:
  uint64_t id_;
  std::mutex mu_;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, double>> counters_;
};

/// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(RequestTrace& trace, const char* name, int parent = 0)
      : trace_(trace), index_(trace.Begin(name, parent)) {}
  ~ScopedSpan() { trace_.End(index_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  int index() const { return index_; }

 private:
  RequestTrace& trace_;
  int index_;
};

/// Runs `fn()` under a span and returns its result.
template <typename Fn>
auto Traced(RequestTrace& trace, const char* name, Fn fn, int parent = 0) {
  ScopedSpan span(trace, name, parent);
  return fn();
}

/// Frees `value` under a span: the destructors of the graphs a request
/// built are library work too.
template <typename T>
void ReleaseTraced(RequestTrace& trace, const char* name, T& value) {
  ScopedSpan span(trace, name);
  T released = std::move(value);
}

using TraceLog = std::vector<std::unique_ptr<RequestTrace>>;

/// Per span name, summed over the requests that recorded it.
struct LayerTime {
  double total_ms = 0.0;  ///< Summed span durations.
  double self_ms = 0.0;   ///< Durations minus the time child spans cover.
  int64_t requests = 0;   ///< Requests with at least one such span.
  int64_t spans = 0;
};

/// A whole traced run folded by span name.
struct TraceSummary {
  int64_t requests = 0;
  double request_ms = 0.0;       ///< Summed root durations.
  double unattributed_ms = 0.0;  ///< Summed root self time.
  std::map<std::string, LayerTime> layers;  ///< Root excluded.
  /// Counter sums and the number of requests that reported each.
  std::map<std::string, double> counters;
  std::map<std::string, int64_t> counter_requests;

  /// Mean per request that recorded the span (0 when none did).
  double MsPerRequest(const std::string& name) const;
  /// Mean of a counter per request that reported it (0 when none did).
  double PerRequest(const std::string& name) const;
  /// Counter sum (0 when absent).
  double Sum(const std::string& name) const;
};

TraceSummary Fold(const TraceLog& log);

/// Writes every span as one JSON object per line (times in microseconds
/// from the first span of the run) followed by one summary line per
/// layer with its total and self time.
void WriteSpans(const std::string& path, const TraceLog& log,
                const TraceSummary& summary);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
