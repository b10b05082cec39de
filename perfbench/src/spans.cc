#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <fstream>
#include <limits>
#include <utility>

namespace perfbench {

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Length of the union of `intervals`, each clipped to [lo, hi].
int64_t CoveredNs(std::vector<std::pair<int64_t, int64_t>> intervals,
                  int64_t lo, int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  int64_t covered = 0;
  int64_t cursor = lo;
  for (auto [start, end] : intervals) {
    start = std::max(start, cursor);
    end = std::min(end, hi);
    if (end > start) {
      covered += end - start;
      cursor = end;
    }
  }
  return covered;
}

}  // namespace

RequestTrace::RequestTrace(uint64_t id, const char* root_name) : id_(id) {
  spans_.reserve(4);
  Span root;
  root.name = root_name;
  root.start_ns = NowNs();
  spans_.push_back(root);
}

int RequestTrace::Begin(const char* name, int parent) {
  Span span;
  span.name = name;
  span.parent = parent;
  span.start_ns = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
  return static_cast<int>(spans_.size()) - 1;
}

void RequestTrace::End(int index) {
  const int64_t now = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<size_t>(index)].end_ns = now;
}

void RequestTrace::Count(const char* name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [counter, sum] : counters_) {
    if (std::strcmp(counter, name) == 0) {
      sum += value;
      return;
    }
  }
  counters_.emplace_back(name, value);
}

double TraceSummary::MsPerRequest(const std::string& name) const {
  auto it = layers.find(name);
  if (it == layers.end() || it->second.requests == 0) return 0.0;
  return it->second.total_ms / static_cast<double>(it->second.requests);
}

double TraceSummary::PerRequest(const std::string& name) const {
  auto it = counters.find(name);
  if (it == counters.end()) return 0.0;
  return it->second / static_cast<double>(counter_requests.at(name));
}

double TraceSummary::Sum(const std::string& name) const {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

TraceSummary Fold(const TraceLog& log) {
  TraceSummary summary;
  for (const auto& trace : log) {
    const std::vector<Span>& spans = trace->spans();
    std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
        spans.size());
    for (const Span& span : spans) {
      if (span.parent >= 0) {
        children[static_cast<size_t>(span.parent)].emplace_back(span.start_ns,
                                                                span.end_ns);
      }
    }
    std::map<std::string, bool> seen;
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      const int64_t duration = span.end_ns - span.start_ns;
      const int64_t self =
          duration - CoveredNs(children[i], span.start_ns, span.end_ns);
      if (i == 0) {
        summary.request_ms += static_cast<double>(duration) * 1e-6;
        summary.unattributed_ms += static_cast<double>(self) * 1e-6;
        continue;
      }
      LayerTime& layer = summary.layers[span.name];
      layer.total_ms += static_cast<double>(duration) * 1e-6;
      layer.self_ms += static_cast<double>(self) * 1e-6;
      ++layer.spans;
      if (!seen[span.name]) {
        seen[span.name] = true;
        ++layer.requests;
      }
    }
    for (const auto& [name, value] : trace->counters()) {
      summary.counters[name] += value;
      ++summary.counter_requests[name];
    }
    ++summary.requests;
  }
  return summary;
}

void WriteSpans(const std::string& path, const TraceLog& log,
                const TraceSummary& summary) {
  std::ofstream out(path, std::ios::trunc);
  int64_t origin = std::numeric_limits<int64_t>::max();
  for (const auto& trace : log) {
    if (!trace->spans().empty()) {
      origin = std::min(origin, trace->spans().front().start_ns);
    }
  }
  for (const auto& trace : log) {
    const std::vector<Span>& spans = trace->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& span = spans[i];
      out << "{\"request\":" << trace->id() << ",\"span\":" << i
          << ",\"name\":\"" << span.name << "\",\"parent\":" << span.parent
          << ",\"start_us\":" << (span.start_ns - origin) / 1000
          << ",\"end_us\":" << (span.end_ns - origin) / 1000 << "}\n";
    }
  }
  for (const auto& [name, layer] : summary.layers) {
    out << "{\"layer\":\"" << name << "\",\"total_ms\":" << layer.total_ms
        << ",\"self_ms\":" << layer.self_ms << ",\"spans\":" << layer.spans
        << ",\"requests\":" << layer.requests << "}\n";
  }
  out << "{\"layer\":\"unattributed\",\"self_ms\":" << summary.unattributed_ms
      << ",\"request_ms\":" << summary.request_ms
      << ",\"requests\":" << summary.requests << "}\n";
}

}  // namespace perfbench
