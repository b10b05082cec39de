#include "common.h"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <unistd.h>

namespace perfbench {

double SecondsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

double Percentile(std::vector<double> values, double q,
                  const std::string& name, RunResult& result) {
  if (values.empty()) {
    result.failures.push_back(name + ": no samples");
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::min(std::max<size_t>(rank, 1), n);
  if (n - rank < 10) {
    result.failures.push_back(name + ": only " + std::to_string(n - rank) +
                              " of " + std::to_string(n) +
                              " samples lie beyond the percentile (need 10)");
  }
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

double ProcessCpuSeconds() {
  timespec now{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &now);
  return static_cast<double>(now.tv_sec) + 1e-9 * static_cast<double>(now.tv_nsec);
}

uint64_t MixDigest(uint64_t digest, uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    digest ^= (word >> (8 * i)) & 0xFF;
    digest *= 0x100000001B3ULL;
  }
  return digest;
}

uint64_t MixDigest(uint64_t digest, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(bits));
  return MixDigest(digest, bits);
}

Zipf::Zipf(int n, double s) {
  cdf_.reserve(static_cast<size_t>(n));
  double total = 0.0;
  for (int r = 0; r < n; ++r) {
    total += 1.0 / std::pow(static_cast<double>(r + 1), s);
    cdf_.push_back(total);
  }
  for (double& c : cdf_) c /= total;
}

int Zipf::Rank(double uniform) const {
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), uniform);
  if (it == cdf_.end()) --it;
  return static_cast<int>(it - cdf_.begin());
}

ScratchDir::ScratchDir(const std::string& parent, const std::string& stem) {
  namespace fs = std::filesystem;
  fs::create_directories(parent);
  for (int attempt = 0;; ++attempt) {
    fs::path candidate = fs::path(parent) /
                         (stem + "-" + std::to_string(getpid()) + "-" +
                          std::to_string(attempt));
    if (fs::create_directory(candidate)) {
      path_ = candidate.string();
      return;
    }
    if (attempt > 1000) {
      throw std::runtime_error("cannot create a scratch directory under " +
                               parent);
    }
  }
}

ScratchDir::~ScratchDir() {
  std::error_code ignored;
  std::filesystem::remove_all(path_, ignored);
}

}  // namespace perfbench
