// The benchmark's load generator. One process generates every input from
// --seed, runs one workload against api::Server, checks its outputs, and
// prints a table of named metrics followed by one JSON result line:
//
//   perfbench_load --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 measures the end-to-end metrics with tracing off; --trace 1
// runs the traced pass and reports per-layer metrics. A failed check
// prints "correct": false and exits 1.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workloads.h"

namespace {

using perfbench::RunConfig;
using perfbench::RunResult;

int Usage(const std::string& problem) {
  std::cerr << "perfbench_load: " << problem
            << "\nusage: perfbench_load --workload "
               "<protein_repeat|irreducible_anytime|session_deltas_durable> "
               "--seed <n> --seconds <s> --trace <0|1> [--out-dir <dir>]\n";
  return 2;
}

std::string Number(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        config.workload = value;
      } else if (flag == "--seed") {
        config.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        config.seconds = std::stod(value);
      } else if (flag == "--trace") {
        config.trace = value == "1";
      } else if (flag == "--out-dir") {
        config.out_dir = value;
      } else {
        return Usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return Usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(config.seconds > 0.0)) return Usage("--seconds must be positive");

  RunResult result;
  try {
    if (config.workload == "protein_repeat") {
      result = perfbench::RunProteinRepeat(config);
    } else if (config.workload == "irreducible_anytime") {
      result = perfbench::RunIrreducibleAnytime(config);
    } else if (config.workload == "session_deltas_durable") {
      result = perfbench::RunSessionDeltasDurable(config);
    } else {
      return Usage("unknown workload '" + config.workload + "'");
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_load: " << e.what() << "\n";
    return 1;
  }

  std::cout << "# workload " << config.workload << ", seed " << config.seed
            << ", " << config.seconds << " s, trace " << config.trace
            << ", input digest " << std::hex << result.input_digest
            << std::dec << "\n";
  for (const auto* metrics : {&result.report, &result.metrics}) {
    for (const perfbench::Metric& m : *metrics) {
      std::printf("%-34s %16.4f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }
  for (const perfbench::Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) {
      result.failures.push_back(m.name + " is not finite");
    }
  }
  for (const std::string& failure : result.failures) {
    std::cerr << "CHECK FAILED: " << failure << "\n";
  }
  const bool correct = result.failures.empty();
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(result.attempted) +
                     ", \"failed\": " + std::to_string(result.failed) +
                     ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const perfbench::Metric& m = result.metrics[i];
    line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " +
            Number(std::isfinite(m.value) ? m.value : 0.0) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::cout << line << std::endl;
  return correct ? 0 : 1;
}
