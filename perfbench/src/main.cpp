// hcrf_perfbench: the repository benchmark.
//
//   hcrf_perfbench --workload <repro-cold|serve-hot|serve-contended>
//                  --seed <n> --seconds <s> --trace <0|1>
//   hcrf_perfbench --self-test
//
// Prints a host header, a human-readable report (every metric by name,
// unit and sample count) and, as the last line of standard output, one
// JSON object: {"correct", "attempted", "failed", "metrics"}. With
// --trace 0 the metrics are the end-to-end set, with --trace 1 the
// per-layer set of a traced run. Exits 1 when any correctness check fails.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"

namespace {

void PrintJson(const perfbench::RunResult& r) {
  std::string json = "{\"correct\": ";
  json += r.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.tally.attempted);
  json += ", \"failed\": " + std::to_string(r.tally.failed());
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::RunResult::Metric& m = r.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i > 0 ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Usage() {
  std::fprintf(stderr,
               "usage: hcrf_perfbench --workload <repro-cold|serve-hot|"
               "serve-contended> --seed <n> --seconds <s> --trace <0|1>\n"
               "       hcrf_perfbench --self-test\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::setvbuf(stdout, nullptr, _IOLBF, 0);  // keep the report on an abort
  perfbench::Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--self-test") return perfbench::RunSelfTests() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage();
    const std::string v = argv[++i];
    if (a == "--workload") {
      args.workload = v;
    } else if (a == "--seed") {
      args.seed = std::stoull(v);
    } else if (a == "--seconds") {
      args.seconds = std::stod(v);
    } else if (a == "--trace") {
      args.trace = v == "1";
    } else {
      return Usage();
    }
  }
  perfbench::RunResult result;
  try {
    if (args.workload == "repro-cold") {
      result = perfbench::RunReproCold(args);
    } else if (args.workload == "serve-hot") {
      result = perfbench::RunServeHot(args);
    } else if (args.workload == "serve-contended") {
      result = perfbench::RunServeContended(args);
    } else {
      return Usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "hcrf_perfbench: %s\n", e.what());
    return 1;
  }
  std::printf("outcome: attempted=%ld failed=%ld (busy=%ld errors=%ld "
              "thrown=%ld checks=%ld) unscheduled=%ld failed_share=%.6f\n",
              result.tally.attempted, result.tally.failed(), result.tally.busy,
              result.tally.errors, result.tally.thrown,
              result.tally.check_failures, result.tally.unscheduled,
              result.tally.FailedShare());
  for (const std::string& e : result.check_errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  if (result.tally.attempted < 1) result.correct = false;
  PrintJson(result);
  std::fflush(stdout);
  return result.correct ? 0 : 1;
}
