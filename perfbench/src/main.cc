// perfbench: the repository benchmark.
//
//   perfbench --workload <tcp_steady|stream_wide>
//             --seed <n> --seconds <s> --trace <0|1> --p99-limit-us <us>
//             [--workdir <dir>] [--source-rev <rev>]
//
// Prints a table of every metric of the run's class (end-to-end with
// --trace 0, per-layer with --trace 1) with unit and sample count, the
// machine fingerprint, and as its last line one JSON object with the keys
// correct, attempted, failed and metrics. Exits 1 when an output check
// failed, 2 on bad arguments.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --p99-limit-us <us> "
               "[--workdir <dir>] [--source-rev <rev>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return Usage("--trace takes 0 or 1");
      options.trace = value == "1";
    } else if (flag == "--p99-limit-us") {
      options.p99_limit_us = std::atof(value.c_str());
    } else if (flag == "--workdir") {
      options.workdir = value;
    } else if (flag == "--source-rev") {
      options.source_rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload) return Usage("--workload is required");
  if (options.seconds <= 0 || options.p99_limit_us <= 0) {
    return Usage("--seconds and --p99-limit-us must be given and positive");
  }
  std::filesystem::create_directories(options.workdir);

  perfbench::Report report;
  if (!perfbench::RunWorkload(options, &report)) {
    return Usage(("unknown workload " + options.workload).c_str());
  }
  report.Print(options.trace ? perfbench::PerLayerMetricNames()
                             : perfbench::EndToEndMetricNames(),
               perfbench::FingerprintJson(options));
  return report.correct() ? 0 : 1;
}
