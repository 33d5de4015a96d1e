// perfbench: one workload run of the Preference SQL benchmark.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--toy] [--out-dir <dir>]
//
// Prints the host fingerprint, every metric by name and unit, a RESULT line
// (workload, seed, host, metrics and extras, for the summary mode of
// run.py) and, last, the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics of the
// traced replay (--trace 1). Exits non-zero when the workload fails or an
// answer check or cross-check disagrees.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common.h"
#include "workloads.h"

namespace {

using perfbench::Metric;
using perfbench::RunConfig;
using perfbench::RunReport;

void PrintMetrics(const char* key, const std::vector<Metric>& metrics) {
  std::printf("\"%s\": {", key);
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i ? ", " : "", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
  std::printf("}");
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload search_cold|job_search_rewrite"
               " --seed N --seconds S --trace 0|1 "
               "[--toy] [--out-dir DIR]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--toy") {
      config.toy = true;
    } else if (arg == "--workload" && has_value) {
      config.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      config.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      config.seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      config.trace = std::strcmp(argv[++i], "0") != 0;
    } else if (arg == "--out-dir" && has_value) {
      config.out_dir = argv[++i];
    } else {
      return Usage();
    }
  }
  if (config.seconds <= 0) return Usage();
  if (config.toy) config.setups = 1;

  prefsql::Status (*run)(const RunConfig&, RunReport*) = nullptr;
  if (config.workload == "search_cold") {
    run = perfbench::RunSearchCold;
  } else if (config.workload == "job_search_rewrite") {
    run = perfbench::RunJobSearchRewrite;
  } else {
    return Usage();
  }

  // Two CPUs carry the busiest threads of every workload (two server
  // handlers, or one session plus the reactor). Spread over every CPU of the
  // host, the client/server ping-pong migrated between them and the same
  // seed's figures swung by ~10% from run to run; confined to two they hold
  // within a few percent. Threads started later inherit the mask.
  const std::string cpus = perfbench::PinToFirstCpus(2);
  config.host = perfbench::HostFingerprint(cpus);
  config.ref_loop_before_ms = perfbench::RefLoopMs();
  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d toy=%d\n",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), config.seconds,
              config.trace ? 1 : 0, config.toy ? 1 : 0);
  std::printf("# host %s\n", config.host.c_str());
  std::fflush(stdout);

  RunReport report;
  const prefsql::Status status = run(config, &report);
  const double ref_loop_after_ms = perfbench::RefLoopMs();
  std::printf("# host.ref_loop_ms before=%.3f after=%.3f\n",
              config.ref_loop_before_ms, ref_loop_after_ms);
  for (const std::string& note : report.notes) {
    std::printf("# %s\n", note.c_str());
  }
  if (!status.ok()) {
    std::fprintf(stderr, "perfbench %s failed: %s\n", config.workload.c_str(),
                 status.ToString().c_str());
    return 1;
  }
  for (const Metric& m : report.metrics) {
    std::printf("metric %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
  for (const Metric& m : report.extras) {
    std::printf("extra  %-40s %14.6f %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }

  std::printf(
      "RESULT {\"workload\": \"%s\", \"seed\": %llu, \"trace\": %d, "
      "\"host\": {\"fingerprint\": \"%s\", \"ref_loop_ms_before\": %.6f, "
      "\"ref_loop_ms_after\": %.6f}, ",
      config.workload.c_str(), static_cast<unsigned long long>(config.seed),
      config.trace ? 1 : 0, config.host.c_str(), config.ref_loop_before_ms,
      ref_loop_after_ms);
  PrintMetrics("metrics", report.metrics);
  std::printf(", ");
  PrintMetrics("extras", report.extras);
  std::printf("}\n");

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, ",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics("metrics", report.metrics);
  std::printf("}\n");
  return report.correct && report.failed == 0 ? 0 : 1;
}
