// Shared plumbing of the perfbench program: clocks, percentiles, process
// memory, the host reference loop, seeded sampling, and the metric lists
// every workload reports.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}
inline double MsSince(Clock::time_point a) { return MsBetween(a, Clock::now()); }

/// Sizes and durations of one invocation (`--toy` shrinks every size so the
/// smoke test runs each workload in seconds).
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool toy = false;
  std::string out_dir = ".bench_out";
  /// Full set-ups timed per run; setup_s is their median.
  int setups = 3;
  /// HostFingerprint() and host.ref_loop_ms, taken before the workload.
  std::string host;
  double ref_loop_before_ms = 0;
};

/// One named metric with its unit, in print order.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What a workload hands back to main: the metrics BENCHMARK.json bounds
/// (`metrics`), the ones printed beside them (`extras`: error rate, sample
/// counts, checked answers), and the operation tally.
struct RunReport {
  std::vector<Metric> metrics;
  std::vector<Metric> extras;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// False when an answer check or a traced cross-check disagreed.
  bool correct = true;
  /// Human-readable lines printed before the result.
  std::vector<std::string> notes;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void Extra(std::string name, double value, std::string unit) {
    extras.push_back({std::move(name), value, std::move(unit)});
  }
};

/// Linear-interpolated quantile (q in [0, 1]) of `samples`; 0 when empty.
double Quantile(std::vector<double> samples, double q);
double Median(std::vector<double> samples);

/// Number of samples strictly above `threshold`.
size_t CountAbove(const std::vector<double>& samples, double threshold);

/// Reads a "Vm*" line of /proc/self/status, in MiB (0 when unavailable).
double ProcStatusMb(const char* field);
inline double RssPeakMb() { return ProcStatusMb("VmHWM:"); }

/// Bytes the allocator currently has handed out (glibc mallinfo2). Unlike
/// RSS it also grows when a load reuses memory freed earlier in the run.
double HeapInUseBytes();

/// Fixed CPU-bound loop (a xorshift chain, no memory traffic) timed in ms.
/// It describes the host's speed at that moment, not the program.
double RefLoopMs();

/// Confines the process, and every thread it starts later, to the first
/// `count` CPUs of its affinity mask; returns them as "0,1" (empty when the
/// mask cannot be read or set).
std::string PinToFirstCpus(int count);

/// One line naming the host: nproc, hardware_concurrency, the CPUs the run
/// is confined to, the dispatched SIMD variant and the build type.
std::string HostFingerprint(const std::string& cpus);

/// Deterministic generator for every workload input (splitmix64): the same
/// seed yields the same targets, categories, skills and writes on
/// every platform, independent of the standard library's distributions.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }
  /// Uniform in [lo, hi].
  int64_t Range(int64_t lo, int64_t hi) {
    return lo + static_cast<int64_t>(Below(static_cast<uint64_t>(hi - lo + 1)));
  }

 private:
  uint64_t state_;
};

/// Derives an independent stream seed from the run seed and a stream tag.
uint64_t StreamSeed(uint64_t seed, uint64_t tag);

/// Sorted copy of an id list (answer checks compare id sets).
std::vector<int64_t> Sorted(std::vector<int64_t> ids);

}  // namespace perfbench
