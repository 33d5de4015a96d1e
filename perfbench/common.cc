#include "common.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <thread>

#include "preference/dominance_program.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {

double Quantile(std::vector<double> samples, double q) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const double pos = q * static_cast<double>(samples.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, samples.size() - 1);
  return samples[lo] + (samples[hi] - samples[lo]) * (pos - lo);
}

double Median(std::vector<double> samples) {
  return Quantile(std::move(samples), 0.5);
}

size_t CountAbove(const std::vector<double>& samples, double threshold) {
  return static_cast<size_t>(std::count_if(
      samples.begin(), samples.end(),
      [threshold](double v) { return v > threshold; }));
}

double ProcStatusMb(const char* field) {
  FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  double mb = 0.0;
  const size_t len = std::strlen(field);
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0) {
      mb = std::strtod(line + len, nullptr) / 1024.0;  // the line is in kB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

double HeapInUseBytes() {
  const struct mallinfo2 info = mallinfo2();
  return static_cast<double>(info.uordblks + info.hblkhd);
}

double RefLoopMs() {
  static volatile uint64_t sink = 0;
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto t0 = Clock::now();
  for (int i = 0; i < 40'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  const double ms = MsSince(t0);
  sink = x;
  return ms;
}

std::string PinToFirstCpus(int count) {
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return "";
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  std::string cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE && count > 0; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed)) continue;
    CPU_SET(cpu, &chosen);
    cpus += (cpus.empty() ? "" : ",") + std::to_string(cpu);
    --count;
  }
  if (sched_setaffinity(0, sizeof(chosen), &chosen) != 0) return "";
  return cpus;
}

std::string HostFingerprint(const std::string& cpus) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "nproc=%ld hardware_concurrency=%u cpus=%s simd=%s build=%s",
                sysconf(_SC_NPROCESSORS_ONLN),
                std::thread::hardware_concurrency(),
                cpus.empty() ? "unpinned" : cpus.c_str(),
                prefsql::SimdVariantToString(prefsql::DispatchedSimdVariant()),
                PERFBENCH_BUILD_TYPE);
  return buf;
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9E3779B97F4A7C15ull);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

uint64_t StreamSeed(uint64_t seed, uint64_t tag) {
  Rng mix(seed * 0x100000001B3ull + tag);
  return mix.Next();
}

std::vector<int64_t> Sorted(std::vector<int64_t> ids) {
  std::sort(ids.begin(), ids.end());
  return ids;
}

}  // namespace perfbench
