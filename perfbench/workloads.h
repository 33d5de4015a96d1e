// The three benchmark workloads and the plumbing they share.
//
//   search_cold         two closed-loop wire clients, prepared AROUND search
//                       with a fresh target per request (caches bypassed)
//   job_search_rewrite  one embedded closed-loop session on the paper's
//                       §3.3 relation, default (rewrite) evaluation mode
//
// Each Run* function sets the workload up `setups` times (setup_s is the
// median), drives it for `seconds`, checks answers against an embedded
// oracle session outside the timed window, and fills the report. With
// `trace` set it instead sets up once, replays a seeded sample through
// LayerReplay and reports the per-layer metrics.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/connection.h"
#include "core/engine.h"
#include "net/client.h"
#include "net/server.h"
#include "trace.h"
#include "util/status.h"

namespace perfbench {

prefsql::Status RunSearchCold(const RunConfig& config, RunReport* report);
prefsql::Status RunJobSearchRewrite(const RunConfig& config,
                                    RunReport* report);

// --- shared plumbing (workloads.cc) ---------------------------------------

/// The `car` table of GenerateUsedCars behind an in-process prefsqld
/// server on a loopback port.
struct CarFixture {
  std::shared_ptr<prefsql::Engine> engine = std::make_shared<prefsql::Engine>();
  std::unique_ptr<prefsql::net::Server> server;
  size_t rows = 0;
  /// Heap growth over the table load, in bytes.
  double load_bytes = 0;
};

/// The seeded car table (GenerateUsedCars, 50k rows; 3k in a toy run)
/// rendered as CREATE TABLE plus multi-row INSERT statements, so set-up
/// loads it through the program's SQL write path.
struct CarScript {
  size_t rows = 0;
  std::vector<std::string> statements;
};
prefsql::Result<CarScript> RenderCars(const RunConfig& config);

/// Loads the car table into `fixture`, measuring the heap growth.
prefsql::Status LoadCars(const CarScript& script, CarFixture* fixture);

/// Starts the fixture's server on an ephemeral loopback port.
prefsql::Status StartServer(CarFixture* fixture);

/// Connects a wire client to the fixture's server.
prefsql::Result<std::unique_ptr<prefsql::net::Client>> ConnectClient(
    const CarFixture& fixture);

/// Drains a remote cursor, returning the first column (the id) of each row.
prefsql::Result<std::vector<int64_t>> DrainIds(
    prefsql::net::RemoteCursor& cursor);

/// Ids (first column) of an embedded result.
std::vector<int64_t> ResultIds(const prefsql::ResultTable& table);

/// Runs `make` config.setups times, destroying each fixture before the next
/// is built and keeping the last; `setup_s` receives the median seconds.
template <typename Fixture>
prefsql::Result<std::unique_ptr<Fixture>> TimedSetups(
    const RunConfig& config,
    const std::function<prefsql::Result<std::unique_ptr<Fixture>>()>& make,
    double* setup_s) {
  std::unique_ptr<Fixture> fixture;
  std::vector<double> seconds;
  for (int i = 0; i < config.setups; ++i) {
    fixture.reset();
    const auto t0 = Clock::now();
    auto made = make();
    if (!made.ok()) return made.status();
    seconds.push_back(MsSince(t0) / 1000.0);
    fixture = std::move(*made);
  }
  *setup_s = Median(seconds);
  return fixture;
}

/// One completed read: when it completed and how long it took.
struct Read {
  Clock::time_point done;
  double ms = 0;
};

/// Adds the read metrics of the timed window that began at `start`. The
/// window is cut into up to six equal parts (at least 300 reads each) and
/// throughput, p50 and p95 are each the median over the parts, so a slow
/// spell of the host covering less than half the run does not move them.
/// Fails when a part has fewer than ten reads beyond its p95 (its tail would
/// not be measured), unless the run is a toy run.
prefsql::Status ReportReads(const RunConfig& config,
                            const std::vector<Read>& reads,
                            Clock::time_point start, RunReport* report);

/// Adds rss_peak_mb and the error rate, completing an end-to-end report.
void FinishReport(RunReport* report);

/// Median round trip of the STATS verb, which does no engine work, in µs.
prefsql::Result<double> MedianStatsRoundTripUs(prefsql::net::Client& client,
                                               int calls);

/// Completes a traced run: the host reference loop (mean of before and
/// after), every per-layer metric, the cross-check verdict, and the spans
/// and per-layer numbers written under config.out_dir. `other_ops` counts
/// operations beyond the replayed requests (the traced writes).
prefsql::Status FinishTrace(const RunConfig& config, const LayerReplay& replay,
                            LayerMetrics metrics, size_t other_ops,
                            const Tracer& tracer, RunReport* report);

}  // namespace perfbench
