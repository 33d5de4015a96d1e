#include "workloads.h"

#include <sys/stat.h>

#include <algorithm>
#include <cstdio>

#include "workload/generators.h"

namespace perfbench {

using prefsql::Result;
using prefsql::Status;

Result<CarScript> RenderCars(const RunConfig& config) {
  CarScript script;
  script.rows = config.toy ? 3000 : 50000;
  prefsql::Database staging;
  PSQL_RETURN_IF_ERROR(prefsql::GenerateUsedCars(staging, script.rows,
                                                 StreamSeed(config.seed, 1)));
  PSQL_ASSIGN_OR_RETURN(auto table, staging.Execute("SELECT * FROM car"));
  script.statements.push_back(
      "CREATE TABLE car (id INTEGER, make TEXT, model TEXT, category TEXT, "
      "color TEXT, price INTEGER, mileage INTEGER, power INTEGER, "
      "age INTEGER, diesel TEXT, airbag TEXT)");
  constexpr size_t kRowsPerInsert = 500;
  for (size_t begin = 0; begin < table.num_rows(); begin += kRowsPerInsert) {
    std::string sql = "INSERT INTO car VALUES ";
    const size_t end = std::min(table.num_rows(), begin + kRowsPerInsert);
    for (size_t r = begin; r < end; ++r) {
      sql += r == begin ? "(" : ", (";
      const prefsql::Row& row = table.rows()[r];
      for (size_t c = 0; c < row.size(); ++c) {
        sql += (c ? ", " : "") + row[c].ToSqlLiteral();
      }
      sql += ")";
    }
    script.statements.push_back(std::move(sql));
  }
  return script;
}

Status LoadCars(const CarScript& script, CarFixture* fixture) {
  fixture->rows = script.rows;
  const double heap0 = HeapInUseBytes();
  prefsql::Connection setup;
  setup.Attach(fixture->engine);
  for (const std::string& sql : script.statements) {
    PSQL_RETURN_IF_ERROR(setup.Execute(sql).status());
  }
  fixture->load_bytes = HeapInUseBytes() - heap0;
  return Status::OK();
}

Status StartServer(CarFixture* fixture) {
  prefsql::net::ServerOptions options;
  options.max_connections = 8;
  fixture->server =
      std::make_unique<prefsql::net::Server>(fixture->engine, options);
  return fixture->server->Start();
}

Result<std::unique_ptr<prefsql::net::Client>> ConnectClient(
    const CarFixture& fixture) {
  return prefsql::net::Client::Connect("127.0.0.1", fixture.server->port());
}

Result<std::vector<int64_t>> DrainIds(prefsql::net::RemoteCursor& cursor) {
  std::vector<int64_t> ids;
  for (;;) {
    PSQL_ASSIGN_OR_RETURN(auto row, cursor.Next());
    if (!row.has_value()) break;
    ids.push_back((*row)[0].AsInt());
  }
  return ids;
}

std::vector<int64_t> ResultIds(const prefsql::ResultTable& table) {
  std::vector<int64_t> ids;
  ids.reserve(table.num_rows());
  for (const auto& row : table.rows()) ids.push_back(row[0].AsInt());
  return ids;
}

Status ReportReads(const RunConfig& config, const std::vector<Read>& reads,
                   Clock::time_point start, RunReport* report) {
  // Up to six parts, each with at least 300 reads so its p95 has ten or
  // more reads beyond it.
  const size_t kParts = std::clamp<size_t>(reads.size() / 300, 1, 6);
  const double part_s = config.seconds / kParts;
  std::vector<std::vector<double>> parts(kParts);
  std::vector<Clock::time_point> first(kParts, Clock::time_point::max());
  std::vector<Clock::time_point> last(kParts, Clock::time_point::min());
  for (const Read& r : reads) {
    // The requests in flight at the deadline complete just after it.
    const size_t part = std::min(
        kParts - 1, static_cast<size_t>(MsBetween(start, r.done) / 1000.0 /
                                        part_s));
    parts[part].push_back(r.ms);
    first[part] = std::min(first[part], r.done);
    last[part] = std::max(last[part], r.done);
  }
  std::vector<double> qps, p50, p95;
  size_t min_tail = reads.size();
  for (size_t i = 0; i < kParts; ++i) {
    // Completions per second between the part's first and last read.
    const double span_s = parts[i].size() < 2
                              ? 0.0
                              : MsBetween(first[i], last[i]) / 1000.0;
    qps.push_back(span_s > 0 ? (parts[i].size() - 1) / span_s : 0.0);
    p50.push_back(Quantile(parts[i], 0.5));
    p95.push_back(Quantile(parts[i], 0.95));
    min_tail = std::min(min_tail, CountAbove(parts[i], p95.back()));
    char line[160];
    std::snprintf(line, sizeof(line),
                  "part %zu: %zu reads, %.1f/s, p50 %.4f ms, p95 %.4f ms", i,
                  parts[i].size(), qps.back(), p50.back(), p95.back());
    report->notes.push_back(line);
  }
  report->Add("throughput_qps", Median(qps), "1/s");
  report->Add("latency_p50_ms", Median(p50), "ms");
  report->Add("latency_p95_ms", Median(p95), "ms");
  report->Extra("read_samples", static_cast<double>(reads.size()), "count");
  report->Extra("read_samples_beyond_p95_per_part",
                static_cast<double>(min_tail), "count");
  if (min_tail < 10 && !config.toy) {
    return Status::Internal("a sixth of the run has only " +
                            std::to_string(min_tail) +
                            " reads beyond its p95; run longer");
  }
  return Status::OK();
}

void FinishReport(RunReport* report) {
  report->Add("rss_peak_mb", RssPeakMb(), "MB");
  report->Extra("error_rate",
                report->attempted == 0
                    ? 1.0
                    : static_cast<double>(report->failed) / report->attempted,
                "ratio");
}

Result<double> MedianStatsRoundTripUs(prefsql::net::Client& client,
                                      int calls) {
  std::vector<double> us;
  for (int i = 0; i < calls; ++i) {
    const auto t0 = Clock::now();
    auto stats = client.Stats();
    us.push_back(MsSince(t0) * 1000.0);
    PSQL_RETURN_IF_ERROR(stats.status());
  }
  return Median(us);
}

namespace {

Status WriteTraceFiles(const RunConfig& config, const RunReport& report,
                       double ref_loop_after_ms, const Tracer& tracer) {
  ::mkdir(config.out_dir.c_str(), 0755);
  const std::string stem = config.out_dir + "/trace_" + config.workload +
                           "_seed" + std::to_string(config.seed);
  if (!tracer.Write(stem + "_spans.json")) {
    return Status::Internal("cannot write " + stem + "_spans.json");
  }
  FILE* f = std::fopen((stem + ".json").c_str(), "w");
  if (f == nullptr) return Status::Internal("cannot write " + stem + ".json");
  std::fprintf(f,
               "{\"workload\": \"%s\", \"seed\": %llu, \"host\": "
               "{\"fingerprint\": \"%s\", \"ref_loop_ms_before\": %.6f, "
               "\"ref_loop_ms_after\": %.6f}, \"metrics\": {",
               config.workload.c_str(),
               static_cast<unsigned long long>(config.seed),
               config.host.c_str(), config.ref_loop_before_ms,
               ref_loop_after_ms);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::fprintf(f, "%s\"%s\": {\"value\": %.9g, \"unit\": \"%s\"}",
                 i ? ", " : "", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::fprintf(f, "}}\n");
  if (std::fclose(f) != 0) return Status::Internal("cannot write " + stem);
  return Status::OK();
}

}  // namespace

Status FinishTrace(const RunConfig& config, const LayerReplay& replay,
                   LayerMetrics metrics, size_t other_ops,
                   const Tracer& tracer, RunReport* report) {
  const double ref_loop_after_ms = RefLoopMs();
  metrics.ref_loop_ms = (config.ref_loop_before_ms + ref_loop_after_ms) / 2.0;
  metrics.Emit(report);
  report->attempted = replay.replayed() + other_ops;
  if (replay.mismatches() > 0) {
    report->correct = false;
    report->notes.push_back(
        "replay cross-check (dominance tests, answers) failed on " +
        std::to_string(replay.mismatches()) + " requests");
  }
  report->Extra("replayed_requests", static_cast<double>(replay.replayed()),
                "count");
  return WriteTraceFiles(config, *report, ref_loop_after_ms, tracer);
}

}  // namespace perfbench
