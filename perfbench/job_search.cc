// job_search_rewrite: the paper's §3.3 measurement of the rewrite path.
//
// One embedded Connection drives the job-profile relation (74 attributes)
// in a closed loop, in the default evaluation mode: the §3.2 rewrite into
// an Aux view plus a NOT EXISTS anti-join. Each text statement has a hard
// pre-selection (a region and an availability bound) and 4 Pareto skill
// conditions drawn per request. Set-up calibrates the availability bound of
// every region so the pre-selection yields one size class, about 300
// candidates, as bench_job_search does for its targets. No wire, no key or
// skyline cache: this is the bypass workload for net and BMO changes.
#include "workload/generators.h"
#include "workloads.h"

namespace perfbench {
namespace {

using prefsql::Result;
using prefsql::Status;

const char* const kRegions[] = {
    "north",  "south",     "east",      "west",       "bavaria", "saxony",
    "hesse",  "berlin",    "hamburg",   "rhineland",  "swabia",  "franconia",
    "palatinate", "baden", "thuringia", "holstein"};
constexpr size_t kNumRegions = 16;
const char* const kSkills[] = {"java",   "C++",        "SQL",       "COBOL",
                               "perl",   "python",     "SAP",       "oracle",
                               "javascript", "assembler", "fortran", "delphi"};
constexpr size_t kNumSkills = 12;
constexpr size_t kSamples = 24;
constexpr size_t kTraceRequests = 128;

struct JobFixture {
  prefsql::Connection conn;
  size_t rows = 0;
  double load_bytes = 0;
  int thresholds[kNumRegions] = {};  // availability bound per region
};

// The smallest availability bound whose pre-selection holds at least
// `target` rows of `region` (the count is monotone in the bound).
Result<int> Calibrate(prefsql::Connection& conn, const char* region,
                      size_t target) {
  int lo = 0, hi = 366;
  while (lo < hi) {
    const int mid = (lo + hi) / 2;
    PSQL_ASSIGN_OR_RETURN(
        auto count,
        conn.Execute("SELECT COUNT(*) FROM profiles WHERE region = '" +
                     std::string(region) + "' AND availability < " +
                     std::to_string(mid)));
    if (static_cast<size_t>(count.at(0, 0).AsInt()) < target) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

Result<std::unique_ptr<JobFixture>> Setup(const RunConfig& config) {
  auto fixture = std::make_unique<JobFixture>();
  prefsql::JobProfileConfig profile;
  profile.rows = config.toy ? 4000 : 60000;
  profile.seed = StreamSeed(config.seed, 4);
  fixture->rows = profile.rows;
  const double heap0 = HeapInUseBytes();
  PSQL_RETURN_IF_ERROR(
      prefsql::GenerateJobProfiles(fixture->conn.database(), profile));
  fixture->load_bytes = HeapInUseBytes() - heap0;
  const size_t target = config.toy ? 60 : 300;
  for (size_t r = 0; r < kNumRegions; ++r) {
    PSQL_ASSIGN_OR_RETURN(fixture->thresholds[r],
                          Calibrate(fixture->conn, kRegions[r], target));
  }
  return fixture;
}

std::string DrawRequest(const JobFixture& fixture, Rng& rng) {
  const size_t region = rng.Below(kNumRegions);
  std::string sql = "SELECT id FROM profiles WHERE region = '" +
                    std::string(kRegions[region]) + "' AND availability < " +
                    std::to_string(fixture.thresholds[region]) + " PREFERRING ";
  const char* columns[] = {"skill_a", "skill_b", "skill_c", "skill_d"};
  for (int i = 0; i < 4; ++i) {
    sql += std::string(i ? " AND " : "") + columns[i] + " = '" +
           kSkills[rng.Below(kNumSkills)] + "'";
  }
  return sql;
}

Status RunEndToEnd(const RunConfig& config, RunReport* report) {
  double setup_s = 0;
  PSQL_ASSIGN_OR_RETURN(
      auto fixture,
      TimedSetups<JobFixture>(
          config, [&] { return Setup(config); }, &setup_s));
  report->Add("setup_s", setup_s, "s");

  Rng rng(StreamSeed(config.seed, 40));
  Rng pick(StreamSeed(config.seed, 41));
  std::vector<Read> reads;
  std::vector<std::pair<std::string, std::vector<int64_t>>> samples;
  const auto start = Clock::now();
  const auto deadline = start + std::chrono::duration_cast<Clock::duration>(
                                    std::chrono::duration<double>(config.seconds));
  while (Clock::now() < deadline) {
    const std::string sql = DrawRequest(*fixture, rng);
    const bool sampled = pick.Below(8) == 0 && samples.size() < kSamples;
    const auto t0 = Clock::now();
    auto answer = fixture->conn.Execute(sql);
    const auto done = Clock::now();
    ++report->attempted;
    if (!answer.ok()) {
      ++report->failed;
      report->notes.push_back("query error: " + answer.status().ToString());
      break;
    }
    reads.push_back({done, MsBetween(t0, done)});
    if (sampled) samples.emplace_back(sql, ResultIds(*answer));
  }
  PSQL_RETURN_IF_ERROR(ReportReads(config, reads, start, report));

  // Answer checks, outside the timed window: the sampled requests against
  // an in-engine BNL oracle session on the same engine.
  prefsql::Connection oracle;
  oracle.Attach(fixture->conn.engine());
  PSQL_RETURN_IF_ERROR(oracle.Execute("SET evaluation_mode = bnl").status());
  for (const auto& [sql, ids] : samples) {
    ++report->attempted;
    auto expected = oracle.Execute(sql);
    if (!expected.ok() || Sorted(ResultIds(*expected)) != Sorted(ids)) {
      ++report->failed;
      report->correct = false;
      report->notes.push_back("answer mismatch: " + sql);
    }
  }
  report->Extra("checked_answers", static_cast<double>(samples.size()), "count");
  FinishReport(report);
  return Status::OK();
}

Status RunTraced(const RunConfig& config, RunReport* report) {
  PSQL_ASSIGN_OR_RETURN(auto fixture, Setup(config));
  prefsql::Connection& conn = fixture->conn;

  Tracer tracer;
  LayerReplay replay(&conn, &tracer, ReplayPlan{});
  PSQL_RETURN_IF_ERROR(replay.Start());
  Rng rng(StreamSeed(config.seed, 100));
  std::vector<ReplayRequest> requests;
  for (size_t i = 0; i < kTraceRequests; ++i) {
    requests.push_back({DrawRequest(*fixture, rng), {}});
  }
  PSQL_RETURN_IF_ERROR(replay.Replay(requests, config.seconds));

  LayerMetrics m;
  replay.Fill(&m);
  m.resident_bytes_per_row = fixture->load_bytes / fixture->rows;
  return FinishTrace(config, replay, m, 0, tracer, report);
}

}  // namespace

Status RunJobSearchRewrite(const RunConfig& config, RunReport* report) {
  return config.trace ? RunTraced(config, report) : RunEndToEnd(config, report);
}

}  // namespace perfbench
