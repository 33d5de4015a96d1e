// search_cold: the car dealer's interactive search of §2.2 over prefsqld.
//
// Two closed-loop wire clients each prepare one AROUND search and bind a
// fresh target (from a ~60k-value range) and one of 4 categories per
// request, so nearly every request is a preference no cache has seen: the
// working set is far larger than the 64-entry key and skyline caches, and
// time goes to the candidate feed, the key build and dominance tests. The
// 4 categories are the mid-sized ones (5k-10k of 50k rows each) so every
// request falls in one cost class. The sessions run `SET evaluation_mode =
// bnl`; every other knob stays at its default, since the default key and
// filter caches cost this workload time that only a fresh-preference
// workload shows.
//
// The traced run also covers the storage layer's write path: on a second,
// freshly loaded engine it caches 32 popular bare-table skylines and times
// writes cycling INSERT, UPDATE of `price` by `id` and DELETE by `id`, each
// of which maintains every cached skyline.
#include <algorithm>
#include <latch>
#include <optional>
#include <thread>

#include "workloads.h"

namespace perfbench {
namespace {

using prefsql::Result;
using prefsql::Status;

constexpr char kPreparedSql[] =
    "SELECT id, make, price, mileage FROM car WHERE category = $cat "
    "PREFERRING price AROUND $target AND LOWEST(mileage) AND HIGHEST(power)";
constexpr const char* kCategories[] = {"passenger", "suv", "van", "coupe"};
constexpr int kClients = 2;
constexpr int kWarmupPerClient = 4;
constexpr size_t kSamplesPerClient = 16;
constexpr size_t kTraceRequests = 256;
constexpr size_t kPopular = 32;
constexpr size_t kTraceWrites = 30;

const char* const kMakes[] = {"Opel", "BMW", "Audi", "Volkswagen", "Fiat"};
const char* const kAllCategories[] = {"roadster", "passenger", "suv",
                                      "van",      "coupe",     "estate"};
const char* const kColors[] = {"red", "black", "silver", "white", "blue"};

struct Search {
  std::string category;
  int64_t target = 0;
};

Search Draw(Rng& rng) {
  Search s;
  s.category = kCategories[rng.Below(4)];
  s.target = rng.Range(5000, 64999);
  return s;
}

std::string LiteralSql(const Search& s) {
  return "SELECT id, make, price, mileage FROM car WHERE category = '" +
         s.category + "' PREFERRING price AROUND " + std::to_string(s.target) +
         " AND LOWEST(mileage) AND HIGHEST(power)";
}

struct Sampled {
  Search search;
  std::vector<int64_t> ids;
};

struct ClientRun {
  std::vector<Read> reads;
  std::vector<Sampled> samples;
  uint64_t failed = 0;
  std::string error;
};

std::string PopularSql(int64_t target) {
  return "SELECT id, price, mileage FROM car PREFERRING price AROUND " +
         std::to_string(target) + " AND LOWEST(mileage)";
}

std::vector<int64_t> PopularTargets(uint64_t seed) {
  Rng rng(StreamSeed(seed, 2));
  std::vector<int64_t> targets;
  while (targets.size() < kPopular) {
    const int64_t t = rng.Range(5000, 64999);
    if (std::find(targets.begin(), targets.end(), t) == targets.end()) {
      targets.push_back(t);
    }
  }
  return targets;
}

enum class WriteKind { kInsert, kUpdate, kDelete };

struct WriteOp {
  WriteKind kind;
  std::string sql;
};

// Traced writes, cycling INSERT / UPDATE / DELETE. Inserted ids
// follow the generated ones; UPDATE and DELETE targets come from disjoint
// halves of a seeded permutation of the generated ids, so every write
// affects exactly one row.
std::vector<WriteOp> WriteSchedule(uint64_t seed, size_t rows, size_t count) {
  Rng rng(StreamSeed(seed, 3));
  std::vector<int64_t> ids(rows);
  for (size_t i = 0; i < rows; ++i) ids[i] = static_cast<int64_t>(i);
  for (size_t i = rows - 1; i > 0; --i) std::swap(ids[i], ids[rng.Below(i + 1)]);
  const size_t half = rows / 2;
  std::vector<WriteOp> ops;
  for (size_t k = 0; k < count; ++k) {
    const size_t round = k / 3;
    switch (k % 3) {
      case 0: {
        const int64_t age = rng.Range(0, 25);
        const char* make = kMakes[rng.Below(5)];
        ops.push_back(
            {WriteKind::kInsert,
             "INSERT INTO car VALUES (" + std::to_string(rows + round) +
                 ", '" + make + "', '" + std::string(make).substr(0, 2) +
                 std::to_string(rng.Range(100, 999)) + "', '" +
                 kAllCategories[rng.Below(6)] + "', '" + kColors[rng.Below(5)] +
                 "', " + std::to_string(rng.Range(500, 80000)) + ", " +
                 std::to_string(rng.Range(0, 30000) * (age + 1) / 3) + ", " +
                 std::to_string(rng.Range(40, 320)) + ", " +
                 std::to_string(age) + ", '" + (rng.Below(3) ? "no" : "yes") +
                 "', 'yes')"});
        break;
      }
      case 1:
        ops.push_back({WriteKind::kUpdate,
                       "UPDATE car SET price = " +
                           std::to_string(rng.Range(500, 80000)) +
                           " WHERE id = " + std::to_string(ids[round % half])});
        break;
      default:
        ops.push_back({WriteKind::kDelete,
                       "DELETE FROM car WHERE id = " +
                           std::to_string(ids[half + round % (rows - half)])});
        break;
    }
  }
  return ops;
}

Result<std::unique_ptr<CarFixture>> Setup(const CarScript& script) {
  auto fixture = std::make_unique<CarFixture>();
  PSQL_RETURN_IF_ERROR(LoadCars(script, fixture.get()));
  PSQL_RETURN_IF_ERROR(StartServer(fixture.get()));
  return fixture;
}

// One client: connect, prepare, warm up, then run requests back to back
// until the deadline.
void DriveClient(const CarFixture& fixture, uint64_t seed, int client_no,
                 std::latch* ready, std::latch* go,
                 const Clock::time_point* deadline, ClientRun* out) {
  Rng rng(StreamSeed(seed, 10 + client_no));
  Rng pick(StreamSeed(seed, 20 + client_no));
  std::unique_ptr<prefsql::net::Client> client;
  std::optional<prefsql::net::RemoteStatement> stmt;
  auto execute = [&](const Search& s) -> Result<std::vector<int64_t>> {
    PSQL_RETURN_IF_ERROR(stmt->Bind("cat", prefsql::Value::Text(s.category)));
    PSQL_RETURN_IF_ERROR(stmt->Bind("target", prefsql::Value::Int(s.target)));
    PSQL_ASSIGN_OR_RETURN(auto cursor, stmt->Open());
    return DrainIds(cursor);
  };
  auto prepare = [&]() -> Status {
    PSQL_ASSIGN_OR_RETURN(client, ConnectClient(fixture));
    PSQL_RETURN_IF_ERROR(client->Execute("SET evaluation_mode = bnl").status());
    PSQL_ASSIGN_OR_RETURN(auto prepared, client->Prepare(kPreparedSql));
    stmt.emplace(std::move(prepared));
    for (int i = 0; i < kWarmupPerClient; ++i) {
      PSQL_RETURN_IF_ERROR(execute(Draw(rng)).status());
    }
    return Status::OK();
  };
  Status status = prepare();
  ready->count_down();
  go->wait();
  while (status.ok() && Clock::now() < *deadline) {
    const Search s = Draw(rng);
    const bool sampled =
        pick.Below(8) == 0 && out->samples.size() < kSamplesPerClient;
    const auto t0 = Clock::now();
    auto ids = execute(s);
    const auto done = Clock::now();
    status = ids.status();
    if (!status.ok()) break;  // the connection's state is unknown now
    out->reads.push_back({done, MsBetween(t0, done)});
    if (sampled) out->samples.push_back({s, std::move(*ids)});
  }
  if (!status.ok()) {
    out->error = status.ToString();
    ++out->failed;
  }
}

Status RunEndToEnd(const RunConfig& config, RunReport* report) {
  PSQL_ASSIGN_OR_RETURN(const CarScript script, RenderCars(config));
  double setup_s = 0;
  PSQL_ASSIGN_OR_RETURN(
      auto fixture,
      TimedSetups<CarFixture>(
          config, [&] { return Setup(script); }, &setup_s));
  report->Add("setup_s", setup_s, "s");

  std::vector<ClientRun> runs(kClients);
  std::latch ready(kClients), go(1);
  Clock::time_point start, deadline;
  {
    std::vector<std::jthread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back(DriveClient, std::cref(*fixture), config.seed, c,
                           &ready, &go, &deadline, &runs[c]);
    }
    ready.wait();
    start = Clock::now();
    deadline = start + std::chrono::duration_cast<Clock::duration>(
                           std::chrono::duration<double>(config.seconds));
    go.count_down();
  }  // jthreads join here

  std::vector<Read> reads;
  for (const ClientRun& run : runs) {
    reads.insert(reads.end(), run.reads.begin(), run.reads.end());
    report->attempted += run.reads.size() + run.failed;
    report->failed += run.failed;
    if (!run.error.empty()) report->notes.push_back("client error: " + run.error);
  }
  PSQL_RETURN_IF_ERROR(ReportReads(config, reads, start, report));

  // Answer checks, outside the timed window: the sampled requests against
  // an embedded oracle session with every cache off.
  prefsql::ConnectionOptions oracle_options;
  oracle_options.mode = prefsql::EvaluationMode::kBlockNestedLoop;
  oracle_options.plan_cache = false;
  oracle_options.key_cache = false;
  oracle_options.skyline_cache = false;
  prefsql::Connection oracle(oracle_options);
  oracle.Attach(fixture->engine);
  size_t checked = 0;
  for (const ClientRun& run : runs) {
    for (const Sampled& sample : run.samples) {
      ++checked;
      ++report->attempted;
      auto expected = oracle.Execute(LiteralSql(sample.search));
      if (!expected.ok() ||
          Sorted(ResultIds(*expected)) != Sorted(sample.ids)) {
        ++report->failed;
        report->correct = false;
        report->notes.push_back("answer mismatch: " + LiteralSql(sample.search));
      }
    }
  }
  report->Extra("checked_answers", static_cast<double>(checked), "count");
  FinishReport(report);
  return Status::OK();
}

// The storage layer's write path, on a freshly loaded engine holding
// exactly the 32 cached popular skylines: every write maintains each one.
Status TraceWrites(const RunConfig& config, const CarScript& script,
                   Tracer& tracer, const std::vector<WriteOp>& ops,
                   LayerMetrics* m) {
  CarFixture fixture;
  PSQL_RETURN_IF_ERROR(LoadCars(script, &fixture));
  prefsql::Connection conn;
  conn.Attach(fixture.engine);
  PSQL_RETURN_IF_ERROR(
      conn.Execute("CREATE INDEX car_id ON car (id)").status());
  PSQL_RETURN_IF_ERROR(conn.Execute("SET evaluation_mode = bnl").status());
  for (int64_t target : PopularTargets(config.seed)) {
    PSQL_RETURN_IF_ERROR(conn.Execute(PopularSql(target)).status());
  }
  const uint64_t events_before =
      fixture.engine->key_cache().maintenance_events();
  for (size_t k = 0; k < ops.size(); ++k) {
    static constexpr const char* kSpan[] = {"storage.insert", "storage.update",
                                            "storage.delete"};
    const int32_t s = tracer.Begin(kSpan[static_cast<size_t>(ops[k].kind)],
                                   1'000'000 + k, -1);
    auto result = conn.Execute(ops[k].sql);
    tracer.End(s);
    PSQL_RETURN_IF_ERROR(result.status());
  }
  const double per_kind_ms = ops.size() / 3.0 * 1000.0;  // ops cycle evenly
  m->insert_ms = tracer.TotalUs("storage.insert") / per_kind_ms;
  m->update_ms = tracer.TotalUs("storage.update") / per_kind_ms;
  m->delete_ms = tracer.TotalUs("storage.delete") / per_kind_ms;
  m->skyline_maintenance_per_write =
      static_cast<double>(fixture.engine->key_cache().maintenance_events() -
                          events_before) /
      ops.size();
  return Status::OK();
}

Status RunTraced(const RunConfig& config, RunReport* report) {
  PSQL_ASSIGN_OR_RETURN(const CarScript script, RenderCars(config));
  PSQL_ASSIGN_OR_RETURN(auto fixture, Setup(script));
  prefsql::Connection conn;
  conn.Attach(fixture->engine);
  PSQL_RETURN_IF_ERROR(conn.Execute("SET evaluation_mode = bnl").status());

  Tracer tracer;
  ReplayPlan plan;
  plan.prepared_text = kPreparedSql;
  plan.wire = true;
  LayerReplay replay(&conn, &tracer, plan);
  PSQL_RETURN_IF_ERROR(replay.Start());

  Rng rng(StreamSeed(config.seed, 100));
  std::vector<ReplayRequest> requests;
  for (size_t i = 0; i < kTraceRequests; ++i) {
    const Search s = Draw(rng);
    requests.push_back({LiteralSql(s),
                        {{"cat", prefsql::Value::Text(s.category)},
                         {"target", prefsql::Value::Int(s.target)}}});
  }
  PSQL_RETURN_IF_ERROR(replay.Replay(requests, config.seconds));

  LayerMetrics m;
  replay.Fill(&m);
  m.resident_bytes_per_row = fixture->load_bytes / fixture->rows;
  PSQL_ASSIGN_OR_RETURN(auto client, ConnectClient(*fixture));
  PSQL_ASSIGN_OR_RETURN(m.round_trip_us, MedianStatsRoundTripUs(*client, 200));
  const std::vector<WriteOp> ops =
      WriteSchedule(config.seed, fixture->rows, kTraceWrites);
  PSQL_RETURN_IF_ERROR(TraceWrites(config, script, tracer, ops, &m));
  return FinishTrace(config, replay, m, ops.size(), tracer, report);
}

}  // namespace

Status RunSearchCold(const RunConfig& config, RunReport* report) {
  return config.trace ? RunTraced(config, report) : RunEndToEnd(config, report);
}

}  // namespace perfbench
