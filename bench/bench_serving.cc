// Serving-scale behaviour of the shared-engine architecture: the plan
// cache cold vs. warm, multi-session scaling over one shared Engine, the
// cost of DML between queries, the client-surface tiers, streaming,
// readers vs. writers under MVCC, cancellation, and networked serving.
//
// Writes BENCH_serving.json (bench_json.h record format). Wall times on
// shared CI runners are noisy; the signal is the ratios and the hit flags,
// which are deterministic.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_json.h"
#include "core/connection.h"
#include "net/client.h"
#include "net/server.h"
#include "workload/generators.h"

namespace {

using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

constexpr size_t kRows = 20000;
constexpr int kWarmIters = 50;
const char* kQuery =
    "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage)";

// Mean latency of `iters` repetitions of kQuery on `conn`.
double MeanMs(prefsql::Connection& conn, int iters) {
  const auto t0 = Clock::now();
  for (int i = 0; i < iters; ++i) {
    auto r = conn.Execute(kQuery);
    if (!r.ok()) {
      std::fprintf(stderr, "query failed: %s\n", r.status().ToString().c_str());
      std::exit(1);
    }
  }
  return MsSince(t0) / iters;
}

}  // namespace

int main(int argc, char** argv) {
  // Mixed-traffic shape (section 6); CI's high-churn stress passes
  // --mixed-writers 8 --mixed-readers 8.
  int mixed_writers = 1;
  int mixed_readers = 2;
  // 0 = spin up an in-process prefsqld on an ephemeral loopback port;
  // nonzero = benchmark an externally started daemon (expects the usedcars
  // demo data set: prefsqld --demo usedcars).
  int networked_port = 0;
  for (int i = 1; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], "--mixed-writers") == 0) {
      mixed_writers = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--mixed-readers") == 0) {
      mixed_readers = std::atoi(argv[i + 1]);
    } else if (std::strcmp(argv[i], "--networked-port") == 0) {
      networked_port = std::atoi(argv[i + 1]);
    }
  }

  prefsql::benchjson::Writer json("serving");
  std::printf("=== Serving: plan cache and multi-session scaling ===\n");

  // --- 1. Rewrite mode: the plan cache skips lex/parse/analyze -----------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), 2000, 7).ok()) return 1;
    const auto t0 = Clock::now();
    (void)conn.Execute(kQuery);
    const double cold_ms = MsSince(t0);
    const double warm_ms = MeanMs(conn, kWarmIters);
    std::printf("rewrite, 2000 rows: cold %.3f ms -> warm %.3f ms\n",
                cold_ms, warm_ms);
    json.BeginRecord()
        .Field("section", "plan_cache_warm")
        .Field("mode", "rewrite")
        .Field("rows", static_cast<uint64_t>(2000))
        .Field("cold_ms", cold_ms)
        .Field("warm_ms", warm_ms)
        .Field("warm_plan_cache_hit",
               static_cast<uint64_t>(conn.last_stats().plan_cache_hit));
  }

  // --- 2. Multi-session scaling over one shared engine -------------------
  for (size_t sessions : {1u, 2u, 4u}) {
    auto engine = std::make_shared<prefsql::Engine>();
    {
      prefsql::Connection setup;
      setup.Attach(engine);
      if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) {
        return 1;
      }
    }
    constexpr int kPerSession = 40;
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (size_t s = 0; s < sessions; ++s) {
      threads.emplace_back([&engine] {
        prefsql::Connection conn;
        conn.Attach(engine);
        (void)conn.Execute("SET evaluation_mode = bnl");
        for (int i = 0; i < kPerSession; ++i) (void)conn.Execute(kQuery);
      });
    }
    for (auto& t : threads) t.join();
    const double total_ms = MsSince(t0);
    const double qps = sessions * kPerSession * 1000.0 / total_ms;
    std::printf("%zu session(s): %.0f queries/s (%.3f ms total)\n", sessions,
                qps, total_ms);
    json.BeginRecord()
        .Field("section", "multi_session")
        .Field("sessions", static_cast<uint64_t>(sessions))
        .Field("queries", static_cast<uint64_t>(sessions * kPerSession))
        .Field("total_ms", total_ms)
        .Field("qps", qps)
        .Field("hw_threads",
               static_cast<uint64_t>(std::thread::hardware_concurrency()));
  }

  // --- 3. Write churn: an INSERT and a DELETE between queries -----------
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    (void)conn.Execute(kQuery);
    constexpr int kIters = 20;
    const auto t0 = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      (void)conn.Execute(
          "INSERT INTO car VALUES (999999, 'zz', 'zz', 'zz', 'zz', 999999, "
          "999999, 1, 1, 0, 0)");
      (void)conn.Execute("DELETE FROM car WHERE id = 999999");
      auto r = conn.Execute(kQuery);
      if (!r.ok()) {
        std::fprintf(stderr, "churn query failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double churn_ms = MsSince(t0) / kIters;
    std::printf("write churn: %.3f ms per (insert+delete+query) round\n",
                churn_ms);
    json.BeginRecord()
        .Field("section", "write_churn")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("round_ms", churn_ms);
  }

  // --- 4. Prepared vs unprepared: the client-surface tiers, each request
  //        asking for a different AROUND target (the realistic serving
  //        shape — per-request values, shared plan):
  //        unprepared = plan cache off, full lex/parse/analyze per query;
  //        text       = literal text, auto-parameterized plan-cache hit;
  //        prepared   = PreparedStatement, bind + execute per request.
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    auto text_query = [](int target) {
      return "SELECT id FROM car PREFERRING price AROUND " +
             std::to_string(target) + " AND LOWEST(mileage)";
    };

    (void)conn.Execute("SET plan_cache = off");
    (void)conn.Execute(text_query(15000));
    const auto t_unprepared = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)conn.Execute(text_query(15000 + i));
    }
    const double unprepared_ms = MsSince(t_unprepared) / kWarmIters;

    (void)conn.Execute("SET plan_cache = on");
    (void)conn.Execute(text_query(15000));
    const auto t_text = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)conn.Execute(text_query(15000 + i));
    }
    const double text_ms = MsSince(t_text) / kWarmIters;
    const bool text_hit = conn.last_stats().plan_cache_hit;

    auto stmt = conn.Prepare(
        "SELECT id FROM car PREFERRING price AROUND $target AND "
        "LOWEST(mileage)");
    if (!stmt.ok()) {
      std::fprintf(stderr, "prepare failed: %s\n",
                   stmt.status().ToString().c_str());
      return 1;
    }
    (void)stmt->Bind("target", prefsql::Value::Int(15000));
    (void)stmt->Execute();
    const auto t_prepared = Clock::now();
    for (int i = 0; i < kWarmIters; ++i) {
      (void)stmt->Bind("target", prefsql::Value::Int(15000 + i));
      auto r = stmt->Execute();
      if (!r.ok()) {
        std::fprintf(stderr, "prepared execute failed: %s\n",
                     r.status().ToString().c_str());
        return 1;
      }
    }
    const double prepared_ms = MsSince(t_prepared) / kWarmIters;
    const bool prepared_hit = conn.last_stats().plan_cache_hit;

    std::printf(
        "prepared vs unprepared (varying target), %zu rows: unprepared "
        "%.3f ms, text (auto-param hit %d) %.3f ms, prepared (hit %d) %.3f "
        "ms\n",
        kRows, unprepared_ms, text_hit, text_ms, prepared_hit, prepared_ms);
    json.BeginRecord()
        .Field("section", "prepared_vs_unprepared")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("unprepared_ms", unprepared_ms)
        .Field("text_ms", text_ms)
        .Field("text_plan_cache_hit", static_cast<uint64_t>(text_hit))
        .Field("prepared_ms", prepared_ms)
        .Field("prepared_plan_cache_hit",
               static_cast<uint64_t>(prepared_hit))
        .Field("prepared_speedup", unprepared_ms / prepared_ms);
  }

  // --- 5. Streaming vs materialized: Cursor against Execute ---------------
  //        Full drains must cost about the same; the cursor's win is the
  //        top-k client stop (close after k rows, no tail evaluation of the
  //        projection pipeline and no result materialization).
  {
    prefsql::Connection conn;
    if (!prefsql::GenerateUsedCars(conn.database(), kRows, 7).ok()) return 1;
    (void)conn.Execute("SET evaluation_mode = bnl");
    const char* wide_query = "SELECT * FROM car WHERE price < 900000";
    constexpr int kIters = 20;
    constexpr size_t kTopK = 10;

    (void)conn.Execute(wide_query);
    const auto t_mat = Clock::now();
    for (int i = 0; i < kIters; ++i) (void)conn.Execute(wide_query);
    const double materialized_ms = MsSince(t_mat) / kIters;

    size_t streamed_rows = 0;
    const auto t_stream = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      auto cursor = conn.OpenCursor(wide_query);
      if (!cursor.ok()) return 1;
      streamed_rows = 0;
      for (;;) {
        auto row = cursor->Next();
        if (!row.ok() || !row->has_value()) break;
        ++streamed_rows;
      }
    }
    const double streamed_ms = MsSince(t_stream) / kIters;

    const auto t_topk = Clock::now();
    for (int i = 0; i < kIters; ++i) {
      auto cursor = conn.OpenCursor(wide_query);
      if (!cursor.ok()) return 1;
      for (size_t k = 0; k < kTopK; ++k) {
        auto row = cursor->Next();
        if (!row.ok() || !row->has_value()) break;
      }
      cursor->Close();
    }
    const double topk_ms = MsSince(t_topk) / kIters;
    std::printf(
        "streaming vs materialized, %zu rows out: Execute %.3f ms, cursor "
        "full drain %.3f ms, cursor stop@%zu %.3f ms (%.1fx)\n",
        streamed_rows, materialized_ms, streamed_ms, kTopK, topk_ms,
        materialized_ms / topk_ms);
    json.BeginRecord()
        .Field("section", "streaming_vs_materialized")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("result_rows", static_cast<uint64_t>(streamed_rows))
        .Field("materialized_ms", materialized_ms)
        .Field("streamed_full_ms", streamed_ms)
        .Field("topk", static_cast<uint64_t>(kTopK))
        .Field("streamed_topk_ms", topk_ms)
        .Field("topk_speedup", materialized_ms / topk_ms);
  }

  // --- 6. Readers vs writers: mixed traffic under MVCC. Writers churn
  //        the table (insert / update / delete cycle, each statement one
  //        commit epoch) while readers stream the skyline query at their
  //        own pinned snapshots. Pre-MVCC every DML statement stalled the
  //        whole reader pool on the engine lock; now the signal is reader
  //        latency under churn vs. a quiet engine, plus sustained writer
  //        throughput while every reader keeps pulling.
  {
    const int n_writers = mixed_writers > 0 ? mixed_writers : 1;
    const int n_readers = mixed_readers > 0 ? mixed_readers : 1;
    constexpr int kReaderIters = 300;

    auto engine = std::make_shared<prefsql::Engine>();
    prefsql::Connection setup;
    setup.Attach(engine);
    if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) return 1;
    (void)setup.Execute("SET evaluation_mode = bnl");
    (void)setup.Execute(kQuery);  // warm the plan cache once

    auto reader_pool_mean_ms = [&](bool with_writers, uint64_t* writer_stmts,
                                   uint64_t* gc_cleared) {
      std::atomic<bool> done{false};
      std::atomic<uint64_t> stmts{0};
      std::vector<std::thread> writers;
      for (int w = 0; w < (with_writers ? n_writers : 0); ++w) {
        writers.emplace_back([&, w]() {
          prefsql::Connection conn;
          conn.Attach(engine);
          const int id_base = 800000 + w * 10000;
          for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
            const std::string id = std::to_string(id_base + i % 1000);
            (void)conn.Execute("INSERT INTO car VALUES (" + id +
                               ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, "
                               "1, 1, 0, 0)");
            (void)conn.Execute("UPDATE car SET price = 888888 WHERE id = " +
                               id);
            (void)conn.Execute("DELETE FROM car WHERE id = " + id);
            stmts.fetch_add(3, std::memory_order_relaxed);
          }
          if (gc_cleared != nullptr) {
            *gc_cleared = conn.last_stats().mvcc_gc_cleared;
          }
        });
      }
      std::vector<std::thread> readers;
      std::vector<double> total_ms(n_readers, 0.0);
      for (int r = 0; r < n_readers; ++r) {
        readers.emplace_back([&, r]() {
          prefsql::Connection conn;
          conn.Attach(engine);
          (void)conn.Execute("SET evaluation_mode = bnl");
          const auto t0 = Clock::now();
          for (int i = 0; i < kReaderIters; ++i) {
            auto res = conn.Execute(kQuery);
            if (!res.ok()) {
              std::fprintf(stderr, "mixed read failed: %s\n",
                           res.status().ToString().c_str());
              std::exit(1);
            }
          }
          total_ms[r] = MsSince(t0);
        });
      }
      for (auto& t : readers) t.join();
      done.store(true, std::memory_order_release);
      for (auto& t : writers) t.join();
      if (writer_stmts != nullptr) *writer_stmts = stmts.load();
      double sum = 0.0;
      for (double ms : total_ms) sum += ms;
      return sum / (static_cast<double>(n_readers) * kReaderIters);
    };

    const double quiet_ms = reader_pool_mean_ms(false, nullptr, nullptr);
    uint64_t writer_stmts = 0;
    uint64_t gc_cleared = 0;
    const auto t0 = Clock::now();
    const double churn_ms =
        reader_pool_mean_ms(true, &writer_stmts, &gc_cleared);
    const double wall_ms = MsSince(t0);
    const double writer_qps = writer_stmts / (wall_ms / 1000.0);
    std::printf(
        "mixed traffic, %zu rows, %d writers x %d readers: reader %.3f ms "
        "quiet -> %.3f ms under churn (%.2fx), writers sustained %.0f "
        "stmts/s (%llu total, gc cleared %llu)\n",
        kRows, n_writers, n_readers, quiet_ms, churn_ms, churn_ms / quiet_ms,
        writer_qps, static_cast<unsigned long long>(writer_stmts),
        static_cast<unsigned long long>(gc_cleared));
    json.BeginRecord()
        .Field("section", "mixed_traffic")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("writers", static_cast<uint64_t>(n_writers))
        .Field("readers", static_cast<uint64_t>(n_readers))
        .Field("reader_iters", static_cast<uint64_t>(kReaderIters))
        .Field("reader_quiet_ms", quiet_ms)
        .Field("reader_churn_ms", churn_ms)
        .Field("reader_slowdown", churn_ms / quiet_ms)
        .Field("writer_stmts_per_sec", writer_qps)
        .Field("writer_stmts_total", writer_stmts)
        .Field("gc_cleared", gc_cleared);
  }

  // --- 7. Cancellation: time-to-cancel under mixed traffic. A victim
  //        session runs a heavy 4-d skyline; once its statement context is
  //        armed, Session::CancelCurrent() fires from the bench thread and
  //        we measure cancel-issue -> statement-return while writers churn
  //        the table. The signal is the p99: the longest stretch any
  //        operator runs between interrupt polls.
  {
    const int n_writers = mixed_writers > 0 ? mixed_writers : 1;
    constexpr int kSamples = 40;
    const char* heavy_query =
        "SELECT id FROM car PREFERRING LOWEST(price) AND LOWEST(mileage) "
        "AND HIGHEST(power) AND LOWEST(age)";

    auto engine = std::make_shared<prefsql::Engine>();
    prefsql::Connection setup;
    setup.Attach(engine);
    if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) return 1;

    std::atomic<bool> done{false};
    std::vector<std::thread> writers;
    for (int w = 0; w < n_writers; ++w) {
      writers.emplace_back([&, w]() {
        prefsql::Connection conn;
        conn.Attach(engine);
        const int id_base = 700000 + w * 10000;
        for (int i = 0; !done.load(std::memory_order_acquire); ++i) {
          const std::string id = std::to_string(id_base + i % 1000);
          (void)conn.Execute("INSERT INTO car VALUES (" + id +
                             ", 'zz', 'zz', 'zz', 'zz', 999999, 999999, "
                             "1, 1, 0, 0)");
          (void)conn.Execute("DELETE FROM car WHERE id = " + id);
        }
      });
    }

    prefsql::Connection victim;
    victim.Attach(engine);
    (void)victim.Execute("SET evaluation_mode = bnl");

    std::vector<double> cancel_ms;
    int completed_early = 0;
    for (int s = 0; s < kSamples; ++s) {
      std::atomic<bool> finished{false};
      Clock::time_point returned;
      prefsql::Status outcome = prefsql::Status::OK();
      std::thread runner([&]() {
        auto r = victim.Execute(heavy_query);
        returned = Clock::now();
        outcome = r.status();
        finished.store(true, std::memory_order_release);
      });
      // Arm-spin: CancelCurrent() succeeds the moment the statement's
      // context is published.
      while (!victim.session().CancelCurrent() &&
             !finished.load(std::memory_order_acquire)) {
        std::this_thread::yield();
      }
      const auto issued = Clock::now();
      runner.join();
      if (outcome.IsCancelled()) {
        cancel_ms.push_back(
            std::chrono::duration<double, std::milli>(returned - issued)
                .count());
      } else {
        ++completed_early;  // statement beat the kill switch; not a sample
      }
    }
    done.store(true, std::memory_order_release);
    for (auto& t : writers) t.join();

    std::sort(cancel_ms.begin(), cancel_ms.end());
    auto pct = [&](double p) {
      if (cancel_ms.empty()) return 0.0;
      size_t idx = static_cast<size_t>(p * (cancel_ms.size() - 1));
      return cancel_ms[idx];
    };
    std::printf(
        "cancellation, %zu rows, %d writers churning: %zu cancelled "
        "(%d completed early), time-to-cancel p50 %.3f ms, p99 %.3f ms, "
        "max %.3f ms\n",
        kRows, n_writers, cancel_ms.size(), completed_early, pct(0.5),
        pct(0.99), cancel_ms.empty() ? 0.0 : cancel_ms.back());
    json.BeginRecord()
        .Field("section", "cancellation")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("writers", static_cast<uint64_t>(n_writers))
        .Field("samples", static_cast<uint64_t>(cancel_ms.size()))
        .Field("completed_early", static_cast<uint64_t>(completed_early))
        .Field("cancel_p50_ms", pct(0.5))
        .Field("cancel_p99_ms", pct(0.99))
        .Field("cancel_max_ms", cancel_ms.empty() ? 0.0 : cancel_ms.back());
  }

  // --- 8. Networked serving: concurrent wire-protocol clients against a
  //        prefsqld instance. Eight clients connect over TCP, prepare the
  //        AROUND-target skyline query once, and stream every execution's
  //        rows through FETCH pages — per-query latency includes the bind
  //        ship, the execute round trip, and every page round trip, so the
  //        percentiles measure the full serving stack (framing, reactor,
  //        handler pool, engine) rather than the engine alone.
  {
    constexpr int kClients = 8;
    constexpr int kPerClient = 40;

    std::unique_ptr<prefsql::net::Server> server;
    int port = networked_port;
    if (port == 0) {
      auto engine = std::make_shared<prefsql::Engine>();
      {
        prefsql::Connection setup;
        setup.Attach(engine);
        if (!prefsql::GenerateUsedCars(setup.database(), kRows, 7).ok()) {
          return 1;
        }
      }
      prefsql::net::ServerOptions options;
      options.max_connections = kClients + 2;
      server = std::make_unique<prefsql::net::Server>(engine, options);
      auto started = server->Start();
      if (!started.ok()) {
        std::fprintf(stderr, "server start failed: %s\n",
                     started.ToString().c_str());
        return 1;
      }
      port = server->port();
    }

    std::vector<std::vector<double>> per_client(kClients);
    std::atomic<int> failures{0};
    const auto t0 = Clock::now();
    std::vector<std::thread> clients;
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c]() {
        auto client = prefsql::net::Client::Connect("127.0.0.1", port);
        if (!client.ok()) {
          std::fprintf(stderr, "client %d connect failed: %s\n", c,
                       client.status().ToString().c_str());
          failures.fetch_add(1);
          return;
        }
        (void)(*client)->Execute("SET evaluation_mode = bnl");
        auto stmt = (*client)->Prepare(
            "SELECT id FROM car PREFERRING price AROUND $target AND "
            "LOWEST(mileage)");
        if (!stmt.ok()) {
          std::fprintf(stderr, "client %d prepare failed: %s\n", c,
                       stmt.status().ToString().c_str());
          failures.fetch_add(1);
          return;
        }
        for (int i = 0; i < kPerClient; ++i) {
          (void)stmt->Bind("target", prefsql::Value::Int(
                                         15000 + (c * kPerClient + i) % 64));
          const auto q0 = Clock::now();
          auto cursor = stmt->Open();
          if (!cursor.ok()) {
            std::fprintf(stderr, "client %d open failed: %s\n", c,
                         cursor.status().ToString().c_str());
            failures.fetch_add(1);
            return;
          }
          for (;;) {
            auto row = cursor->Next();
            if (!row.ok()) {
              std::fprintf(stderr, "client %d fetch failed: %s\n", c,
                           row.status().ToString().c_str());
              failures.fetch_add(1);
              return;
            }
            if (!row->has_value()) break;
          }
          per_client[c].push_back(MsSince(q0));
        }
      });
    }
    for (auto& t : clients) t.join();
    const double wall_ms = MsSince(t0);
    if (server != nullptr) server->Shutdown();
    if (failures.load() != 0) return 1;

    std::vector<double> latencies;
    for (const auto& samples : per_client) {
      latencies.insert(latencies.end(), samples.begin(), samples.end());
    }
    std::sort(latencies.begin(), latencies.end());
    auto pct = [&](double p) {
      if (latencies.empty()) return 0.0;
      size_t idx = static_cast<size_t>(p * (latencies.size() - 1));
      return latencies[idx];
    };
    const double qps = latencies.size() * 1000.0 / wall_ms;
    std::printf(
        "networked, %zu rows, %d clients x %d queries over TCP: p50 %.3f "
        "ms, p95 %.3f ms, p99 %.3f ms, %.0f queries/s (%.3f ms wall)\n",
        kRows, kClients, kPerClient, pct(0.5), pct(0.95), pct(0.99), qps,
        wall_ms);
    json.BeginRecord()
        .Field("section", "networked")
        .Field("rows", static_cast<uint64_t>(kRows))
        .Field("clients", static_cast<uint64_t>(kClients))
        .Field("queries_per_client", static_cast<uint64_t>(kPerClient))
        .Field("queries", static_cast<uint64_t>(latencies.size()))
        .Field("external_daemon", static_cast<uint64_t>(networked_port != 0))
        .Field("p50_ms", pct(0.5))
        .Field("p95_ms", pct(0.95))
        .Field("p99_ms", pct(0.99))
        .Field("wall_ms", wall_ms)
        .Field("qps", qps);
  }

  if (!json.Write()) {
    std::fprintf(stderr, "failed to write BENCH_serving.json\n");
    return 1;
  }
  std::printf("wrote BENCH_serving.json\n");
  return 0;
}
