// Closed-loop multi-client serving bench: a server::QueryServer fronts a
// two-relation catalog (flights + IMDb) and N client threads each loop a
// mixed cross-relation workload over the wire. Every served answer is
// bitwise-checked against a sequential in-process Query() loop — any
// divergence aborts — across pool sizes 1 / 2 / hardware and client
// counts 1 / 4.
//
//   ./bench_serving [rounds] [--strict] [--smoke] [--json PATH]
//                   [--connections N] [--metrics-out PATH]
//                   [--no-response-cache]
//
// Timing is informational by default (wall-clock gates flake on noisy
// shared runners); --strict turns the concurrency bar — 4 clients on the
// hardware pool >= 1.3x the single-client throughput on the same pool —
// into the exit code. --json writes a machine-readable snapshot whose
// "gate" object holds the ratios tools/check_bench.py compares.
//
// --smoke runs the CI smoke sequence instead: start a server with
// tracing armed, issue a point query, a GROUP BY, a STATS probe, and a
// deterministic overload rejection (admission slot held open by a
// request hook), scrape METRICS and check the request-latency histogram
// count equals served_ok + served_error, then shut down gracefully.
// Exit code 0 only if every step behaves. --metrics-out PATH writes the
// scraped Prometheus exposition to PATH (also honored by --connections
// mode) so CI can validate it with tools/check_metrics.py.
//
// --connections N switches to the open-loop mode that the epoll serving
// core exists for: N idle connections stay parked (costing the server no
// threads) while 64 active clients stream the workload, every answer
// bitwise-checked; reports aggregate q/s plus p50/p99 per-request
// latency, and --json writes them (latency keys end in _ms so
// tools/check_bench.py gates them lower-is-better). With --smoke the
// sweep shrinks to one round — the CI high-connection smoke.
//
// --dupes switches to the duplicate-heavy thundering-herd mode: 16
// clients stream the same Zipf-skewed GROUP BY sequence against a
// baseline server (single-flight coalescing and the response byte
// cache both disabled) and a fully hot-pathed one (both enabled),
// bitwise-checking every answer; the gate is the QPS ratio. Ends with a deterministic leader-parked coalescing probe so
// the CI smoke's coalesced_hits assertion never depends on scheduler
// timing. With --smoke the 2x bar no longer sets the exit code; the
// round count is still the positional [rounds].
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.h"

#include "core/themis_db.h"
#include "obs/histogram.h"
#include "server/client.h"
#include "server/query_server.h"
#include "util/logging.h"
#include "util/timer.h"

namespace themis::bench {
namespace {

/// Value of a plain `name value` sample line in a Prometheus text
/// exposition (counters and histogram _count/_sum lines; not labeled
/// samples). CHECK-fails if the sample is absent.
double MetricValue(const std::string& text, const std::string& name) {
  size_t pos = 0;
  while (pos < text.size()) {
    const size_t end = text.find('\n', pos);
    const std::string line =
        text.substr(pos, end == std::string::npos ? end : end - pos);
    if (line.size() > name.size() + 1 && line.compare(0, name.size(), name) == 0 &&
        line[name.size()] == ' ') {
      return std::strtod(line.c_str() + name.size() + 1, nullptr);
    }
    if (end == std::string::npos) break;
    pos = end + 1;
  }
  THEMIS_CHECK(false) << "metric sample not found: " << name;
  return 0;
}

/// Writes the METRICS exposition to `path` (no-op when empty) so CI can
/// hand it to tools/check_metrics.py.
void WriteMetricsOut(const std::string& path, const std::string& text) {
  if (path.empty()) return;
  std::ofstream out(path);
  THEMIS_CHECK(out.good()) << path;
  out << text;
  std::printf("  wrote %s\n", path.c_str());
}

/// Mixed per-relation workload: point lookups plus every 1D and 2D
/// GROUP BY over the schema, all FROM `table`.
std::vector<std::string> MakeRelationWorkload(const DatasetSetup& setup,
                                              const std::string& table,
                                              size_t num_points) {
  const data::SchemaPtr& schema = setup.population.schema();
  std::vector<std::string> sqls;

  Rng rng(2026);
  const auto points = workload::MakeMixedPointQueries(
      setup.population, 2, 3, workload::HitterClass::kRandom, num_points,
      rng);
  for (const auto& q : points) {
    std::string sql = "SELECT COUNT(*) FROM " + table + " WHERE ";
    for (size_t i = 0; i < q.attrs.size(); ++i) {
      if (i > 0) sql += " AND ";
      sql += schema->domain(q.attrs[i]).name() + " = '" +
             schema->domain(q.attrs[i]).Label(q.values[i]) + "'";
    }
    sqls.push_back(std::move(sql));
  }
  for (size_t a = 0; a < schema->num_attributes(); ++a) {
    sqls.push_back("SELECT " + schema->domain(a).name() +
                   ", COUNT(*) FROM " + table + " GROUP BY " +
                   schema->domain(a).name());
    for (size_t b = a + 1; b < schema->num_attributes(); ++b) {
      sqls.push_back("SELECT " + schema->domain(a).name() + ", " +
                     schema->domain(b).name() + ", COUNT(*) FROM " + table +
                     " GROUP BY " + schema->domain(a).name() + ", " +
                     schema->domain(b).name());
    }
  }
  return sqls;
}

void CheckIdentical(const sql::QueryResult& a, const sql::QueryResult& b,
                    const std::string& what) {
  THEMIS_CHECK(a.rows.size() == b.rows.size()) << what;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    THEMIS_CHECK(a.rows[i].group == b.rows[i].group) << what;
    // Bitwise double equality, not approximate.
    THEMIS_CHECK(a.rows[i].values == b.rows[i].values) << what;
  }
}

core::ThemisDb BuildCombinedDb(const DatasetSetup& flights,
                               const DatasetSetup& imdb,
                               const aggregate::AggregateSet& flights_aggs,
                               const aggregate::AggregateSet& imdb_aggs,
                               size_t num_threads) {
  core::ThemisOptions options = BenchOptions();
  options.num_threads = num_threads;
  core::ThemisDb db(options);
  THEMIS_CHECK_OK(db.InsertSample("flights", flights.samples.at("Corners").Clone()));
  for (const auto& spec : flights_aggs.specs()) {
    THEMIS_CHECK_OK(db.InsertAggregate("flights", spec));
  }
  THEMIS_CHECK_OK(db.InsertSample("imdb", imdb.samples.at("R159").Clone()));
  for (const auto& spec : imdb_aggs.specs()) {
    THEMIS_CHECK_OK(db.InsertAggregate("imdb", spec));
  }
  THEMIS_CHECK_OK(db.Build());
  return db;
}

/// One closed-loop cell: `num_clients` threads, each its own connection,
/// looping the interleaved workload `rounds` times with a staggered
/// offset; every answer bitwise-checked. Returns queries per second.
double RunClients(uint16_t port, const std::vector<std::string>& sqls,
                  const std::vector<sql::QueryResult>& expected,
                  size_t num_clients, size_t rounds) {
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < num_clients; ++c) {
    threads.emplace_back([&, c] {
      auto client = server::Client::Connect(port);
      THEMIS_CHECK(client.ok()) << client.status().ToString();
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < sqls.size(); ++i) {
          const size_t q = (i + c) % sqls.size();
          auto result = client->Query(sqls[q]);
          THEMIS_CHECK(result.ok())
              << sqls[q] << ": " << result.status().ToString();
          CheckIdentical(*result, expected[q], sqls[q]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return static_cast<double>(sqls.size() * rounds * num_clients) /
         timer.Seconds();
}

int Run(size_t rounds, bool strict, const std::string& json_path) {
  PrintHeader("Serving micro-bench",
              "closed-loop multi-client TCP serving vs in-process loop");
  BenchScale scale;
  DatasetSetup flights = MakeFlights(scale);
  DatasetSetup imdb = MakeImdb(scale);
  aggregate::AggregateSet flights_aggs =
      MakePaperAggregates(flights.population, flights.covered_attrs, 5, 4);
  aggregate::AggregateSet imdb_aggs =
      MakePaperAggregates(imdb.population, imdb.covered_attrs, 5, 4);

  // Strictly interleaved cross-relation workload.
  const std::vector<std::string> flights_sqls =
      MakeRelationWorkload(flights, "flights", 20);
  const std::vector<std::string> imdb_sqls =
      MakeRelationWorkload(imdb, "imdb", 20);
  std::vector<std::string> sqls;
  for (size_t i = 0; sqls.size() < 120; ++i) {
    sqls.push_back(flights_sqls[i % flights_sqls.size()]);
    sqls.push_back(imdb_sqls[i % imdb_sqls.size()]);
  }

  std::vector<size_t> pool_sizes = {1, 2, 0};  // 0 = hardware
  double hw_single_qps = 0;
  double hw_multi_qps = 0;
  for (const size_t pool_size : pool_sizes) {
    Timer build_timer;
    core::ThemisDb db = BuildCombinedDb(flights, imdb, flights_aggs,
                                        imdb_aggs, pool_size);
    std::printf("  pool=%s: built 2 relations in %.2fs\n",
                pool_size == 0 ? "hw" : std::to_string(pool_size).c_str(),
                build_timer.Seconds());

    // The sequential in-process baseline — also the bitwise oracle.
    std::vector<sql::QueryResult> expected;
    Timer loop_timer;
    for (const std::string& sql : sqls) {
      auto result = db.Query(sql);
      THEMIS_CHECK_OK(result.status());
      expected.push_back(std::move(*result));
    }
    const double loop_qps =
        static_cast<double>(sqls.size()) / loop_timer.Seconds();

    server::QueryServer server(&db.catalog());
    THEMIS_CHECK_OK(server.Start());
    for (const size_t num_clients : {size_t{1}, size_t{4}}) {
      const double qps =
          RunClients(server.port(), sqls, expected, num_clients, rounds);
      std::printf(
          "  pool=%-2s clients=%zu: %8.0f q/s served (bitwise ok; "
          "in-process loop %8.0f q/s)\n",
          pool_size == 0 ? "hw" : std::to_string(pool_size).c_str(),
          num_clients, qps, loop_qps);
      if (pool_size == 0 && num_clients == 1) hw_single_qps = qps;
      if (pool_size == 0 && num_clients == 4) hw_multi_qps = qps;
    }
    auto stats_client = server::Client::Connect(server.port());
    THEMIS_CHECK(stats_client.ok());
    auto stats = stats_client->Stats();
    THEMIS_CHECK(stats.ok()) << stats.status().ToString();
    std::printf(
        "  pool=%-2s stats: served_ok=%zu rejected=%zu "
        "flights result-memo hit-rate %.2f\n",
        pool_size == 0 ? "hw" : std::to_string(pool_size).c_str(),
        stats->server.served_ok, stats->server.rejected_overload,
        stats->relations.at("flights").result_memo.HitRate());
    server.Stop();
  }

  const double speedup =
      hw_single_qps > 0 ? hw_multi_qps / hw_single_qps : 0;
  std::printf("  4 clients vs 1 on the hw pool: %.2fx %s\n", speedup,
              speedup >= 1.3
                  ? "(>= 1.3x: concurrent serving win demonstrated)"
                  : "(below the 1.3x bar)");

  if (!json_path.empty()) {
    server::JsonValue root = server::JsonValue::Object();
    root.Set("bench", server::JsonValue::String("serving"));
    root.Set("rounds",
             server::JsonValue::Number(static_cast<double>(rounds)));
    root.Set("simd_backend",
             server::JsonValue::String(server::HostStatsNow().simd_backend));
    root.Set("hardware_concurrency",
             server::JsonValue::Number(static_cast<double>(
                 std::thread::hardware_concurrency())));
    root.Set("hw_pool_single_client_qps",
             server::JsonValue::Number(hw_single_qps));
    root.Set("hw_pool_four_client_qps",
             server::JsonValue::Number(hw_multi_qps));
    // The gate is the ratio, not the absolute q/s, so the gate survives
    // runner speed changes; tools/check_bench.py compares it across runs.
    server::JsonValue gate = server::JsonValue::Object();
    gate.Set("multi_client_speedup", server::JsonValue::Number(speedup));
    root.Set("gate", std::move(gate));
    std::ofstream out(json_path);
    THEMIS_CHECK(out.good()) << json_path;
    out << root.Dump() << "\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return (strict && speedup < 1.3) ? 1 : 0;
}

/// Both halves of a connection live in this process (client fd + server
/// session fd), so a 1k-connection sweep needs ~2N descriptors: raise
/// the soft RLIMIT_NOFILE toward the hard cap before opening the fleet.
void RaiseFdLimit(size_t needed) {
  rlimit limit{};
  if (::getrlimit(RLIMIT_NOFILE, &limit) != 0) return;
  const rlim_t want = static_cast<rlim_t>(needed);
  if (limit.rlim_cur >= want) return;
  rlimit raised = limit;
  raised.rlim_cur = limit.rlim_max == RLIM_INFINITY
                        ? want
                        : std::min<rlim_t>(want, limit.rlim_max);
  ::setrlimit(RLIMIT_NOFILE, &raised);
}

double PercentileMs(const std::vector<double>& sorted_ms, double q) {
  if (sorted_ms.empty()) return 0;
  const size_t index = static_cast<size_t>(
      q * static_cast<double>(sorted_ms.size() - 1) + 0.5);
  return sorted_ms[std::min(index, sorted_ms.size() - 1)];
}

/// The open-loop mode: `connections` idle sessions parked on the epoll
/// loops while kActiveClients closed-loop clients stream the workload.
/// Every served answer is bitwise-checked, and so is a sample of the
/// idle fleet after the storm — an idle epoll session must answer
/// exactly like a fresh one.
int OpenLoop(size_t connections, size_t rounds, const std::string& json_path,
             const std::string& metrics_out) {
  constexpr size_t kActiveClients = 64;
  PrintHeader("Serving open-loop bench",
              "idle-connection fleet + active clients on the epoll core");
  RaiseFdLimit(2 * connections + 4 * kActiveClients + 512);

  BenchScale scale;
  DatasetSetup flights = MakeFlights(scale);
  aggregate::AggregateSet aggs =
      MakePaperAggregates(flights.population, flights.covered_attrs, 5, 4);
  core::ThemisOptions options = BenchOptions();
  core::ThemisDb db(options);
  THEMIS_CHECK_OK(
      db.InsertSample("flights", flights.samples.at("Corners").Clone()));
  for (const auto& spec : aggs.specs()) {
    THEMIS_CHECK_OK(db.InsertAggregate("flights", spec));
  }
  THEMIS_CHECK_OK(db.Build());

  const std::vector<std::string> sqls =
      MakeRelationWorkload(flights, "flights", 20);
  std::vector<sql::QueryResult> expected;
  for (const std::string& sql : sqls) {
    auto result = db.Query(sql);
    THEMIS_CHECK_OK(result.status());
    expected.push_back(std::move(*result));
  }

  server::QueryServer server(&db.catalog());
  THEMIS_CHECK_OK(server.Start());
  std::printf("  server up on 127.0.0.1:%u, io_threads=%zu\n", server.port(),
              server.io_threads());

  // Park the idle fleet. Each connection costs the server one epoll
  // registration — no thread, no admission slot.
  std::vector<server::Client> idle;
  idle.reserve(connections);
  for (size_t i = 0; i < connections; ++i) {
    auto client = server::Client::Connect(server.port());
    THEMIS_CHECK(client.ok())
        << "connection " << i << ": " << client.status().ToString();
    idle.push_back(std::move(*client));
  }
  {
    auto stats = server::Client::Connect(server.port());
    THEMIS_CHECK(stats.ok());
    auto snapshot = stats->Stats();
    THEMIS_CHECK(snapshot.ok());
    THEMIS_CHECK(snapshot->server.active_connections >= connections)
        << snapshot->server.active_connections;
    std::printf("  idle fleet parked: %zu open sessions on %zu io threads\n",
                snapshot->server.active_connections,
                snapshot->server.io_threads);
  }

  // The active storm: closed-loop clients with per-request latency
  // capture, all answers bitwise-checked against the in-process oracle.
  std::vector<std::vector<double>> latencies(kActiveClients);
  Timer timer;
  std::vector<std::thread> threads;
  for (size_t c = 0; c < kActiveClients; ++c) {
    threads.emplace_back([&, c] {
      auto client = server::Client::Connect(server.port());
      THEMIS_CHECK(client.ok()) << client.status().ToString();
      latencies[c].reserve(rounds * sqls.size());
      for (size_t round = 0; round < rounds; ++round) {
        for (size_t i = 0; i < sqls.size(); ++i) {
          const size_t q = (i + c) % sqls.size();
          Timer request_timer;
          auto result = client->Query(sqls[q]);
          latencies[c].push_back(request_timer.Seconds() * 1e3);
          THEMIS_CHECK(result.ok())
              << sqls[q] << ": " << result.status().ToString();
          CheckIdentical(*result, expected[q], sqls[q]);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const double elapsed = timer.Seconds();
  const double qps =
      static_cast<double>(kActiveClients * rounds * sqls.size()) / elapsed;

  std::vector<double> merged;
  for (const std::vector<double>& per_client : latencies) {
    merged.insert(merged.end(), per_client.begin(), per_client.end());
  }
  std::sort(merged.begin(), merged.end());
  const double p50_ms = PercentileMs(merged, 0.50);
  const double p99_ms = PercentileMs(merged, 0.99);
  std::printf(
      "  %zu idle + %zu active: %8.0f q/s, p50 %.3f ms, p99 %.3f ms "
      "(%zu requests, all bitwise ok)\n",
      connections, kActiveClients, qps, p50_ms, p99_ms, merged.size());

  // The idle fleet survived the storm: a sample of parked sessions must
  // answer bitwise-identically to the oracle.
  for (size_t i = 0; i < connections; i += std::max<size_t>(1, connections / 8)) {
    const size_t q = i % sqls.size();
    auto result = idle[i].Query(sqls[q]);
    THEMIS_CHECK(result.ok())
        << "idle " << i << ": " << result.status().ToString();
    CheckIdentical(*result, expected[q], "idle " + sqls[q]);
  }
  std::printf("  idle sessions answer after the storm: bitwise ok\n");

  // Server-side view of the same storm: the always-on request-latency
  // histogram must have recorded exactly one sample per served request
  // (the METRICS count identity), and its percentiles sit alongside the
  // client-observed ones — the gap between the two is wire + client
  // overhead.
  double server_p50_ms = 0;
  double server_p99_ms = 0;
  {
    auto scraper = server::Client::Connect(server.port());
    THEMIS_CHECK(scraper.ok());
    auto stats = scraper->Stats();
    THEMIS_CHECK(stats.ok()) << stats.status().ToString();
    auto text = scraper->Metrics();
    THEMIS_CHECK(text.ok()) << text.status().ToString();
    const double hist_count =
        MetricValue(*text, "themis_request_latency_seconds_count");
    const double served = static_cast<double>(stats->server.served_ok +
                                              stats->server.served_error);
    THEMIS_CHECK(hist_count == served)
        << "histogram count " << hist_count << " != served " << served;
    const obs::Histogram::Snapshot snap =
        server.metrics().request_latency.TakeSnapshot();
    server_p50_ms = static_cast<double>(snap.Quantile(0.50)) / 1e6;
    server_p99_ms = static_cast<double>(snap.Quantile(0.99)) / 1e6;
    std::printf(
        "  server-side histogram: p50 %.3f ms, p99 %.3f ms "
        "(count %.0f == served_ok + served_error)\n",
        server_p50_ms, server_p99_ms, hist_count);
    WriteMetricsOut(metrics_out, *text);
  }

  if (!json_path.empty()) {
    server::JsonValue root = server::JsonValue::Object();
    root.Set("bench", server::JsonValue::String("serving_open_loop"));
    root.Set("connections",
             server::JsonValue::Number(static_cast<double>(connections)));
    root.Set("active_clients",
             server::JsonValue::Number(static_cast<double>(kActiveClients)));
    root.Set("rounds",
             server::JsonValue::Number(static_cast<double>(rounds)));
    root.Set("io_threads", server::JsonValue::Number(
                               static_cast<double>(server.io_threads())));
    root.Set("simd_backend",
             server::JsonValue::String(server::HostStatsNow().simd_backend));
    root.Set("hardware_concurrency",
             server::JsonValue::Number(static_cast<double>(
                 std::thread::hardware_concurrency())));
    // The _ms suffix marks lower-is-better for tools/check_bench.py;
    // latency gates get a deliberately loose tolerance there because
    // absolute milliseconds vary across runners far more than ratios.
    server::JsonValue gate = server::JsonValue::Object();
    gate.Set("open_loop_qps", server::JsonValue::Number(qps));
    gate.Set("open_loop_p50_ms", server::JsonValue::Number(p50_ms));
    gate.Set("open_loop_p99_ms", server::JsonValue::Number(p99_ms));
    // Informational, deliberately outside the gate: server-side
    // percentiles come from the METRICS histogram (bucket upper bounds,
    // not exact order statistics), so they are not comparable across a
    // bucket-layout change the way the client-observed gates are.
    root.Set("server_p50_ms", server::JsonValue::Number(server_p50_ms));
    root.Set("server_p99_ms", server::JsonValue::Number(server_p99_ms));
    root.Set("gate", std::move(gate));
    std::ofstream out(json_path);
    THEMIS_CHECK(out.good()) << json_path;
    out << root.Dump() << "\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  idle.clear();
  server.Stop();
  THEMIS_CHECK(!server.running());
  std::printf("  graceful shutdown with the fleet connected: ok\n");
  return 0;
}

/// Reusable cyclic barrier: every client arrives, then the step fires.
/// Keeps the herd aligned — without it closed-loop clients drift apart
/// within a few requests and the duplicates stop overlapping in time.
class StepBarrier {
 public:
  explicit StepBarrier(size_t parties) : parties_(parties) {}

  void ArriveAndWait() {
    std::unique_lock<std::mutex> lock(mu_);
    const uint64_t arrived_in = generation_;
    if (++waiting_ == parties_) {
      waiting_ = 0;
      ++generation_;
      cv_.notify_all();
    } else {
      cv_.wait(lock, [&] { return generation_ != arrived_in; });
    }
  }

 private:
  const size_t parties_;
  std::mutex mu_;
  std::condition_variable cv_;
  size_t waiting_ = 0;
  uint64_t generation_ = 0;
};

/// The duplicate-heavy mode the coalescing layer exists for: kClients
/// clients stream the SAME Zipf-skewed sequence over a fixed GROUP BY
/// query set in lockstep (a barrier between steps) — the aligned
/// thundering herd of a real interactive fleet, where a dashboard tick
/// makes every user fire the head queries within milliseconds of each
/// other. The identical workload runs against two server configurations:
/// the baseline (single-flight coalescing and the response byte cache
/// both disabled — exactly the pre-coalescing serving path) and the
/// coalesced server (both enabled). On a cold
/// query the baseline's herd all miss the result memo and execute the
/// plan kClients times; the coalesced server executes it once and
/// attaches the rest as followers. The memo is cleared before every
/// round in both runs so each herd arrives cold, every answer is
/// bitwise-checked against the in-process oracle, and the gate is the
/// QPS ratio — which measures avoided duplicate work, so it holds on any
/// core count.
int Dupes(size_t rounds, bool smoke, const std::string& json_path) {
  constexpr size_t kClients = 16;
  constexpr double kZipfSkew = 1.1;
  PrintHeader("Serving duplicate-heavy bench",
              "Zipf thundering herd: coalesced vs per-request submission");
  BenchScale scale;
  // A cold GROUP BY must cost real work for the measurement to be about
  // redundant execution rather than wire overhead: at the default scale a
  // plan finishes inside one scheduler quantum, the herd serializes, and
  // both configurations degenerate to memo hits.
  scale.flights_rows *= 8;
  DatasetSetup flights = MakeFlights(scale);
  aggregate::AggregateSet aggs =
      MakePaperAggregates(flights.population, flights.covered_attrs, 5, 4);
  core::ThemisOptions options = BenchOptions();
  // One pool thread per herd member: the baseline's duplicate requests
  // must be able to START concurrently (all missing the cold memo) for
  // the run to measure the redundant work coalescing avoids — with a
  // narrow pool the queue itself serializes the herd and the memo hides
  // the problem. The same width serves the coalesced run, where all but
  // one of those threads park as followers. Also guarantees the >= 2
  // threads the deterministic probe below needs on a one-CPU runner.
  options.num_threads =
      std::max<size_t>(kClients, std::thread::hardware_concurrency());
  core::ThemisDb db(options);
  THEMIS_CHECK_OK(
      db.InsertSample("flights", flights.samples.at("Corners").Clone()));
  for (const auto& spec : aggs.specs()) {
    THEMIS_CHECK_OK(db.InsertAggregate("flights", spec));
  }
  THEMIS_CHECK_OK(db.Build());

  // GROUP BY-only query set (num_points = 0): expensive, memoizable —
  // the traffic shape where a herd racing past a cold memo hurts most.
  const std::vector<std::string> sqls =
      MakeRelationWorkload(flights, "flights", 0);
  std::vector<sql::QueryResult> expected;
  for (const std::string& sql : sqls) {
    auto result = db.Query(sql);
    THEMIS_CHECK_OK(result.status());
    expected.push_back(std::move(*result));
  }

  // One shared Zipf-skewed request sequence: every client streams the
  // same draws in the same order, so duplicates align in time. One pass
  // over the workload per round — the memo (shared by both runs) is
  // cleared per round, and coalescing only wins on a query's *first*
  // herd step, so a longer sequence would just dilute the cold fraction
  // with warm-memo steps that measure identically either way.
  const size_t sequence_len = sqls.size();
  std::vector<size_t> sequence;
  sequence.reserve(sequence_len);
  Rng rng(2026);
  for (size_t i = 0; i < sequence_len; ++i) {
    sequence.push_back(static_cast<size_t>(
        rng.Zipf(static_cast<int64_t>(sqls.size()), kZipfSkew)));
  }

  const core::HybridEvaluator* evaluator = db.catalog().evaluator("flights");
  THEMIS_CHECK(evaluator != nullptr);

  server::ServerCounters coalesced_counters;
  core::ResultMemoStats coalesced_memo;
  const auto run = [&](bool coalesced) -> double {
    db.catalog().SetCoalescingEnabled(coalesced);
    server::QueryServer::Options server_options;
    // The response byte cache rides with the coalesced configuration:
    // round 1 of a query is a miss (the herd coalesces into one flight,
    // whose encoded bytes are admitted), and every later round is served
    // from cached bytes on the I/O thread — no admission slot, no pool
    // handoff, no re-encode. The per-round ClearResultMemo below does
    // not touch the byte cache, exactly as a production dashboard's
    // repeat ticks would find it warm.
    server_options.enable_response_cache = coalesced;
    server::QueryServer server(&db.catalog(), server_options);
    THEMIS_CHECK_OK(server.Start());
    double seconds = 0;
    for (size_t round = 0; round < rounds; ++round) {
      evaluator->ClearResultMemo();  // every herd arrives cold
      StepBarrier barrier(kClients);
      Timer timer;
      std::vector<std::thread> threads;
      for (size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&] {
          auto client = server::Client::Connect(server.port());
          THEMIS_CHECK(client.ok()) << client.status().ToString();
          for (const size_t q : sequence) {
            barrier.ArriveAndWait();  // the herd fires together
            auto result = client->Query(sqls[q]);
            THEMIS_CHECK(result.ok())
                << sqls[q] << ": " << result.status().ToString();
            CheckIdentical(*result, expected[q], sqls[q]);
          }
        });
      }
      for (std::thread& t : threads) t.join();
      seconds += timer.Seconds();
    }
    if (coalesced) {
      auto stats_client = server::Client::Connect(server.port());
      THEMIS_CHECK(stats_client.ok());
      auto stats = stats_client->Stats();
      THEMIS_CHECK(stats.ok()) << stats.status().ToString();
      coalesced_counters = stats->server;
      coalesced_memo = stats->relations.at("flights").result_memo;
    }
    server.Stop();
    return static_cast<double>(kClients * rounds * sequence.size()) /
           seconds;
  };

  const double baseline_qps = run(false);
  std::printf("  baseline  (no coalescing, no byte cache): %8.0f q/s\n",
              baseline_qps);
  const double coalesced_qps = run(true);
  std::printf(
      "  coalesced (single-flight + byte cache): %8.0f q/s "
      "(coalesced_hits=%zu flights=%zu response_cache_hits=%zu "
      "responses_encoded=%zu)\n",
      coalesced_qps, coalesced_memo.coalesced_hits,
      coalesced_memo.coalesced_flights,
      coalesced_counters.response_cache_hits,
      coalesced_counters.responses_encoded);
  const double speedup =
      baseline_qps > 0 ? coalesced_qps / baseline_qps : 0;
  std::printf("  duplicate-heavy speedup: %.2fx %s\n", speedup,
              speedup >= 2.0 ? "(>= 2x: coalescing win demonstrated)"
                             : "(below the 2x bar)");

  // Deterministic coalescing probe — the CI assertion that a duplicate
  // burst really attaches followers, independent of scheduler timing:
  // park the first uncached execution until a duplicate has joined its
  // flight, then release and bitwise-check both answers.
  {
    db.catalog().SetCoalescingEnabled(true);
    evaluator->ClearResultMemo();
    const size_t hits_before = evaluator->result_memo_stats().coalesced_hits;
    std::promise<void> release;
    std::shared_future<void> released = release.get_future().share();
    auto first = std::make_shared<std::atomic<bool>>(true);
    evaluator->set_uncached_execute_hook([released, first] {
      if (first->exchange(false)) released.wait();
    });
    server::QueryServer server(&db.catalog());
    THEMIS_CHECK_OK(server.Start());
    auto leader = server::Client::Connect(server.port());
    auto follower = server::Client::Connect(server.port());
    THEMIS_CHECK(leader.ok() && follower.ok());
    const size_t q = sequence.front();
    THEMIS_CHECK_OK(leader->Send(server::EncodeRequest(
        [&] { server::WireRequest r; r.sql = sqls[q]; return r; }())));
    THEMIS_CHECK_OK(follower->Send(server::EncodeRequest(
        [&] { server::WireRequest r; r.sql = sqls[q]; return r; }())));
    while (evaluator->result_memo_stats().coalesced_hits <= hits_before) {
      std::this_thread::yield();
    }
    release.set_value();
    for (auto* client : {&*leader, &*follower}) {
      auto line = client->Receive();
      THEMIS_CHECK(line.ok()) << line.status().ToString();
      auto result = server::DecodeResultResponse(*line);
      THEMIS_CHECK(result.ok()) << *line;
      CheckIdentical(*result, expected[q], sqls[q]);
    }
    evaluator->set_uncached_execute_hook(nullptr);
    server.Stop();
    const size_t probe_hits =
        evaluator->result_memo_stats().coalesced_hits - hits_before;
    THEMIS_CHECK(probe_hits >= 1) << probe_hits;
    THEMIS_CHECK(coalesced_memo.coalesced_hits + probe_hits > 0);
    std::printf(
        "  deterministic duplicate burst: leader executed once, "
        "%zu follower(s) coalesced, answers bitwise ok\n",
        probe_hits);
  }

  if (!json_path.empty()) {
    server::JsonValue root = server::JsonValue::Object();
    root.Set("bench", server::JsonValue::String("serving_dupes"));
    root.Set("rounds",
             server::JsonValue::Number(static_cast<double>(rounds)));
    root.Set("clients",
             server::JsonValue::Number(static_cast<double>(kClients)));
    root.Set("zipf_skew", server::JsonValue::Number(kZipfSkew));
    root.Set("sequence_len", server::JsonValue::Number(
                                 static_cast<double>(sequence.size())));
    root.Set("unique_queries",
             server::JsonValue::Number(static_cast<double>(sqls.size())));
    root.Set("baseline_qps", server::JsonValue::Number(baseline_qps));
    root.Set("coalesced_qps", server::JsonValue::Number(coalesced_qps));
    root.Set("coalesced_hits",
             server::JsonValue::Number(
                 static_cast<double>(coalesced_memo.coalesced_hits)));
    root.Set("response_cache_hits",
             server::JsonValue::Number(static_cast<double>(
                 coalesced_counters.response_cache_hits)));
    root.Set("responses_encoded",
             server::JsonValue::Number(static_cast<double>(
                 coalesced_counters.responses_encoded)));
    root.Set("hardware_concurrency",
             server::JsonValue::Number(static_cast<double>(
                 std::thread::hardware_concurrency())));
    root.Set("simd_backend",
             server::JsonValue::String(server::HostStatsNow().simd_backend));
    // The gate is the ratio — avoided duplicate work, not parallelism —
    // so it transfers across runner core counts and speeds.
    server::JsonValue gate = server::JsonValue::Object();
    gate.Set("dupes_speedup", server::JsonValue::Number(speedup));
    root.Set("gate", std::move(gate));
    std::ofstream out(json_path);
    THEMIS_CHECK(out.good()) << json_path;
    out << root.Dump() << "\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }
  return smoke ? 0 : (speedup >= 2.0 ? 0 : 1);
}

/// The CI smoke: point + GROUP BY + repeat (a byte-cache hit when the
/// cache is on) + STATS + deterministic overload + METRICS (with the
/// histogram-count identity checked) + graceful shutdown against a
/// one-relation server with tracing fully armed. Also micro-checks the
/// EncodeResponse pre-sizing estimate against the actual payload and
/// writes both to the --json snapshot. `no_response_cache` runs the
/// whole sequence with the response byte cache disabled — CI runs both
/// lanes and validates each exposition with tools/check_metrics.py.
int Smoke(const std::string& metrics_out, const std::string& json_path,
          bool no_response_cache) {
  PrintHeader("Serving smoke", "start, query, stats, overload, shutdown");
  BenchScale scale;
  DatasetSetup flights = MakeFlights(scale);
  aggregate::AggregateSet aggs =
      MakePaperAggregates(flights.population, flights.covered_attrs, 5, 4);
  core::ThemisOptions options = BenchOptions();
  options.max_inflight = 1;
  core::ThemisDb db(options);
  THEMIS_CHECK_OK(
      db.InsertSample("flights", flights.samples.at("Corners").Clone()));
  for (const auto& spec : aggs.specs()) {
    THEMIS_CHECK_OK(db.InsertAggregate("flights", spec));
  }
  THEMIS_CHECK_OK(db.Build());

  // One-shot latch: the first admitted request blocks until released so
  // the overload rejection is deterministic; later requests pass through.
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  server::QueryServer::Options server_options;
  server_options.request_hook = [released] { released.wait(); };
  // Trace every request so the smoke exercises the whole observability
  // path: spans recorded per stage, stage histograms populated, and the
  // slow-query log filled — all of which METRICS and STATS then expose.
  server_options.trace_sample_n = 1;
  server_options.slow_query_log_k = 8;
  if (no_response_cache) server_options.enable_response_cache = false;
  server::QueryServer server(&db.catalog(), server_options);
  THEMIS_CHECK_OK(server.Start());
  std::printf("  server up on 127.0.0.1:%u (max_inflight=1, "
              "response cache %s)\n",
              server.port(), no_response_cache ? "off" : "on");

  const std::string point =
      "SELECT COUNT(*) FROM flights WHERE " +
      flights.population.schema()->domain(0).name() + " = '" +
      flights.population.schema()->domain(0).Label(0) + "'";
  const std::string group_by =
      "SELECT " + flights.population.schema()->domain(0).name() +
      ", COUNT(*) FROM flights GROUP BY " +
      flights.population.schema()->domain(0).name();

  auto holder = server::Client::Connect(server.port());
  THEMIS_CHECK(holder.ok());
  THEMIS_CHECK_OK(holder->Send("{\"sql\": \"" + point + "\"}"));
  auto observer = server::Client::Connect(server.port());
  THEMIS_CHECK(observer.ok());
  for (;;) {
    auto stats = observer->Stats();
    THEMIS_CHECK(stats.ok()) << stats.status().ToString();
    if (stats->server.inflight >= 1) break;
    std::this_thread::yield();
  }
  auto rejected = observer->Query(group_by);
  THEMIS_CHECK(rejected.status().code() == StatusCode::kResourceExhausted)
      << rejected.status().ToString();
  std::printf("  overload while slot held: ResourceExhausted (as designed)\n");

  release.set_value();
  auto held = holder->Receive();
  THEMIS_CHECK(held.ok()) << held.status().ToString();
  auto point_result = server::DecodeResultResponse(*held);
  THEMIS_CHECK(point_result.ok()) << *held;
  CheckIdentical(*point_result, *db.Query(point), point);
  std::printf("  point query over the wire: bitwise ok\n");

  auto group_result = observer->Query(group_by);
  THEMIS_CHECK(group_result.ok()) << group_result.status().ToString();
  CheckIdentical(*group_result, *db.Query(group_by), group_by);
  std::printf("  GROUP BY over the wire: bitwise ok\n");

  // Repeat the GROUP BY: with the byte cache on this is an inline hit —
  // served from cached bytes on the I/O thread, no re-encode, yet still
  // counted in served_ok and the latency histogram (the count identity
  // below covers it); with the cache off it executes again. Either way
  // the answer must be bitwise identical.
  auto repeat_result = observer->Query(group_by);
  THEMIS_CHECK(repeat_result.ok()) << repeat_result.status().ToString();
  CheckIdentical(*repeat_result, *group_result, "repeat " + group_by);
  std::printf("  repeated GROUP BY: bitwise ok\n");

  // The EncodeResponse pre-sizing micro-check: the estimate that seeds
  // the reserve must cover the actual GROUP BY payload without being
  // wildly oversized. Loose bounds — it is a heuristic, not a contract.
  const std::string encoded = server::EncodeResultResponse(*group_result);
  const size_t estimate = server::EstimateResultResponseBytes(*group_result);
  const double estimate_ratio =
      static_cast<double>(estimate) / static_cast<double>(encoded.size());
  THEMIS_CHECK(estimate_ratio >= 0.5 && estimate_ratio <= 8.0)
      << "estimate " << estimate << " vs actual " << encoded.size();
  std::printf("  encode size estimate: %zu vs actual %zu (ratio %.2f)\n",
              estimate, encoded.size(), estimate_ratio);

  auto stats = observer->Stats();
  THEMIS_CHECK(stats.ok());
  THEMIS_CHECK(stats->server.served_ok == 3) << stats->server.served_ok;
  THEMIS_CHECK(stats->server.rejected_overload == 1);
  THEMIS_CHECK(stats->relations.at("flights").built);
  if (no_response_cache) {
    THEMIS_CHECK(stats->server.response_cache_hits == 0);
    THEMIS_CHECK(stats->server.response_cache_capacity == 0);
    THEMIS_CHECK(stats->server.responses_encoded == 3)
        << stats->server.responses_encoded;
  } else {
    THEMIS_CHECK(stats->server.response_cache_hits == 1)
        << stats->server.response_cache_hits;
    THEMIS_CHECK(stats->server.responses_encoded == 2)
        << stats->server.responses_encoded;
  }
  std::printf(
      "  STATS: served_ok=3 rejected_overload=1 flights built "
      "(response_cache_hits=%zu responses_encoded=%zu)\n",
      stats->server.response_cache_hits, stats->server.responses_encoded);
  // Inline byte-cache hits skip tracing (they never reach the pool), so
  // the cache-on lane logs one fewer traced request.
  const size_t expected_traced = no_response_cache ? 3 : 2;
  THEMIS_CHECK(stats->slow_queries.size() == expected_traced)
      << stats->slow_queries.size();
  std::printf("  slow-query log: %zu traced requests captured\n",
              stats->slow_queries.size());

  // METRICS over the wire, with the serving invariant checked here too:
  // the always-on request-latency histogram records exactly one sample
  // per served request, so its count must equal served_ok + served_error
  // (overload rejections and inline verbs are excluded on both sides).
  auto metrics_text = observer->Metrics();
  THEMIS_CHECK(metrics_text.ok()) << metrics_text.status().ToString();
  const double hist_count =
      MetricValue(*metrics_text, "themis_request_latency_seconds_count");
  const double served = static_cast<double>(stats->server.served_ok +
                                            stats->server.served_error);
  THEMIS_CHECK(hist_count == served)
      << "histogram count " << hist_count << " != served " << served;
  std::printf(
      "  METRICS: request-latency histogram count %.0f == "
      "served_ok + served_error\n",
      hist_count);
  WriteMetricsOut(metrics_out, *metrics_text);

  if (!json_path.empty()) {
    server::JsonValue root = server::JsonValue::Object();
    root.Set("bench", server::JsonValue::String("serving_smoke"));
    root.Set("response_cache",
             server::JsonValue::Bool(!no_response_cache));
    root.Set("hardware_concurrency",
             server::JsonValue::Number(static_cast<double>(
                 std::thread::hardware_concurrency())));
    root.Set("simd_backend",
             server::JsonValue::String(server::HostStatsNow().simd_backend));
    root.Set("encode_estimate_bytes",
             server::JsonValue::Number(static_cast<double>(estimate)));
    root.Set("encode_actual_bytes",
             server::JsonValue::Number(static_cast<double>(encoded.size())));
    root.Set("encode_estimate_ratio",
             server::JsonValue::Number(estimate_ratio));
    root.Set("response_cache_hits",
             server::JsonValue::Number(static_cast<double>(
                 stats->server.response_cache_hits)));
    root.Set("responses_encoded",
             server::JsonValue::Number(static_cast<double>(
                 stats->server.responses_encoded)));
    std::ofstream out(json_path);
    THEMIS_CHECK(out.good()) << json_path;
    out << root.Dump() << "\n";
    std::printf("  wrote %s\n", json_path.c_str());
  }

  server.Stop();
  THEMIS_CHECK(!server.running());
  std::printf("  graceful shutdown: ok\n");
  return 0;
}

}  // namespace
}  // namespace themis::bench

int main(int argc, char** argv) {
  size_t rounds = 2;
  size_t connections = 0;
  bool strict = false;
  bool smoke = false;
  bool dupes = false;
  bool no_response_cache = false;
  std::string json_path;
  std::string metrics_out;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--strict") == 0) {
      strict = true;
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--dupes") == 0) {
      dupes = true;
    } else if (std::strcmp(argv[i], "--no-response-cache") == 0) {
      no_response_cache = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--metrics-out") == 0 && i + 1 < argc) {
      metrics_out = argv[++i];
    } else if (std::strcmp(argv[i], "--connections") == 0 && i + 1 < argc) {
      connections = static_cast<size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else {
      rounds = static_cast<size_t>(std::strtoul(argv[i], nullptr, 10));
    }
  }
  if (rounds == 0) rounds = 1;
  if (dupes) {
    // --smoke only drops the 2x exit bar; the rounds stay as given, so CI
    // can match the committed snapshot's round count.
    return themis::bench::Dupes(rounds, smoke, json_path);
  }
  if (connections > 0) {
    // Latency percentiles gate the committed snapshot, and check_bench
    // refuses single-round *_ms measurements — so even the CI smoke runs
    // two rounds.
    return themis::bench::OpenLoop(connections, smoke ? 2 : rounds,
                                   json_path, metrics_out);
  }
  return smoke ? themis::bench::Smoke(metrics_out, json_path,
                                      no_response_cache)
               : themis::bench::Run(rounds, strict, json_path);
}
