// themis_cli — an end-to-end command-line open-world database: load a
// biased sample from CSV, load any number of published aggregate reports
// (CSV, header `attr[,attr...],count`), build the model, then answer SQL
// from the command line or an interactive prompt as if the queries ran
// over the population.
//
//   ./themis_cli SAMPLE.csv AGG1.csv [AGG2.csv ...] [--n POP_SIZE]
//                [--query 'SELECT ...'] [--serve [PORT]]
//
// Without --query, reads one SQL statement per line from stdin. With
// --serve, starts the TCP query server on 127.0.0.1:PORT (0 or omitted =
// ephemeral, printed) and serves the line-delimited JSON protocol (see
// README "Serving") until stdin closes or reads "quit"; shutdown drains
// in-flight requests.
//
// Demo (generates its own files):
//   ./themis_cli --demo
#include <cstdio>
#include <cstring>
#include <future>
#include <iostream>

#include "aggregate/aggregate_io.h"
#include "core/themis_db.h"
#include "data/csv.h"
#include "obs/trace.h"
#include "server/client.h"
#include "server/query_server.h"
#include "util/cpu_topology.h"
#include "workload/flights.h"
#include "workload/sampler.h"

using namespace themis;

int Main(int argc, const char** argv);

namespace {

int RunDemo() {
  // Write a sample + two aggregate reports to /tmp and re-read them, to
  // show the full file-based workflow.
  workload::FlightsConfig config;
  config.num_rows = 50000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, "SCorners", 0.1, 5);
  THEMIS_CHECK(sample.ok());
  THEMIS_CHECK_OK(data::WriteCsv(*sample, "/tmp/themis_demo_sample.csv"));
  auto agg1 = aggregate::ComputeAggregate(population,
                                          {workload::FlightsAttrs::kOrigin});
  auto agg2 = aggregate::ComputeAggregate(
      population,
      {workload::FlightsAttrs::kOrigin, workload::FlightsAttrs::kDest});
  THEMIS_CHECK_OK(aggregate::WriteAggregateCsv(
      agg1, *population.schema(), "/tmp/themis_demo_agg_origin.csv"));
  THEMIS_CHECK_OK(aggregate::WriteAggregateCsv(
      agg2, *population.schema(), "/tmp/themis_demo_agg_od.csv"));
  std::printf(
      "demo files written; replaying:\n"
      "  themis_cli /tmp/themis_demo_sample.csv "
      "/tmp/themis_demo_agg_origin.csv /tmp/themis_demo_agg_od.csv "
      "--n %zu --query 'SELECT origin_state, COUNT(*) FROM sample GROUP BY "
      "origin_state'\n\n",
      population.num_rows());
  const char* argv[] = {
      "themis_cli",
      "/tmp/themis_demo_sample.csv",
      "/tmp/themis_demo_agg_origin.csv",
      "/tmp/themis_demo_agg_od.csv",
      "--n",
      "50000",
      "--query",
      "SELECT origin_state, COUNT(*) FROM sample GROUP BY origin_state",
  };
  return Main(8, argv);
}

}  // namespace

int Main(int argc, const char** argv) {
  std::vector<std::string> files;
  std::string query;
  double population_size = 0;
  bool serve = false;
  long serve_port = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--demo") == 0) return RunDemo();
    if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      query = argv[++i];
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      population_size = std::strtod(argv[++i], nullptr);
    } else if (std::strcmp(argv[i], "--serve") == 0) {
      serve = true;
      // Optional port operand (0 = ephemeral) — consumed only when the
      // next argument is entirely digits, so a data file like
      // "2023_aggs.csv" is never mistaken for a port.
      if (i + 1 < argc && argv[i + 1][0] != '\0') {
        char* end = nullptr;
        const long port = std::strtol(argv[i + 1], &end, 10);
        if (end != argv[i + 1] && *end == '\0') {
          serve_port = port;
          ++i;
        }
      }
    } else {
      files.emplace_back(argv[i]);
    }
  }
  if (files.empty() || serve_port < 0 || serve_port > 65535 ||
      (serve && !query.empty())) {
    if (serve && !query.empty()) {
      std::fprintf(stderr, "--query and --serve are mutually exclusive\n");
    }
    std::fprintf(stderr,
                 "usage: themis_cli SAMPLE.csv AGG.csv... [--n N] "
                 "[--query SQL | --serve [PORT]] | --demo\n");
    return 2;
  }

  auto sample = data::ReadCsv(files[0]);
  if (!sample.ok()) {
    std::fprintf(stderr, "error: %s\n", sample.status().ToString().c_str());
    return 1;
  }
  std::printf("loaded sample: %zu rows, %zu attributes\n",
              sample->num_rows(), sample->num_attributes());

  core::ThemisOptions options;
  options.population_size = population_size;
  core::ThemisDb db(options);
  THEMIS_CHECK_OK(db.InsertSample("sample", sample->Clone()));
  for (size_t f = 1; f < files.size(); ++f) {
    auto spec = aggregate::ReadAggregateCsv(*sample->schema(), files[f]);
    if (!spec.ok()) {
      std::fprintf(stderr, "error in %s: %s\n", files[f].c_str(),
                   spec.status().ToString().c_str());
      return 1;
    }
    std::printf("loaded %s\n", spec->Describe(*sample->schema()).c_str());
    THEMIS_CHECK_OK(db.InsertAggregate("sample", std::move(spec).value()));
  }

  Status built = db.Build();
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.ToString().c_str());
    return 1;
  }
  std::printf("model built (population size %.0f)\n\n",
              db.model()->population_size());

  auto run = [&](const std::string& sql) {
    auto result = db.Query(sql);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n", result.status().ToString().c_str());
      return;
    }
    std::printf("%s\n", result->ToString().c_str());
  };

  if (!query.empty()) {
    run(query);
    return 0;
  }
  if (serve) {
    server::QueryServer::Options server_options;
    server_options.port = static_cast<uint16_t>(serve_port);
    // Trace every request so the 'slowlog' command below has entries.
    server_options.trace_sample_n = 1;
    server::QueryServer server(&db.catalog(), server_options);
    Status started = server.Start();
    if (!started.ok()) {
      std::fprintf(stderr, "serve failed: %s\n", started.ToString().c_str());
      return 1;
    }
    server::HostStats host = server::HostStatsNow();
    std::printf("host: %s simd=%s shard_target=%zuB\n",
                util::CpuTopology::Host().ToString().c_str(),
                host.simd_backend.c_str(), host.shard_target_bytes);
    std::printf(
        "serving on 127.0.0.1:%u — line-delimited JSON, e.g.\n"
        "  {\"sql\": \"SELECT ... FROM sample ...\"}\n"
        "  {\"verb\": \"stats\"}\n"
        "  {\"verb\": \"metrics\"}\n"
        "'metrics' on stdin prints the Prometheus exposition, 'slowlog'"
        " the worst traced requests; 'quit' stops with a drain; EOF"
        " (backgrounded/daemonized, stdin < /dev/null) serves until the"
        " process is terminated\n",
        server.port());
    // The operator commands go through a real loopback client, so what
    // they print is exactly what a scraper would see on the wire.
    const auto self_client = [&server]() {
      return server::Client::Connect(server.port());
    };
    std::string line;
    bool quit_requested = false;
    while (std::getline(std::cin, line)) {
      if (line == "quit" || line == "exit") {
        quit_requested = true;
        break;
      }
      if (line == "metrics") {
        auto client = self_client();
        auto text = client.ok() ? client->Metrics()
                                : Result<std::string>(client.status());
        if (text.ok()) {
          std::fputs(text->c_str(), stdout);
        } else {
          std::fprintf(stderr, "metrics failed: %s\n",
                       text.status().ToString().c_str());
        }
        continue;
      }
      if (line == "slowlog") {
        auto client = self_client();
        auto stats = client.ok() ? client->Stats()
                                 : Result<server::ServerStats>(client.status());
        if (!stats.ok()) {
          std::fprintf(stderr, "stats failed: %s\n",
                       stats.status().ToString().c_str());
          continue;
        }
        if (stats->slow_queries.empty()) {
          std::printf("slow-query log is empty (no query served yet)\n");
          continue;
        }
        for (const obs::SlowQueryEntry& entry : stats->slow_queries) {
          std::printf("%.3f ms  [%s]  relation=%s  fingerprint=%s\n  %s\n",
                      entry.total_ns / 1e6, entry.status.c_str(),
                      entry.relation.c_str(), entry.fingerprint.c_str(),
                      entry.sql.c_str());
          for (size_t i = 0; i < obs::kNumStages; ++i) {
            const obs::StageSpan& span = entry.stages[i];
            if (span.count == 0) continue;
            std::printf("    %-18s %9.3f ms  (x%llu)\n",
                        obs::StageName(static_cast<obs::Stage>(i)),
                        span.total_ns / 1e6,
                        static_cast<unsigned long long>(span.count));
          }
        }
        continue;
      }
    }
    if (!quit_requested) {
      // stdin closed without a quit: a backgrounded server would
      // otherwise stop before the first client connects. Park forever;
      // process termination is the shutdown signal in that mode.
      std::promise<void>().get_future().wait();
    }
    server.Stop();
    std::printf("server stopped\n");
    return 0;
  }
  std::string line;
  std::printf("themis> ");
  while (std::getline(std::cin, line)) {
    if (line == "quit" || line == "exit") break;
    if (!line.empty()) run(line);
    std::printf("themis> ");
  }
  return 0;
}

int main(int argc, const char** argv) { return Main(argc, argv); }
