// The repository benchmark: builds the Flights and IMDb
// relations from CSV files, serves them through server::QueryServer, and
// drives one open-loop workload against them over loopback TCP.
//
//   themis_perfbench --workload unique|hot_zipf --seed N
//                    --seconds S --trace 0|1 [--data-dir DIR]
//
// perfbench/run.py builds this binary and runs it. The last stdout line
// is one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics of the traced in-process replay
// with --trace 1. Any wrong answer, failed ingest or failed build exits
// nonzero.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "dataset.h"
#include "loadgen.h"
#include "replay.h"
#include "server/client.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace themis::perfbench {
namespace {

/// Data scale: 5x the paper-bench default population and sample sizes.
constexpr double kScale = 5;
/// Set-ups per run; setup_s is their median. Every set-up but the last,
/// which serves the traffic, is followed by one rebuild cycle per
/// relation, so rebuild_s is the median of kSetupRepeats - 1 rounds.
constexpr size_t kSetupRepeats = 5;
/// Generator connections, one thread each (fewer on a smaller machine).
constexpr size_t kConnections = 2;
/// The hot_zipf working set and its skew.
constexpr size_t kHotTexts = 48;
constexpr double kZipf = 1.1;
/// Requests whose answer error is measured on `unique`.
constexpr size_t kErrorTexts = 2000;
/// Latency slices of the nominal traffic; the reported p50 and p99 are
/// the medians over the slices.
constexpr size_t kNominalWindows = 10;
/// Requests each connection keeps in flight during the peak-throughput
/// segment: with kConnections connections, half the server's default
/// admission bound (ThemisOptions::max_inflight), so a server that keeps
/// up is never driven into refusals.
constexpr size_t kPeakWindow = 64;

/// What differs between the workloads: the open-loop rate of the timed
/// traffic, and the number of closed-loop requests behind peak_qps (two
/// to four seconds' worth on a 4-vCPU host).
struct Workload {
  const char* name;
  double nominal_qps;
  size_t peak_requests;
};
constexpr Workload kWorkloads[] = {
    {"unique", 1000, 40000},
    {"hot_zipf", 60000, 800000},
};

/// kConnections, capped at the machine's hardware threads.
size_t GeneratorConnections() {
  return std::min<size_t>(
      kConnections, std::max<size_t>(1, std::thread::hardware_concurrency()));
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir = ".bench_build/data";
  const Workload* spec = nullptr;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options->workload = value;
    } else if (key == "--seed") {
      options->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options->trace = value == "1";
    } else if (key == "--data-dir") {
      options->data_dir = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", key.c_str());
      return false;
    }
  }
  for (const Workload& workload : kWorkloads) {
    if (options->workload == workload.name) options->spec = &workload;
  }
  if (options->spec == nullptr || options->seconds <= 0) {
    std::fprintf(stderr,
                 "usage: themis_perfbench --workload unique|hot_zipf "
                 "--seed N --seconds S --trace 0|1 [--data-dir DIR]\n");
    return false;
  }
  return true;
}

/// Resident set size fields of /proc/self/status, in bytes.
double ProcStatusBytes(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t n = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, n, field) == 0) {
      return std::atof(line.c_str() + n) * 1024.0;
    }
  }
  return 0;
}

/// The generated request streams of one run. Texts are appended as they
/// are drawn; schedules index into `texts`.
class Streams {
 public:
  static constexpr uint64_t kHotSetSeed = 1948;

  Streams(const Dataset* data, const Options& options)
      : mix_(data, options.seed),
        rng_(options.seed ^ 0x9e3779b97f4a7c15ull),
        hot_(options.workload != "unique") {
    if (!hot_) {
      for (QueryText& text : mix_.CoverEveryShape()) {
        cover_.push_back(Add(std::move(text)));
      }
      return;
    }
    // The hot set is one fixed draw from the mix, so its cold-refill cost
    // is the same in every run; the seed picks which text gets which
    // Zipf rank and the request order.
    QueryMix fixed(data, kHotSetSeed);
    for (size_t i = 0; i < kHotTexts; ++i) {
      hot_set_.push_back(Add(fixed.Next()));
    }
    std::shuffle(hot_set_.begin(), hot_set_.end(), rng_.engine());
    double total = 0;
    for (size_t rank = 1; rank <= kHotTexts; ++rank) {
      total += 1.0 / std::pow(static_cast<double>(rank), kZipf);
      zipf_cdf_.push_back(total);
    }
    for (double& c : zipf_cdf_) c /= total;
  }

  /// Every point attribute set and GROUP BY shape once (unique), or every
  /// hot text once (hot_zipf).
  const std::vector<uint32_t>& first_touch() const {
    return hot_ ? hot_set_ : cover_;
  }
  const std::vector<uint32_t>& hot_set() const { return hot_set_; }

  /// The next `n` requests: fresh texts (unique) or Zipf draws over the
  /// hot set.
  std::vector<uint32_t> Draw(size_t n) {
    std::vector<uint32_t> order;
    order.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      if (hot_) {
        const double u = rng_.UniformDouble();
        const size_t rank = static_cast<size_t>(
            std::lower_bound(zipf_cdf_.begin(), zipf_cdf_.end(), u) -
            zipf_cdf_.begin());
        order.push_back(hot_set_[std::min(rank, hot_set_.size() - 1)]);
      } else {
        order.push_back(Add(mix_.Next()));
      }
    }
    return order;
  }

  const std::vector<QueryText>& texts() const { return texts_; }

 private:
  uint32_t Add(QueryText text) {
    texts_.push_back(std::move(text));
    return static_cast<uint32_t>(texts_.size() - 1);
  }

  QueryMix mix_;
  Rng rng_;
  bool hot_;
  std::vector<QueryText> texts_;
  std::vector<uint32_t> cover_;
  std::vector<uint32_t> hot_set_;
  std::vector<double> zipf_cdf_;
};

/// A built catalog serving on an ephemeral loopback port.
struct Serving {
  std::unique_ptr<core::Catalog> catalog;
  std::unique_ptr<server::QueryServer> server;
  /// Catalog::Build seconds, summed over the relations.
  double build_s = 0;
};

Result<Serving> SetUp(const Dataset& data) {
  Serving serving;
  serving.catalog = std::make_unique<core::Catalog>(
      BenchThemisOptions());
  for (const RelationData& relation : data.relations) {
    THEMIS_RETURN_IF_ERROR(
        IngestRelation(relation, serving.catalog.get(), &serving.build_s));
  }
  // The shipped server configuration: admission control refuses
  // requests past ThemisOptions::max_inflight.
  serving.server = std::make_unique<server::QueryServer>(serving.catalog.get());
  THEMIS_RETURN_IF_ERROR(serving.server->Start());
  return serving;
}

/// STATS counters summed over relations; subtracting two snapshots taken
/// around a segment gives that segment's counts (catalog counters reset
/// when a relation rebuilds, so snapshots never straddle a rebuild).
enum Counter {
  kPlanHits, kPlanMisses, kMemoHits, kMemoMisses, kInferHits, kInferMisses,
  kCoalesced, kRowsScanned, kGroupsEmitted, kFilterKernelRows, kCacheHits,
  kCacheMisses, kEncoded, kBatched, kRejected, kNumCounters
};
using Counters = std::array<double, kNumCounters>;

void Accumulate(const Counters& from, double sign, Counters* into) {
  for (size_t i = 0; i < kNumCounters; ++i) (*into)[i] += sign * from[i];
}

Result<Counters> ReadCounters(server::Client& client) {
  THEMIS_ASSIGN_OR_RETURN(server::ServerStats stats, client.Stats());
  Counters c{};
  for (const auto& [name, relation] : stats.relations) {
    c[kPlanHits] += relation.plan_cache_hits;
    c[kPlanMisses] += relation.plan_cache_misses;
    c[kMemoHits] += relation.result_memo.hits;
    c[kMemoMisses] += relation.result_memo.misses;
    c[kInferHits] += relation.inference_cache.hits;
    c[kInferMisses] += relation.inference_cache.misses;
    c[kCoalesced] += relation.result_memo.coalesced_hits;
    c[kRowsScanned] += relation.executor.rows_scanned;
    c[kGroupsEmitted] += relation.executor.groups_emitted;
    c[kFilterKernelRows] += relation.executor.filter_kernel_rows;
  }
  c[kCacheHits] = stats.server.response_cache_hits;
  c[kCacheMisses] = stats.server.response_cache_misses;
  c[kEncoded] = stats.server.responses_encoded;
  c[kBatched] = stats.server.batched_requests;
  c[kRejected] = stats.server.rejected_overload;
  return c;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// One measured open-loop segment and the catalog counters it moved.
struct Measured {
  Segment segment;
  Counters counters{};
  LatencySummary latency;
};

/// The harness of one run: the catalog being served, the generator, and
/// the expected answer of every text under the current models.
class Harness {
 public:
  Harness(const Dataset* data, Streams* streams)
      : data_(data), streams_(streams) {}

  /// Sets up kSetupRepeats times from the CSV files, keeping the last
  /// catalog serving. Returns the median setup seconds. When `rebuild_s`
  /// is non-null, every catalog but the last then runs one rebuild cycle
  /// per relation (see Rebuild) and the round's mean cycle seconds are
  /// appended to it: each round starts from the same freshly built
  /// relations and does the same work.
  Result<double> SetUpServing(std::vector<double>* rebuild_s) {
    std::vector<double> seconds;
    for (size_t i = 0; i < kSetupRepeats; ++i) {
      // The server must stop before the catalog it fronts goes away.
      generator_.reset();
      stats_client_.reset();
      serving_.server.reset();
      serving_.catalog.reset();
      Timer timer;
      THEMIS_ASSIGN_OR_RETURN(serving_, SetUp(*data_));
      seconds.push_back(timer.Seconds());
      if (rebuild_s == nullptr || i + 1 == kSetupRepeats) continue;
      double cycles_s = 0;
      for (const RelationData& relation : data_->relations) {
        THEMIS_ASSIGN_OR_RETURN(double cycle_s, Rebuild(relation));
        cycles_s += cycle_s;
      }
      rebuild_s->push_back(cycles_s /
                           static_cast<double>(data_->relations.size()));
    }
    THEMIS_ASSIGN_OR_RETURN(
        LoadGenerator generator,
        LoadGenerator::Connect(serving_.server->port(),
                               GeneratorConnections()));
    generator_ = std::make_unique<LoadGenerator>(std::move(generator));
    THEMIS_ASSIGN_OR_RETURN(server::Client client,
                            server::Client::Connect(serving_.server->port()));
    stats_client_ = std::make_unique<server::Client>(std::move(client));
    return Median(seconds);
  }

  /// Sizes the expected-answer table for every drawn text and forgets
  /// all expected answers.
  void Reserve() {
    expected_.assign(streams_->texts().size(), {0, kUnknown});
  }

  /// Extends the expected-answer table to texts drawn since.
  void Grow() { expected_.resize(streams_->texts().size(), {0, kUnknown}); }

  /// Backlog cut-off of open-loop traffic.
  static constexpr double kBacklogS = 2.0;

  /// Runs one segment, open-loop at `rate` or closed-loop with
  /// kPeakWindow requests per connection when `rate` is 0, recording
  /// STATS deltas around it, and summarizes its latency over `windows`
  /// slices (see SummarizeWindows).
  Result<Measured> Run(const std::vector<uint32_t>& order, double rate,
                       size_t windows = 1, std::vector<Outcome> slots = {}) {
    Measured measured;
    THEMIS_ASSIGN_OR_RETURN(Counters before, ReadCounters(*stats_client_));
    // An open-loop connection stops sending once kBacklogS of its
    // arrivals are unanswered: the queue is then growing, not riding out
    // a stall.
    const size_t max_outstanding =
        rate > 0 ? 64 + static_cast<size_t>(std::ceil(
                            rate * kBacklogS /
                            static_cast<double>(GeneratorConnections())))
                 : kPeakWindow;
    THEMIS_ASSIGN_OR_RETURN(
        measured.segment,
        generator_->Run(streams_->texts(), order, rate, max_outstanding,
                        std::move(slots)));
    THEMIS_ASSIGN_OR_RETURN(Counters after, ReadCounters(*stats_client_));
    measured.counters = after;
    Accumulate(before, -1, &measured.counters);
    measured.latency = SummarizeWindows(measured.segment.outcomes, windows);
    return measured;
  }

  /// One rebuild cycle of `relation` on the serving catalog, timed:
  /// publish its 3D aggregate, Build.
  Result<double> Rebuild(const RelationData& relation) {
    Timer timer;
    THEMIS_RETURN_IF_ERROR(PublishAggregate(
        relation.name, relation.rebuild_csv, serving_.catalog.get()));
    THEMIS_RETURN_IF_ERROR(serving_.catalog->Build(relation.name));
    return timer.Seconds();
  }

  /// Checks every answered request of `segment` against the in-process
  /// answer for the same text under the current models, computed by a
  /// fresh evaluator (cold caches) per relation, outside any timed
  /// window. Adds each text's error against the population to `errors`
  /// when `errors` is non-null and the text is in `error_texts`.
  Status Check(const Segment& segment,
               const std::unordered_set<uint32_t>* error_texts,
               std::vector<double>* errors) {
    Grow();
    std::vector<uint32_t> missing;
    std::unordered_set<uint32_t> queued;
    for (const Outcome& outcome : segment.outcomes) {
      if (outcome.kind == Outcome::Kind::kError) {
        return Status::Internal("server answered an error for: " +
                                streams_->texts()[outcome.text].sql);
      }
      if (outcome.kind != Outcome::Kind::kOk) continue;
      if (expected_[outcome.text].second == kUnknown &&
          queued.insert(outcome.text).second) {
        missing.push_back(outcome.text);
      }
    }
    THEMIS_RETURN_IF_ERROR(Expect(missing, error_texts, errors));
    for (const Outcome& outcome : segment.outcomes) {
      if (outcome.kind != Outcome::Kind::kOk) continue;
      const auto& [hash, length] = expected_[outcome.text];
      if (outcome.hash != hash || outcome.length != length) {
        return Status::Internal(
            "served answer differs from the in-process answer for: " +
            streams_->texts()[outcome.text].sql);
      }
    }
    return Status::OK();
  }

  /// Expected bytes of `texts` (and their errors against the population).
  Status Expect(const std::vector<uint32_t>& texts,
                const std::unordered_set<uint32_t>* error_texts,
                std::vector<double>* errors) {
    Grow();
    for (size_t r = 0; r < data_->relations.size(); ++r) {
      const RelationData& relation = data_->relations[r];
      const core::Catalog& catalog = *serving_.catalog;
      core::HybridEvaluator evaluator(catalog.model(relation.name),
                                      relation.name, catalog.pool(),
                                      relation.name);
      std::vector<uint32_t> mine;
      for (uint32_t text : texts) {
        if (streams_->texts()[text].relation == r) mine.push_back(text);
      }
      constexpr size_t kChunk = 512;
      for (size_t begin = 0; begin < mine.size(); begin += kChunk) {
        const size_t end = std::min(mine.size(), begin + kChunk);
        std::vector<std::string> sqls;
        for (size_t i = begin; i < end; ++i) {
          sqls.push_back(streams_->texts()[mine[i]].sql);
        }
        THEMIS_ASSIGN_OR_RETURN(
            std::vector<sql::QueryResult> results,
            evaluator.QueryBatch(sqls, core::AnswerMode::kHybrid));
        std::string bytes;
        for (size_t i = begin; i < end; ++i) {
          const sql::QueryResult& result = results[i - begin];
          server::EncodeResultResponseTo(result, &bytes);
          expected_[mine[i]] = {HashBytes(bytes),
                                static_cast<uint32_t>(bytes.size())};
          if (errors != nullptr && error_texts->count(mine[i]) > 0) {
            THEMIS_ASSIGN_OR_RETURN(double error,
                                    ErrorPct(mine[i], result));
            errors->push_back(error);
          }
        }
      }
    }
    return Status::OK();
  }

  /// Percent difference of `answer` from the exact population answer.
  Result<double> ErrorPct(uint32_t text, const sql::QueryResult& answer) {
    auto cached = truth_.find(text);
    if (cached == truth_.end()) {
      const QueryText& query = streams_->texts()[text];
      THEMIS_ASSIGN_OR_RETURN(sql::SelectStatement stmt, sql::Parse(query.sql));
      THEMIS_ASSIGN_OR_RETURN(
          sql::QueryResult truth,
          data_->relations[query.relation].truth->Execute(
              stmt, serving_.catalog->pool()));
      cached = truth_.emplace(text, std::move(truth)).first;
    }
    return AnswerErrorPct(cached->second, answer);
  }

  core::Catalog& catalog() { return *serving_.catalog; }
  server::QueryServer& server() { return *serving_.server; }
  const Serving& serving() const { return serving_; }

 private:
  const Dataset* data_;
  Streams* streams_;
  Serving serving_;
  std::unique_ptr<LoadGenerator> generator_;
  std::unique_ptr<server::Client> stats_client_;
  /// Per text: hash and length of its in-process answer under the current
  /// models (length kUnknown when not computed yet); reset by every
  /// rebuild.
  static constexpr uint32_t kUnknown = ~0u;
  std::vector<std::pair<uint64_t, uint32_t>> expected_;
  std::unordered_map<uint32_t, sql::QueryResult> truth_;
};

/// Requests of `segment` not answered OK: refused, failed or unsent.
size_t Unanswered(const Segment& segment) {
  size_t bad = 0;
  for (const Outcome& outcome : segment.outcomes) {
    if (outcome.kind != Outcome::Kind::kOk) ++bad;
  }
  return bad;
}

/// Collected per-run results, printed at the end.
struct Report {
  bool correct = true;
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::pair<std::string, std::pair<double, std::string>>> metrics;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, {value, unit}});
  }
  /// Every scheduled request counts as attempted; a refusal, an error
  /// or a request left unsent behind a growing backlog as failed.
  void Count(const Segment& segment) {
    attempted += segment.outcomes.size();
    failed += Unanswered(segment);
  }
};

std::string ConfigJson(const Options& options, const Harness& harness,
                       const Dataset& data) {
  const server::HostStats host = server::HostStatsNow();
  server::JsonValue config = server::JsonValue::Object();
  auto num = [](double v) { return server::JsonValue::Number(v); };
  config.Set("workload", server::JsonValue::String(options.workload));
  config.Set("seed", num(static_cast<double>(options.seed)));
  config.Set("seconds", num(options.seconds));
  config.Set("trace", server::JsonValue::Bool(options.trace));
  config.Set("nproc", num(std::thread::hardware_concurrency()));
  config.Set("simd_backend", server::JsonValue::String(host.simd_backend));
  config.Set("l1d_bytes", num(static_cast<double>(host.l1d_bytes)));
  config.Set("l2_bytes", num(static_cast<double>(host.l2_bytes)));
  config.Set("l3_bytes", num(static_cast<double>(host.l3_bytes)));
  config.Set("shard_target_bytes",
             num(static_cast<double>(host.shard_target_bytes)));
  config.Set("scale", num(data.scale));
  for (const RelationData& relation : data.relations) {
    config.Set(relation.name + "_population_rows",
               num(static_cast<double>(relation.population.num_rows())));
    config.Set(relation.name + "_sample_rows",
               num(static_cast<double>(relation.sample_rows)));
  }
  const core::ThemisOptions themis = BenchThemisOptions();
  config.Set("k_bn_samples",
             num(static_cast<double>(themis.bn_group_by_samples)));
  config.Set("bn_sample_rows", num(static_cast<double>(themis.bn_sample_rows)));
  config.Set("aggregate_budget",
             num(static_cast<double>(themis.aggregate_budget)));
  config.Set("pool_threads", num(static_cast<double>(
                                 harness.serving().catalog->pool()->num_threads())));
  config.Set("io_threads",
             num(static_cast<double>(harness.serving().server->io_threads())));
  config.Set("max_inflight", num(static_cast<double>(themis.max_inflight)));
  config.Set("connections", num(static_cast<double>(GeneratorConnections())));
  config.Set("generator_threads",
             num(static_cast<double>(GeneratorConnections())));
  config.Set("setup_repeats", num(static_cast<double>(kSetupRepeats)));
  config.Set("nominal_qps", num(options.spec->nominal_qps));
  config.Set("peak_requests",
             num(static_cast<double>(options.spec->peak_requests)));
  config.Set("peak_window_per_connection",
             num(static_cast<double>(kPeakWindow)));
  config.Set("hot_texts", num(static_cast<double>(kHotTexts)));
  config.Set("zipf", num(kZipf));
  return config.Dump();
}

void PrintLatency(const char* what, const Measured& m) {
  std::printf(
      "  %-14s %8.0f req/s  n=%zu  p50 %.3f ms  p%.1f %.3f ms  "
      "late p99 %.3f ms max %.3f ms  final-fifth p50 %.3f ms%s\n",
      what, m.segment.rate, m.latency.samples, m.latency.p50_ms,
      m.latency.tail_percentile, m.latency.tail_ms, m.latency.late_p99_ms,
      m.latency.late_max_ms, m.latency.final_fifth_p50_ms,
      m.segment.aborted ? "  [backlog: stopped sending]" : "");
}


/// Prints and records the hit-rate evidence of the timed segments.
void HitRates(const Counters& c, double requests, Report* report,
              bool as_metrics) {
  const std::vector<std::pair<std::string, double>> rates = {
      {"core.plan_cache_hit_rate",
       Ratio(c[kPlanHits], c[kPlanHits] + c[kPlanMisses])},
      // The server plans a response-cache miss twice (cache-key lookup,
      // then execution), so a never-repeated text shows a 0.5 hit rate;
      // misses per request is the cache-bypass evidence.
      {"core.plan_cache_misses_per_request", Ratio(c[kPlanMisses], requests)},
      {"core.result_memo_hit_rate",
       Ratio(c[kMemoHits], c[kMemoHits] + c[kMemoMisses])},
      {"server.response_cache_hit_rate",
       Ratio(c[kCacheHits], c[kCacheHits] + c[kCacheMisses])},
      {"bn.inference_cache_hit_rate",
       Ratio(c[kInferHits], c[kInferHits] + c[kInferMisses])},
      {"core.coalesced_share", Ratio(c[kCoalesced], requests)},
      {"server.batched_share", Ratio(c[kBatched], requests)},
      {"server.rejected_share", Ratio(c[kRejected], requests)},
      {"server.responses_encoded_per_request", Ratio(c[kEncoded], requests)},
  };
  std::printf("  hit rates over %.0f timed requests (STATS deltas):\n", requests);
  for (const auto& [name, value] : rates) {
    std::printf("    %-38s %.4f\n", name.c_str(), value);
    if (as_metrics) {
      const bool per_request = name.size() > 12 &&
                               name.compare(name.size() - 12, 12,
                                            "_per_request") == 0;
      report->Add(name, value, per_request ? "count" : "ratio");
    }
  }
}

Status RunEndToEnd(const Options& options, const Dataset& data,
                   Streams& streams, Harness& harness, Report* report) {
  const bool unique = options.workload == "unique";
  const double nominal_qps = options.spec->nominal_qps;

  // Every request text and every outcome slot exists before the baseline
  // is read, so memory_mb counts what the system allocates rather than
  // the generator's bookkeeping.
  const std::vector<uint32_t> warm_order =
      streams.Draw(static_cast<size_t>(nominal_qps));
  const std::vector<uint32_t> nominal_order =
      streams.Draw(static_cast<size_t>(nominal_qps * options.seconds));
  const std::vector<uint32_t> peak_warm_order =
      streams.Draw(options.spec->peak_requests);
  const std::vector<uint32_t> peak_order =
      streams.Draw(options.spec->peak_requests);
  std::vector<Outcome> nominal_slots(nominal_order.size());
  std::vector<Outcome> peak_warm_slots(peak_warm_order.size());
  std::vector<Outcome> peak_slots(peak_order.size());
  harness.Reserve();
  const double baseline_rss = ProcStatusBytes("VmRSS:");

  std::vector<double> rebuild_s;
  THEMIS_ASSIGN_OR_RETURN(double setup_s, harness.SetUpServing(&rebuild_s));
  std::printf("config: %s\n", ConfigJson(options, harness, data).c_str());
  std::printf("  setup: median %.4f s of %zu (CSV + aggregate CSVs -> both "
              "relations built and serving); rebuild cycle: median %.4f s "
              "of %zu rounds\n",
              setup_s, kSetupRepeats, Median(rebuild_s), rebuild_s.size());

  // Answers are checked after the peak memory is read, so the in-process
  // reference answers do not count as the system's memory.
  std::vector<Measured> to_check;
  std::vector<double> errors;
  std::unordered_set<uint32_t> error_texts;

  // Warm-up: the first touch of every shape / hot text, then one second
  // of traffic drawn like the timed stream (fresh texts on unique).
  THEMIS_ASSIGN_OR_RETURN(Measured first,
                          harness.Run(streams.first_touch(), 500));
  to_check.push_back(std::move(first));
  THEMIS_ASSIGN_OR_RETURN(Measured warm, harness.Run(warm_order, nominal_qps));
  to_check.push_back(std::move(warm));

  // The timed traffic: --seconds open-loop at the nominal rate. Its p50
  // and p99 are the medians over kNominalWindows consecutive slices: a
  // scheduling stall of a shared host lifts the p99 of the one slice it
  // falls in, while a tail the server itself adds shows in most slices.
  THEMIS_ASSIGN_OR_RETURN(
      Measured nominal, harness.Run(nominal_order, nominal_qps,
                                    kNominalWindows, std::move(nominal_slots)));
  PrintLatency("nominal", nominal);
  report->Count(nominal.segment);
  if (unique) {
    // Answer error over an even spread of the nominal stream's texts.
    const size_t stride =
        std::max<size_t>(1, nominal.segment.outcomes.size() / kErrorTexts);
    for (size_t i = 0; i < nominal.segment.outcomes.size(); i += stride) {
      error_texts.insert(nominal.segment.outcomes[i].text);
    }
  }
  const LatencySummary at_nominal = nominal.latency;
  const LatencySummary pooled = Summarize(nominal.segment.outcomes);
  Counters counters = nominal.counters;
  const double timed_requests =
      static_cast<double>(nominal.segment.outcomes.size());
  to_check.push_back(std::move(nominal));
  const double peak_rss = ProcStatusBytes("VmHWM:");

  // Peak throughput: the same mix closed-loop, each connection keeping
  // kPeakWindow requests in flight, so the server never waits for work.
  // An unmeasured segment of the same size runs first: the first seconds
  // of full load after quiet traffic run far slower (on a 4-vCPU VM,
  // about half the rate) while idle vCPUs come back and the allocator's
  // per-thread arenas grow. Memory of this phase is left out of
  // memory_mb, which covers the traffic the workload is defined by.
  THEMIS_ASSIGN_OR_RETURN(
      Measured peak_warm,
      harness.Run(peak_warm_order, 0, 1, std::move(peak_warm_slots)));
  to_check.push_back(std::move(peak_warm));
  THEMIS_ASSIGN_OR_RETURN(Measured peak,
                          harness.Run(peak_order, 0, 1, std::move(peak_slots)));
  int64_t first_send = std::numeric_limits<int64_t>::max();
  int64_t last_recv = 0;
  for (const Outcome& outcome : peak.segment.outcomes) {
    first_send = std::min(first_send, outcome.send_ns);
    last_recv = std::max(last_recv, outcome.recv_ns);
  }
  const size_t peak_unanswered = Unanswered(peak.segment);
  const double peak_qps =
      static_cast<double>(peak.segment.outcomes.size() - peak_unanswered) /
      (static_cast<double>(last_recv - first_send) / 1e9);
  std::printf("  peak: %zu requests closed-loop, %zu in flight: %.0f req/s "
              "answered, %zu refused or failed\n",
              peak.segment.outcomes.size(),
              kPeakWindow * GeneratorConnections(), peak_qps, peak_unanswered);
  to_check.push_back(std::move(peak));

  for (const Measured& m : to_check) {
    THEMIS_RETURN_IF_ERROR(
        harness.Check(m.segment, &error_texts, unique ? &errors : nullptr));
  }
  if (!unique) {
    // Answer quality of the hot texts.
    std::unordered_set<uint32_t> all(streams.hot_set().begin(),
                                     streams.hot_set().end());
    THEMIS_RETURN_IF_ERROR(harness.Expect(streams.hot_set(), &all, &errors));
  }
  HitRates(counters, timed_requests, report, /*as_metrics=*/false);
  const double answered =
      static_cast<double>(report->attempted - report->failed);
  std::printf("  failed_share %.6f (%zu of %zu attempted)\n",
              Ratio(static_cast<double>(report->failed),
                    static_cast<double>(report->attempted)),
              report->failed, report->attempted);
  std::printf("  latency at nominal: n=%zu in %zu slices, median over the "
              "slices of p50 %.4f ms and p%.1f %.4f ms (%zu samples beyond "
              "it per slice); pooled p50 %.4f ms p%.1f %.4f ms\n",
              at_nominal.samples, kNominalWindows, at_nominal.p50_ms,
              at_nominal.tail_percentile, at_nominal.tail_ms,
              static_cast<size_t>(static_cast<double>(at_nominal.samples) /
                                  kNominalWindows *
                                  (1 - at_nominal.tail_percentile / 100)),
              pooled.p50_ms, pooled.tail_percentile, pooled.tail_ms);
  std::printf("  answer error over %zu answers\n", errors.size());
  // Printed, but left out of the result line: on a shared 4-vCPU VM their
  // spread between runs (interquartile range over ten seeds as a share of
  // the median) is wider than the largest regression bound, 0.25.
  std::printf("  latency_p99_ms %.4f ms, rebuild_s %.4f s, peak_qps %.0f "
              "req/s (not in the result line)\n",
              at_nominal.tail_ms, Median(rebuild_s), peak_qps);

  report->Add("setup_s", setup_s, "s");
  report->Add("latency_p50_ms", at_nominal.p50_ms, "ms");
  report->Add("answered_share",
              Ratio(answered, static_cast<double>(report->attempted)),
              "ratio");
  report->Add("answer_error_pct", Median(errors), "%");
  report->Add("memory_mb", (peak_rss - baseline_rss) / (1024.0 * 1024.0),
              "MiB");
  return Status::OK();
}

Status RunTraced(const Options& options, const Dataset& data,
                 Streams& streams, Harness& harness, Report* report) {
  THEMIS_ASSIGN_OR_RETURN(double setup_s, harness.SetUpServing(nullptr));
  std::printf("config: %s\n", ConfigJson(options, harness, data).c_str());
  std::printf("  setup: %.4f s\n", setup_s);

  // Build replica of the catalog's models.
  BuildReplica sum;
  double ipf_converged = 0;
  double staged_s = 0;  // the catalog builds' BuildStats stage seconds
  for (const RelationData& relation : data.relations) {
    const core::ThemisModel* model = harness.catalog().model(relation.name);
    THEMIS_ASSIGN_OR_RETURN(BuildReplica r, ReplicateBuild(relation, *model));
    const core::BuildStats& stats = model->build_stats();
    std::printf(
        "  build replica %-8s bitwise equal to the catalog model; stage "
        "seconds replica/BuildStats: ipf %.3f/%.3f structure %.3f/%.3f "
        "parameter %.3f/%.3f sample %.3f/%.3f\n",
        relation.name.c_str(), r.ipf_s, stats.reweight_seconds, r.structure_s,
        stats.bn_structure_seconds, r.parameter_s, stats.bn_parameter_seconds,
        r.sample_s, stats.generate_seconds);
    staged_s += stats.reweight_seconds + stats.bn_structure_seconds +
                stats.bn_parameter_seconds + stats.generate_seconds;
    sum.read_csv_s += r.read_csv_s;
    sum.rows += r.rows;
    sum.read_aggregates_s += r.read_aggregates_s;
    sum.prune_s += r.prune_s;
    sum.offered += r.offered;
    sum.kept += r.kept;
    sum.ipf_s += r.ipf_s;
    sum.ipf_iterations += r.ipf_iterations;
    ipf_converged += r.ipf_converged ? 1 : 0;
    sum.ipf_max_violation = std::max(sum.ipf_max_violation, r.ipf_max_violation);
    sum.learn_s += r.learn_s;
    sum.structure_s += r.structure_s;
    sum.parameter_s += r.parameter_s;
    sum.edges += r.edges;
    sum.sample_s += r.sample_s;
  }
  const double build_s = harness.serving().build_s;

  // Two replay states with cold caches: A answers untraced, B traced.
  ReplayState untraced(&harness.catalog(), &data);
  ReplayState traced(&harness.catalog(), &data);
  auto replay_untimed = [&](const Segment& segment) -> Status {
    for (const Outcome& outcome : segment.outcomes) {
      const std::string& line = streams.texts()[outcome.text].line;
      THEMIS_RETURN_IF_ERROR(untraced.Answer(line, nullptr).status());
      THEMIS_RETURN_IF_ERROR(traced.Answer(line, nullptr).status());
    }
    return Status::OK();
  };
  THEMIS_ASSIGN_OR_RETURN(Measured first,
                          harness.Run(streams.first_touch(), 500));
  THEMIS_RETURN_IF_ERROR(harness.Check(first.segment, nullptr, nullptr));
  THEMIS_RETURN_IF_ERROR(replay_untimed(first.segment));
  THEMIS_ASSIGN_OR_RETURN(
      Measured warm,
      harness.Run(streams.Draw(static_cast<size_t>(options.spec->nominal_qps)),
                  options.spec->nominal_qps));
  THEMIS_RETURN_IF_ERROR(harness.Check(warm.segment, nullptr, nullptr));
  THEMIS_RETURN_IF_ERROR(replay_untimed(warm.segment));

  ReplayTotals totals;
  Counters counters{};
  double served_ns = 0;
  double untraced_ns = 0;
  std::vector<double> replay_ms;
  size_t requests = 0;
  // Half of --seconds of served traffic: the replay below answers it
  // twice more in-process.
  const double nominal_s = options.seconds / 2;
  THEMIS_ASSIGN_OR_RETURN(
      Measured m,
      harness.Run(streams.Draw(static_cast<size_t>(
                      options.spec->nominal_qps * nominal_s)),
                  options.spec->nominal_qps));
  PrintLatency("served", m);
  THEMIS_RETURN_IF_ERROR(harness.Check(m.segment, nullptr, nullptr));
  report->Count(m.segment);
  Accumulate(m.counters, 1, &counters);
  // The untraced pass over the whole segment first, then the traced one,
  // so neither runs on CPU caches the other just warmed for the same
  // request.
  for (const Outcome& outcome : m.segment.outcomes) {
    if (outcome.kind != Outcome::Kind::kOk) continue;
    const std::string& line = streams.texts()[outcome.text].line;
    const int64_t begin = util::SteadyNowNs();
    THEMIS_ASSIGN_OR_RETURN(std::string bytes, untraced.Answer(line, nullptr));
    const int64_t request_ns = util::SteadyNowNs() - begin;
    untraced_ns += static_cast<double>(request_ns);
    replay_ms.push_back(static_cast<double>(request_ns) / 1e6);
    served_ns += static_cast<double>(outcome.recv_ns - outcome.due_ns);
    ++requests;
    if (HashBytes(bytes) != outcome.hash) {
      return Status::Internal("in-process replay differs from the served "
                              "answer for: " +
                              streams.texts()[outcome.text].sql);
    }
  }
  for (const Outcome& outcome : m.segment.outcomes) {
    if (outcome.kind != Outcome::Kind::kOk) continue;
    THEMIS_ASSIGN_OR_RETURN(
        std::string bytes,
        traced.Answer(streams.texts()[outcome.text].line, &totals));
    if (HashBytes(bytes) != outcome.hash) {
      return Status::Internal("traced replay differs from the served "
                              "answer for: " +
                              streams.texts()[outcome.text].sql);
    }
  }

  const double n = static_cast<double>(std::max<size_t>(1, requests));
  auto us = [&](Span span) {
    return static_cast<double>(totals.span_ns[static_cast<size_t>(span)]) /
           n / 1e3;
  };
  std::printf("  replay: %zu requests, %zu response-cache hits, %zu encodes; "
              "untraced in-process time p50 %.3f ms p99 %.3f ms max %.3f ms\n",
              totals.requests, totals.cache_hits, totals.encodes,
              Quantile(replay_ms, 0.5), Quantile(replay_ms, 0.99),
              Quantile(replay_ms, 1.0));

  report->Add("data.read_csv_s", sum.read_csv_s, "s");
  report->Add("data.rows_per_s",
              Ratio(static_cast<double>(sum.rows), sum.read_csv_s), "rows/s");
  report->Add("aggregate.read_csv_s", sum.read_aggregates_s, "s");
  report->Add("aggregate.prune_s", sum.prune_s, "s");
  report->Add("aggregate.offered", static_cast<double>(sum.offered), "count");
  report->Add("aggregate.kept", static_cast<double>(sum.kept), "count");
  report->Add("reweight.ipf_s", sum.ipf_s, "s");
  report->Add("reweight.ipf_iterations", sum.ipf_iterations, "count");
  report->Add("reweight.ipf_converged",
              ipf_converged / static_cast<double>(data.relations.size()),
              "ratio");
  report->Add("reweight.ipf_max_violation", sum.ipf_max_violation, "ratio");
  report->Add("bn.structure_s", sum.structure_s, "s");
  report->Add("bn.parameter_s", sum.parameter_s, "s");
  report->Add("bn.edges", static_cast<double>(sum.edges), "count");
  report->Add("bn.sample_s", sum.sample_s, "s");
  report->Add("core.build_s", build_s, "s");
  // What the catalog builds' own BuildStats stages, plus the replica's
  // pruning time (BuildStats does not record it), leave out.
  report->Add("core.build_unaccounted_s", build_s - staged_s - sum.prune_s,
              "s");

  report->Add("server.decode_us", us(Span::kDecode), "us");
  report->Add("server.cache_probe_us", us(Span::kCacheProbe), "us");
  report->Add("core.route_us", us(Span::kRoute), "us");
  report->Add("sql.parse_us", us(Span::kParse), "us");
  report->Add("core.plan_us",
              std::max(0.0, us(Span::kPlan) - us(Span::kParse)), "us");
  report->Add("core.execute_us", us(Span::kExecute), "us");
  report->Add("core.sample_lookup_us", us(Span::kSampleLookup), "us");
  report->Add("bn.infer_us", us(Span::kInfer), "us");
  report->Add("sql.scan_sample_us", us(Span::kScanSample), "us");
  report->Add("sql.scan_bn_us", us(Span::kScanBn), "us");
  report->Add("core.merge_us",
              static_cast<double>(totals.execute_self_ns) / n / 1e3, "us");
  report->Add("server.encode_us", us(Span::kEncode), "us");
  report->Add("server.io_us", (served_ns - untraced_ns) / n / 1e3, "us");
  report->Add("replay.request_us", untraced_ns / n / 1e3, "us");
  report->Add("replay.unaccounted_share",
              Ratio(static_cast<double>(totals.unaccounted_ns),
                    static_cast<double>(totals.request_ns)),
              "ratio");
  report->Add("trace.overhead_us",
              (static_cast<double>(totals.request_ns) - untraced_ns) / n / 1e3,
              "us");
  report->Add("core.bn_answer_share",
              Ratio(static_cast<double>(totals.points_from_bn),
                    static_cast<double>(totals.points_executed)),
              "ratio");
  report->Add("sql.rows_scanned_per_row_returned",
              Ratio(counters[kRowsScanned], counters[kGroupsEmitted]), "ratio");
  report->Add("simd.filter_kernel_rows_per_request",
              Ratio(counters[kFilterKernelRows], n), "count");
  HitRates(counters, n, report, /*as_metrics=*/true);
  return Status::OK();
}

int Main(int argc, char** argv) {
  Options options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  Timer wall;
  auto data = PrepareDataset(options.data_dir, kScale);
  if (!data.ok()) {
    std::fprintf(stderr, "dataset: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Streams streams(&*data, options);
  Harness harness(&*data, &streams);
  Report report;
  std::printf("workload %s, seed %llu\n", options.workload.c_str(),
              static_cast<unsigned long long>(options.seed));
  const Status status =
      options.trace ? RunTraced(options, *data, streams, harness, &report)
                    : RunEndToEnd(options, *data, streams, harness, &report);
  if (!status.ok()) {
    std::fprintf(stderr, "FAILED: %s\n", status.ToString().c_str());
    report.correct = false;
  }
  for (const auto& [name, metric] : report.metrics) {
    std::printf("  %-38s %.6g %s\n", name.c_str(), metric.first,
                metric.second.c_str());
  }
  std::printf("  run wall time %.1f s\n", wall.Seconds());
  server::JsonValue result = server::JsonValue::Object();
  result.Set("correct", server::JsonValue::Bool(report.correct));
  result.Set("attempted", server::JsonValue::Number(
                              static_cast<double>(std::max<size_t>(1, report.attempted))));
  result.Set("failed",
             server::JsonValue::Number(static_cast<double>(report.failed)));
  server::JsonValue metrics = server::JsonValue::Object();
  for (const auto& [name, metric] : report.metrics) {
    server::JsonValue entry = server::JsonValue::Object();
    entry.Set("value", server::JsonValue::Number(metric.first));
    entry.Set("unit", server::JsonValue::String(metric.second));
    metrics.Set(name, entry);
  }
  result.Set("metrics", metrics);
  std::printf("%s\n", result.Dump().c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

}  // namespace
}  // namespace themis::perfbench

int main(int argc, char** argv) {
  return themis::perfbench::Main(argc, argv);
}
