// Tests for the async serving front-end: the line-delimited JSON wire
// protocol, server::QueryServer on the catalog's shared thread pool, and
// server::Client. Proves N concurrent clients receive answers bitwise
// identical to a sequential in-process Query() loop at pool sizes 1/2/hw,
// that batched requests ride the catalog's cross-relation QueryBatch,
// the error mapping over the wire (NotFound / FailedPrecondition /
// InvalidArgument / ResourceExhausted), the STATS verb, admission
// control, and graceful drain-on-shutdown.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/themis_db.h"
#include "server/client.h"
#include "server/query_server.h"
#include "server/wire.h"
#include "simd/simd.h"
#include "sql/executor.h"
#include "util/cpu_topology.h"
#include "util/thread_pool.h"

namespace themis::server {
namespace {

using core::AnswerMode;
using core::ThemisDb;
using core::ThemisOptions;

/// The catalog_test fixture's two small relations (flights + shops), plus
/// a third that is registered but never built.
class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    flights_schema_ = std::make_shared<data::Schema>();
    flights_schema_->AddAttribute("date", {"01", "02"});
    flights_schema_->AddAttribute("o_st", {"FL", "NC", "NY"});
    flights_schema_->AddAttribute("d_st", {"FL", "NC", "NY"});
    flights_population_ = std::make_unique<data::Table>(flights_schema_);
    const char* fp[][3] = {
        {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
        {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
        {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
        {"02", "NY", "NY"}};
    for (const auto& r : fp) {
      flights_population_->AppendRowLabels({r[0], r[1], r[2]});
    }
    flights_sample_ = std::make_unique<data::Table>(flights_schema_);
    const char* fs[][3] = {{"01", "FL", "FL"},
                           {"01", "FL", "FL"},
                           {"02", "NC", "NY"},
                           {"01", "NY", "NC"}};
    for (const auto& r : fs) {
      flights_sample_->AppendRowLabels({r[0], r[1], r[2]});
    }

    shops_schema_ = std::make_shared<data::Schema>();
    shops_schema_->AddAttribute("city", {"AA", "BB", "CC"});
    shops_schema_->AddAttribute("kind", {"K1", "K2"});
    shops_population_ = std::make_unique<data::Table>(shops_schema_);
    const char* sp[][2] = {{"AA", "K1"}, {"AA", "K1"}, {"AA", "K2"},
                           {"BB", "K1"}, {"BB", "K2"}, {"BB", "K2"},
                           {"CC", "K1"}, {"CC", "K2"}, {"CC", "K2"},
                           {"CC", "K2"}, {"AA", "K2"}, {"BB", "K1"}};
    for (const auto& r : sp) {
      shops_population_->AppendRowLabels({r[0], r[1]});
    }
    shops_sample_ = std::make_unique<data::Table>(shops_schema_);
    const char* ss[][2] = {
        {"AA", "K1"}, {"BB", "K2"}, {"CC", "K2"}, {"CC", "K2"}, {"AA", "K2"}};
    for (const auto& r : ss) shops_sample_->AppendRowLabels({r[0], r[1]});
  }

  ThemisOptions FastOptions(size_t num_threads = 0) const {
    ThemisOptions options;
    options.bn_group_by_samples = 5;
    options.bn_sample_rows = 50;
    options.num_threads = num_threads;
    return options;
  }

  /// Builds flights + shops and registers (without building) "pending".
  std::unique_ptr<ThemisDb> MakeDb(ThemisOptions options) const {
    auto db = std::make_unique<ThemisDb>(options);
    EXPECT_TRUE(db->InsertSample("flights", flights_sample_->Clone()).ok());
    EXPECT_TRUE(
        db->InsertAggregateFrom("flights", *flights_population_, {"date"})
            .ok());
    EXPECT_TRUE(db->InsertAggregateFrom("flights", *flights_population_,
                                        {"o_st", "d_st"})
                    .ok());
    EXPECT_TRUE(db->InsertSample("shops", shops_sample_->Clone()).ok());
    EXPECT_TRUE(
        db->InsertAggregateFrom("shops", *shops_population_, {"city"}).ok());
    EXPECT_TRUE(db->InsertAggregateFrom("shops", *shops_population_,
                                        {"city", "kind"})
                    .ok());
    EXPECT_TRUE(db->Build("flights").ok());
    EXPECT_TRUE(db->Build("shops").ok());
    EXPECT_TRUE(db->InsertSample("pending", shops_sample_->Clone()).ok());
    return db;
  }

  /// Interleaved cross-relation workload covering point, GROUP BY, and
  /// non-point global aggregates on both relations.
  std::vector<std::string> MixedQueries() const {
    return {
        "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
        "SELECT COUNT(*) FROM shops WHERE city = 'AA' AND kind = 'K1'",
        "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
        "SELECT city, kind, COUNT(*) FROM shops GROUP BY city, kind",
        "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
        "SELECT COUNT(*) FROM shops WHERE city = 'QQ'",
        "SELECT date, COUNT(*) FROM flights GROUP BY date",
        "SELECT kind, COUNT(*) FROM shops GROUP BY kind",
        "SELECT COUNT(*) FROM flights WHERE date <> '02'",
        "SELECT COUNT(*) FROM shops WHERE kind <> 'K2'",
    };
  }

  static void ExpectBitwiseEqual(const sql::QueryResult& actual,
                                 const sql::QueryResult& expected,
                                 const std::string& context) {
    EXPECT_EQ(actual.group_names, expected.group_names) << context;
    EXPECT_EQ(actual.value_names, expected.value_names) << context;
    ASSERT_EQ(actual.rows.size(), expected.rows.size()) << context;
    for (size_t i = 0; i < actual.rows.size(); ++i) {
      EXPECT_EQ(actual.rows[i].group, expected.rows[i].group) << context;
      ASSERT_EQ(actual.rows[i].values.size(), expected.rows[i].values.size())
          << context;
      for (size_t j = 0; j < actual.rows[i].values.size(); ++j) {
        // Bitwise double equality, not approximate.
        EXPECT_EQ(actual.rows[i].values[j], expected.rows[i].values[j])
            << context << " row " << i << " value " << j;
      }
    }
  }

  data::SchemaPtr flights_schema_;
  std::unique_ptr<data::Table> flights_population_;
  std::unique_ptr<data::Table> flights_sample_;
  data::SchemaPtr shops_schema_;
  std::unique_ptr<data::Table> shops_population_;
  std::unique_ptr<data::Table> shops_sample_;
};

TEST_F(ServerTest, QueryOverTheWireMatchesInProcessAcrossModes) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  ASSERT_GT(server.port(), 0);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (const AnswerMode mode :
       {AnswerMode::kHybrid, AnswerMode::kSampleOnly, AnswerMode::kBnOnly}) {
    for (const std::string& sql : MixedQueries()) {
      auto expected = db->Query(sql, mode);
      ASSERT_TRUE(expected.ok()) << sql;
      auto actual = client->Query(sql, "", mode);
      ASSERT_TRUE(actual.ok()) << sql << ": " << actual.status().ToString();
      ExpectBitwiseEqual(*actual, *expected, sql);
    }
  }
  // Pinning the relation explicitly answers identically for these
  // relations (their names are their SQL table names).
  auto pinned = client->Query(MixedQueries()[0], "flights");
  ASSERT_TRUE(pinned.ok());
  ExpectBitwiseEqual(*pinned, *db->Query(MixedQueries()[0]), "pinned");
  server.Stop();
}

/// The acceptance bar: N concurrent clients, each streaming the mixed
/// cross-relation workload, all bitwise identical to a sequential
/// in-process Query() loop — at pool sizes 1, 2, and hardware.
TEST_F(ServerTest, ConcurrentClientsBitwiseIdenticalAcrossPoolSizes) {
  const std::vector<std::string> sqls = MixedQueries();
  for (const size_t pool_size : {size_t{1}, size_t{2}, size_t{0}}) {
    auto db = MakeDb(FastOptions(pool_size));
    // The sequential in-process baseline, computed before any server
    // traffic exists.
    std::vector<sql::QueryResult> expected;
    for (const std::string& sql : sqls) {
      auto result = db->Query(sql);
      ASSERT_TRUE(result.ok()) << sql;
      expected.push_back(std::move(*result));
    }

    QueryServer server(&db->catalog());
    ASSERT_TRUE(server.Start().ok());
    constexpr size_t kClients = 4;
    constexpr size_t kRounds = 3;  // repeats exercise the warm memo paths
    std::vector<std::thread> clients;
    std::vector<std::string> failures(kClients);
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        auto client = Client::Connect(server.port());
        if (!client.ok()) {
          failures[c] = client.status().ToString();
          return;
        }
        for (size_t round = 0; round < kRounds; ++round) {
          // Stagger the starting offset so clients interleave relations.
          for (size_t i = 0; i < sqls.size(); ++i) {
            const size_t q = (i + c) % sqls.size();
            auto actual = client->Query(sqls[q]);
            if (!actual.ok()) {
              failures[c] = sqls[q] + ": " + actual.status().ToString();
              return;
            }
            if (actual->rows.size() != expected[q].rows.size()) {
              failures[c] = sqls[q] + ": row count mismatch";
              return;
            }
            for (size_t r = 0; r < actual->rows.size(); ++r) {
              if (actual->rows[r].group != expected[q].rows[r].group ||
                  actual->rows[r].values != expected[q].rows[r].values) {
                failures[c] = sqls[q] + ": bitwise mismatch";
                return;
              }
            }
          }
        }
      });
    }
    for (std::thread& t : clients) t.join();
    for (size_t c = 0; c < kClients; ++c) {
      EXPECT_TRUE(failures[c].empty())
          << "pool " << pool_size << " client " << c << ": " << failures[c];
    }
    server.Stop();
  }
}

TEST_F(ServerTest, BatchRequestRidesCrossRelationQueryBatch) {
  auto db = MakeDb(FastOptions(2));
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string> sqls = MixedQueries();
  auto batch = client->QueryBatch(sqls);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), sqls.size());
  for (size_t i = 0; i < sqls.size(); ++i) {
    auto expected = db->Query(sqls[i]);
    ASSERT_TRUE(expected.ok());
    ExpectBitwiseEqual((*batch)[i], *expected, sqls[i]);
  }
  // A batch with one bad query fails as a whole, before any execution.
  auto bad = client->QueryBatch({sqls[0], "SELECT COUNT(*) FROM nosuch"});
  EXPECT_EQ(bad.status().code(), StatusCode::kNotFound);
  server.Stop();
}

/// The satellite's error-mapping table, each asserted over the wire.
TEST_F(ServerTest, ErrorMappingOverTheWire) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  // Unknown relation -> NotFound (both FROM-routed and pinned).
  auto unknown = client->Query("SELECT COUNT(*) FROM nosuch");
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("nosuch"), std::string::npos);
  auto pinned = client->Query("SELECT COUNT(*) FROM flights", "nosuch");
  EXPECT_EQ(pinned.status().code(), StatusCode::kNotFound);

  // Registered-but-unbuilt relation -> FailedPrecondition.
  auto unbuilt = client->Query("SELECT COUNT(*) FROM pending");
  EXPECT_EQ(unbuilt.status().code(), StatusCode::kFailedPrecondition);

  // Malformed JSON -> InvalidArgument.
  auto raw = client->RoundTrip("{\"sql\": oops");
  ASSERT_TRUE(raw.ok());
  EXPECT_NE(raw->find("\"InvalidArgument\""), std::string::npos) << *raw;
  // Valid JSON, invalid request shapes -> InvalidArgument.
  auto no_sql = client->RoundTrip("{}");
  ASSERT_TRUE(no_sql.ok());
  EXPECT_NE(no_sql->find("\"InvalidArgument\""), std::string::npos);
  auto bad_mode = client->Query("SELECT COUNT(*) FROM flights");
  ASSERT_TRUE(bad_mode.ok());  // sanity: the connection still works
  auto bad_mode_raw = client->RoundTrip(
      "{\"sql\": \"SELECT COUNT(*) FROM flights\", \"mode\": \"psychic\"}");
  ASSERT_TRUE(bad_mode_raw.ok());
  EXPECT_NE(bad_mode_raw->find("\"InvalidArgument\""), std::string::npos);

  // Bad SQL -> InvalidArgument (the parser's kParseError never crosses
  // the wire).
  auto bad_sql = client->Query("SELEC COUNT(*) FROM flights");
  EXPECT_EQ(bad_sql.status().code(), StatusCode::kInvalidArgument);

  // The session survives every error above and still answers.
  auto alive = client->Query("SELECT date, COUNT(*) FROM flights GROUP BY date");
  EXPECT_TRUE(alive.ok());
  server.Stop();
}

/// Admission control: with max_inflight=1 and the only slot held open by
/// a hook-blocked request, the next query bounces with ResourceExhausted
/// — deterministically, no timing. STATS bypasses admission so the
/// overload stays observable while it is happening.
TEST_F(ServerTest, OverloadRejectsWithResourceExhausted) {
  ThemisOptions themis = FastOptions(1);
  themis.max_inflight = 1;
  auto db = MakeDb(themis);
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  QueryServer::Options options;
  options.request_hook = [released] { released.wait(); };
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  auto holder = Client::Connect(server.port());
  ASSERT_TRUE(holder.ok());
  ASSERT_TRUE(
      holder->Send("{\"sql\": \"SELECT COUNT(*) FROM flights\"}").ok());
  // Wait until the server has admitted the held request.
  auto observer = Client::Connect(server.port());
  ASSERT_TRUE(observer.ok());
  for (;;) {
    auto stats = observer->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->server.max_inflight, 1u);
    if (stats->server.inflight >= 1) break;
    std::this_thread::yield();
  }

  auto rejected = observer->Query("SELECT COUNT(*) FROM shops");
  EXPECT_EQ(rejected.status().code(), StatusCode::kResourceExhausted);

  release.set_value();
  auto held = holder->Receive();
  ASSERT_TRUE(held.ok());
  auto decoded = DecodeResultResponse(*held);
  EXPECT_TRUE(decoded.ok()) << *held;

  auto stats = observer->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->server.rejected_overload, 1u);
  EXPECT_EQ(stats->server.served_ok, 1u);
  // After the slot freed, the observer is admitted again.
  EXPECT_TRUE(observer->Query("SELECT COUNT(*) FROM shops").ok());
  server.Stop();
}

TEST_F(ServerTest, StatsVerbExposesLiveCacheCounters) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::string group_by =
      "SELECT date, COUNT(*) FROM flights GROUP BY date";
  ASSERT_TRUE(client->Query(group_by).ok());
  ASSERT_TRUE(client->Query(group_by).ok());  // warm repeat

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->server.served_ok, 2u);
  EXPECT_EQ(stats->server.rejected_overload, 0u);
  EXPECT_GE(stats->server.accepted_connections, 1u);
  EXPECT_GE(stats->server.active_connections, 1u);

  // Same text twice: the first request misses every tier and encodes
  // once; the repeat is served from the response byte cache on the I/O
  // thread, never reaching the result memo (its hit count stays 0).
  EXPECT_EQ(stats->server.response_cache_misses, 1u);
  EXPECT_EQ(stats->server.response_cache_hits, 1u);
  EXPECT_EQ(stats->server.response_cache_entries, 1u);
  EXPECT_GT(stats->server.response_cache_bytes, 0u);
  EXPECT_EQ(stats->server.responses_encoded, 1u);

  ASSERT_EQ(stats->relations.size(), 3u);
  const core::RelationStats& flights = stats->relations.at("flights");
  EXPECT_TRUE(flights.built);
  // One plan-cache probe per request that reached the pool: the miss
  // planned once, and the byte-cached repeat never reached the planner.
  EXPECT_EQ(flights.plan_cache_hits, 0u);
  EXPECT_EQ(flights.plan_cache_misses, 1u);
  EXPECT_EQ(flights.result_memo.hits, 0u);
  EXPECT_EQ(flights.result_memo.misses, 1u);
  EXPECT_EQ(flights.result_memo.entries, 1u);
  // The BN-backed GROUP BY ran inference; shops stayed cold; pending is
  // registered but unbuilt.
  EXPECT_TRUE(stats->relations.at("shops").built);
  EXPECT_EQ(stats->relations.at("shops").result_memo.misses, 0u);
  EXPECT_FALSE(stats->relations.at("pending").built);

  // Host capability snapshot round-trips: topology, SIMD backend, and
  // shard target match the in-process probes, and the executor counters
  // carry the active backend plus nonzero kernel-row counts (the GROUP BY
  // above ran the scan pipeline).
  const util::CpuTopology& topo = util::CpuTopology::Host();
  EXPECT_EQ(stats->host.num_cpus, topo.num_cpus);
  EXPECT_EQ(stats->host.l1d_bytes, topo.l1d_bytes);
  EXPECT_EQ(stats->host.l2_bytes, topo.l2_bytes);
  EXPECT_EQ(stats->host.l3_bytes, topo.l3_bytes);
  EXPECT_EQ(stats->host.cache_line_bytes, topo.cache_line_bytes);
  EXPECT_EQ(stats->host.cache_probed, topo.probed);
  EXPECT_EQ(stats->host.simd_backend,
            simd::BackendName(simd::FromEnv()));
  EXPECT_EQ(stats->host.shard_target_bytes, sql::AutoShardTargetBytes());
  EXPECT_EQ(flights.executor.simd_backend, stats->host.simd_backend);
  EXPECT_GT(flights.executor.rows_scanned, 0u);
  server.Stop();
}

/// Stop() with a request still executing: the response is written before
/// the connection closes — in-flight work drains, nothing is dropped.
TEST_F(ServerTest, GracefulShutdownDrainsInflightRequests) {
  auto db = MakeDb(FastOptions(2));
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  QueryServer::Options options;
  options.request_hook = [released] { released.wait(); };
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const std::string sql = "SELECT date, COUNT(*) FROM flights GROUP BY date";
  ASSERT_TRUE(client->Send("{\"sql\": \"" + sql + "\"}").ok());
  while (server.counters().inflight < 1) std::this_thread::yield();

  std::thread stopper([&server] { server.Stop(); });
  release.set_value();
  stopper.join();
  EXPECT_FALSE(server.running());

  // The drained response arrived despite the shutdown racing it.
  auto response = client->Receive();
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  auto decoded = DecodeResultResponse(*response);
  ASSERT_TRUE(decoded.ok()) << *response;
  auto expected = db->Query(sql);
  ASSERT_TRUE(expected.ok());
  ExpectBitwiseEqual(*decoded, *expected, "drained");
}

/// Deadline determinism: with one pool thread and one I/O thread, a
/// hook-stalled query whose 1 ms budget lapses while it waits answers
/// kDeadlineExceeded, while the unstalled query pipelined behind it on
/// the same session still succeeds — and the responses arrive in request
/// order. No sleeps on the pass path; the only timed wait is the one
/// that guarantees the deadline has lapsed.
TEST_F(ServerTest, DeadlineExpiredRequestAnswersDeadlineExceeded) {
  auto db = MakeDb(FastOptions(1));  // serial pool: task order is FIFO
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto first = std::make_shared<std::atomic<bool>>(true);
  QueryServer::Options options;
  options.io_threads = 1;
  // One-shot latch: only the first admitted request (the deadline one,
  // by pool FIFO order) stalls; everything behind it runs normally.
  options.request_hook = [released, first] {
    if (first->exchange(false)) released.wait();
  };
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const std::string stalled = "SELECT date, COUNT(*) FROM flights GROUP BY date";
  const std::string quick = "SELECT kind, COUNT(*) FROM shops GROUP BY kind";
  ASSERT_TRUE(
      client->Send("{\"sql\": \"" + stalled + "\", \"deadline_ms\": 1}").ok());
  ASSERT_TRUE(client->Send("{\"sql\": \"" + quick + "\"}").ok());
  while (server.counters().inflight < 1) std::this_thread::yield();
  // The stalled request is parked in the hook; outlive its 1 ms budget,
  // then let it run into the expired token.
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.set_value();

  auto response1 = client->Receive();
  ASSERT_TRUE(response1.ok()) << response1.status().ToString();
  auto decoded1 = DecodeResultResponse(*response1);
  EXPECT_EQ(decoded1.status().code(), StatusCode::kDeadlineExceeded)
      << *response1;
  EXPECT_NE(response1->find("\"DeadlineExceeded\""), std::string::npos)
      << *response1;

  // FIFO held: the second response is the second request's, and its
  // missing deadline_ms (with no server default) means no budget at all.
  auto response2 = client->Receive();
  ASSERT_TRUE(response2.ok());
  auto decoded2 = DecodeResultResponse(*response2);
  ASSERT_TRUE(decoded2.ok()) << *response2;
  auto expected = db->Query(quick);
  ASSERT_TRUE(expected.ok());
  ExpectBitwiseEqual(*decoded2, *expected, quick);

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->server.served_deadline_exceeded, 1u);
  EXPECT_EQ(stats->server.served_error, 1u);
  EXPECT_EQ(stats->server.served_ok, 1u);
  EXPECT_EQ(stats->server.served_cancelled, 0u);
  server.Stop();
}

/// A client that disconnects mid-query fires the request's cancel token:
/// the abandoned work unwinds as kCancelled (served_cancelled counts it)
/// instead of running to completion. The EOF-processed handshake is
/// deterministic: with one I/O thread, two full STATS round trips after
/// the close guarantee the loop has handled the holder's EPOLLRDHUP.
TEST_F(ServerTest, DisconnectMidQueryCancelsExecution) {
  auto db = MakeDb(FastOptions(1));
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto first = std::make_shared<std::atomic<bool>>(true);
  QueryServer::Options options;
  options.io_threads = 1;
  options.request_hook = [released, first] {
    if (first->exchange(false)) released.wait();
  };
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  {
    auto holder = Client::Connect(server.port());
    ASSERT_TRUE(holder.ok());
    ASSERT_TRUE(
        holder->Send("{\"sql\": \"SELECT COUNT(*) FROM flights\"}").ok());
    while (server.counters().inflight < 1) std::this_thread::yield();
    // ~holder closes the socket with the request still executing.
  }
  auto observer = Client::Connect(server.port());
  ASSERT_TRUE(observer.ok());
  ASSERT_TRUE(observer->Stats().ok());
  ASSERT_TRUE(observer->Stats().ok());  // EOF definitely processed now
  release.set_value();

  for (;;) {
    auto stats = observer->Stats();
    ASSERT_TRUE(stats.ok());
    ASSERT_EQ(stats->server.served_ok, 0u);  // never ran to completion
    if (stats->server.served_cancelled >= 1) {
      EXPECT_EQ(stats->server.served_cancelled, 1u);
      EXPECT_EQ(stats->server.served_error, 1u);
      EXPECT_EQ(stats->server.served_deadline_exceeded, 0u);
      break;
    }
    std::this_thread::yield();
  }
  server.Stop();
}

/// Pipelining: one session sends four queries before reading any answer;
/// the responses come back in request order, bitwise identical to the
/// per-request in-process answers, however the pool tasks interleave.
TEST_F(ServerTest, PipelinedRequestsAnswerInOrder) {
  auto db = MakeDb(FastOptions(2));
  QueryServer::Options options;
  options.io_threads = 1;
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  const std::vector<std::string> sqls = {
      "SELECT date, COUNT(*) FROM flights GROUP BY date",
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT kind, COUNT(*) FROM shops GROUP BY kind",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
  };
  for (const std::string& sql : sqls) {
    ASSERT_TRUE(client->Send("{\"sql\": \"" + sql + "\"}").ok());
  }

  for (const std::string& sql : sqls) {
    auto response = client->Receive();
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    auto decoded = DecodeResultResponse(*response);
    ASSERT_TRUE(decoded.ok()) << *response;
    auto expected = db->Query(sql);
    ASSERT_TRUE(expected.ok());
    ExpectBitwiseEqual(*decoded, *expected, sql);
  }
  EXPECT_EQ(server.counters().served_ok, 4u);
  server.Stop();
}

/// One plan per request: every served query, FROM-routed or pinned to its
/// relation, probes that relation's plan cache exactly once — the byte
/// cache's intent and the execution share one resolved plan. The texts
/// are distinct per (relation field, SQL), so every request misses the
/// inline byte-cache probe and reaches the pool.
TEST_F(ServerTest, EachServedQueryPlansOnce) {
  auto db = MakeDb(FastOptions(2));
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::vector<std::string> sqls = {
      "SELECT date, COUNT(*) FROM flights GROUP BY date",
      "SELECT o_st, COUNT(*) FROM flights WHERE d_st = 'NY' GROUP BY o_st",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
      "SELECT COUNT(*) FROM flights WHERE date <> '02'",
  };
  std::vector<sql::QueryResult> expected;
  for (const std::string& sql : sqls) {
    auto result = db->Query(sql);
    ASSERT_TRUE(result.ok()) << sql;
    expected.push_back(std::move(*result));
  }
  const auto lookups = [&db] {
    auto stats = db->catalog().StatsFor("flights");
    EXPECT_TRUE(stats.ok());
    return stats->plan_cache_hits + stats->plan_cache_misses;
  };
  const size_t before = lookups();
  size_t served = 0;
  for (const std::string& relation : {std::string(), std::string("flights")}) {
    for (size_t i = 0; i < sqls.size(); ++i) {
      auto actual = client->Query(sqls[i], relation);
      ASSERT_TRUE(actual.ok()) << sqls[i] << ": "
                               << actual.status().ToString();
      ExpectBitwiseEqual(*actual, expected[i], sqls[i]);
      ++served;
    }
  }
  // Every request missed the inline byte-cache probe and reached the pool.
  EXPECT_EQ(server.counters().response_cache_misses, served);
  EXPECT_EQ(lookups() - before, served);
  server.Stop();
}

/// Pulls "name value" (no labels) out of a Prometheus exposition; -1
/// when absent.
double MetricValue(const std::string& text, const std::string& name) {
  const std::string needle = name + " ";
  size_t pos = 0;
  while ((pos = text.find(needle, pos)) != std::string::npos) {
    if (pos == 0 || text[pos - 1] == '\n') {
      return std::stod(text.substr(pos + needle.size()));
    }
    pos += needle.size();
  }
  return -1.0;
}

/// Every knob has one home: the catalog-wide serving bounds come from the
/// ThemisOptions the catalog was built with (a default-constructed
/// QueryServer::Options has no copy of them to shadow), and the per-server
/// tracing knob lives on QueryServer::Options alone.
TEST_F(ServerTest, ServingKnobsHaveOneHome) {
  ThemisOptions themis = FastOptions(2);
  themis.max_inflight = 7;
  themis.response_cache_bytes = 12345;
  auto db = MakeDb(themis);
  {
    QueryServer server(&db->catalog(), QueryServer::Options());
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    auto stats = client->Stats();
    ASSERT_TRUE(stats.ok()) << stats.status().ToString();
    EXPECT_EQ(stats->server.max_inflight, 7u);
    EXPECT_EQ(stats->server.response_cache_capacity, 12345u);
    server.Stop();
  }
  QueryServer::Options options;
  options.trace_sample_n = 1;
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(
      client->Query("SELECT date, COUNT(*) FROM flights GROUP BY date").ok());
  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  const std::string execute_count =
      "themis_stage_latency_seconds_count{stage=\"execute\"}";
  EXPECT_GT(MetricValue(*text, execute_count), 0.0);
  server.Stop();
}

TEST_F(ServerTest, MetricsVerbExposesPrometheusTextWithCountIdentity) {
  auto db = MakeDb(FastOptions(4));
  QueryServer::Options options;
  options.trace_sample_n = 1;  // trace everything: stage histograms fill
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  for (const std::string& sql : MixedQueries()) {
    auto result = client->Query(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
  }
  // One error outcome: a registered-but-unbuilt relation.
  auto pending = client->Query("SELECT COUNT(*) FROM pending");
  EXPECT_EQ(pending.status().code(), StatusCode::kFailedPrecondition);

  auto text = client->Metrics();
  ASSERT_TRUE(text.ok()) << text.status().ToString();
  EXPECT_NE(text->find("# TYPE themis_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      text->find("# TYPE themis_request_latency_seconds histogram"),
      std::string::npos);
  // Traced requests populate the per-stage histograms.
  EXPECT_NE(text->find("themis_stage_latency_seconds_bucket{stage=\"execute\""),
            std::string::npos);
  EXPECT_NE(
      text->find(
          "themis_stage_latency_seconds_bucket{stage=\"plan_lookup\""),
      std::string::npos);
  // Per-relation families carry the relation label.
  EXPECT_NE(text->find("themis_plan_cache_misses_total{relation=\"flights\"}"),
            std::string::npos);

  // The acceptance invariant: the request-latency histogram records once
  // per served request, so its count equals served_ok + served_error
  // (METRICS and STATS answer inline and are excluded from both sides).
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  const double expected_count = static_cast<double>(
      stats->server.served_ok + stats->server.served_error);
  EXPECT_EQ(MetricValue(*text, "themis_request_latency_seconds_count"),
            expected_count);
  EXPECT_EQ(MetricValue(*text, "themis_requests_total{outcome=\"ok\"}"),
            static_cast<double>(stats->server.served_ok));
  EXPECT_EQ(MetricValue(*text, "themis_requests_total{outcome=\"error\"}"),
            static_cast<double>(stats->server.served_error));
  server.Stop();
}

TEST_F(ServerTest, TracingOnOffAnswersBitwiseIdentical) {
  auto db = MakeDb(FastOptions(4));
  std::vector<sql::QueryResult> traced_answers;
  for (const bool traced : {false, true}) {
    QueryServer::Options options;
    options.trace_sample_n = traced ? 1 : 0;
    QueryServer server(&db->catalog(), options);
    ASSERT_TRUE(server.Start().ok());
    auto client = Client::Connect(server.port());
    ASSERT_TRUE(client.ok());
    size_t i = 0;
    for (const std::string& sql : MixedQueries()) {
      auto result = client->Query(sql);
      ASSERT_TRUE(result.ok()) << sql;
      if (!traced) {
        traced_answers.push_back(std::move(*result));
      } else {
        ExpectBitwiseEqual(*result, traced_answers[i], sql);
      }
      ++i;
    }
    server.Stop();
  }
}

/// Deterministic trace shape: with one I/O thread and every request
/// traced, a cold query records its execution with well-ordered spans
/// (parse -> admission -> queue wait -> plan lookup -> execute ->
/// serialize), while a respelling of it — a different text, so it misses
/// the byte-cache probe, but the same plan — is answered by the result
/// memo and records no execution at all.
TEST_F(ServerTest, TracedMemoHitRecordsNoExecution) {
  auto db = MakeDb(FastOptions(4));
  QueryServer::Options options;
  options.io_threads = 1;
  options.trace_sample_n = 1;
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  const std::string sql =
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st";
  const std::string respelled =
      "SELECT  o_st, d_st, COUNT(*)  FROM flights  GROUP BY o_st, d_st";
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->Query(sql).ok());
  ASSERT_TRUE(client->Query(respelled).ok());

  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  ASSERT_EQ(stats->slow_queries.size(), 2u);

  const auto stage = [](const obs::SlowQueryEntry& entry, obs::Stage s)
      -> const obs::StageSpan& {
    return entry.stages[static_cast<size_t>(s)];
  };
  const obs::SlowQueryEntry* executed_entry = nullptr;
  const obs::SlowQueryEntry* memo_entry = nullptr;
  for (const obs::SlowQueryEntry& entry : stats->slow_queries) {
    EXPECT_EQ(entry.status, "OK");
    if (entry.sql == sql) executed_entry = &entry;
    if (entry.sql == respelled) memo_entry = &entry;
  }
  ASSERT_NE(executed_entry, nullptr);
  ASSERT_NE(memo_entry, nullptr);

  // The memo hit: zero execution, same plan.
  EXPECT_EQ(stage(*memo_entry, obs::Stage::kExecute).count, 0u);
  EXPECT_EQ(stage(*memo_entry, obs::Stage::kExecutorScan).count, 0u);
  EXPECT_EQ(memo_entry->fingerprint, executed_entry->fingerprint);
  // The cold query: executed and scanned.
  EXPECT_GT(stage(*executed_entry, obs::Stage::kExecute).total_ns, 0);
  EXPECT_GE(stage(*executed_entry, obs::Stage::kExecutorScan).count, 1u);
  EXPECT_EQ(executed_entry->relation, "flights");
  EXPECT_FALSE(executed_entry->fingerprint.empty());

  // Span ordering on the cold query's trace, via the relative begin/end
  // stamps: each stage begins no earlier than its predecessor's begin,
  // and execution finishes before serialization begins.
  const auto& parse = stage(*executed_entry, obs::Stage::kParse);
  const auto& admission = stage(*executed_entry, obs::Stage::kAdmission);
  const auto& queue = stage(*executed_entry, obs::Stage::kQueueWait);
  const auto& plan = stage(*executed_entry, obs::Stage::kPlanLookup);
  const auto& execute = stage(*executed_entry, obs::Stage::kExecute);
  const auto& serialize = stage(*executed_entry, obs::Stage::kSerialize);
  ASSERT_EQ(parse.count, 1u);
  ASSERT_EQ(admission.count, 1u);
  ASSERT_EQ(queue.count, 1u);
  ASSERT_GE(plan.count, 1u);
  ASSERT_EQ(serialize.count, 1u);
  EXPECT_EQ(parse.first_begin_rel_ns, 0);
  EXPECT_GE(admission.first_begin_rel_ns, parse.last_end_rel_ns);
  EXPECT_GE(queue.first_begin_rel_ns, admission.last_end_rel_ns);
  EXPECT_GE(plan.first_begin_rel_ns, queue.last_end_rel_ns);
  EXPECT_GE(execute.first_begin_rel_ns, plan.first_begin_rel_ns);
  EXPECT_GE(serialize.first_begin_rel_ns, execute.last_end_rel_ns);
  EXPECT_GE(executed_entry->total_ns, execute.total_ns);

  server.Stop();
}

/// TSan lane: STATS and METRICS scrapes racing live traffic on every
/// counter and histogram shard must be clean under the sanitizer.
TEST_F(ServerTest, StatsAndMetricsRaceTrafficCleanly) {
  auto db = MakeDb(FastOptions(4));
  QueryServer::Options options;
  options.trace_sample_n = 2;
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  constexpr int kQueryThreads = 3;
  constexpr int kScrapeThreads = 2;
  constexpr int kIterations = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kQueryThreads; ++t) {
    threads.emplace_back([&, t] {
      auto client = Client::Connect(server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      const std::vector<std::string> queries = MixedQueries();
      for (int i = 0; i < kIterations; ++i) {
        if (!client->Query(queries[(t + i) % queries.size()]).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kScrapeThreads; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect(server.port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        if (!client->Stats().ok()) failures.fetch_add(1);
        if (!client->Metrics().ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  auto text = client->Metrics();
  ASSERT_TRUE(text.ok());
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  // The count identity holds after the dust settles, scrapes included.
  EXPECT_EQ(MetricValue(*text, "themis_request_latency_seconds_count"),
            static_cast<double>(stats->server.served_ok +
                                stats->server.served_error));
  server.Stop();
}

/// The response byte cache's bitwise contract: with the cache ON, every
/// response line — across modes, repeats, explicit deadlines, errors,
/// and pipelined bursts — is byte-identical to a cache-OFF server over
/// the same catalog. Raw lines are compared, not decoded results: the
/// cache serves stored bytes, so the proof must be at the byte level.
TEST_F(ServerTest, ResponseCacheDifferentialBitwiseIdentical) {
  auto db = MakeDb(FastOptions(2));
  QueryServer::Options off_options;
  off_options.enable_response_cache = false;
  QueryServer off(&db->catalog(), off_options);
  ASSERT_TRUE(off.Start().ok());
  QueryServer::Options on_options;
  on_options.enable_response_cache = true;
  QueryServer on(&db->catalog(), on_options);
  ASSERT_TRUE(on.Start().ok());

  auto off_client = Client::Connect(off.port());
  ASSERT_TRUE(off_client.ok());
  auto on_client = Client::Connect(on.port());
  ASSERT_TRUE(on_client.ok());

  std::vector<std::string> lines;
  for (const char* mode : {"hybrid", "sample", "bn"}) {
    for (const std::string& sql : MixedQueries()) {
      lines.push_back("{\"sql\": \"" + sql + "\", \"mode\": \"" + mode +
                      "\"}");
    }
  }
  // Modes ride the cache key: the same SQL under another mode may answer
  // differently and must never collide. Deadlines do not (they bound
  // execution, not the answer); errors are never cached but still answer
  // identically.
  lines.push_back("{\"sql\": \"" + MixedQueries()[0] +
                  "\", \"deadline_ms\": 10000}");
  lines.push_back("{\"sql\": \"SELECT COUNT(*) FROM nosuch\"}");
  lines.push_back("{\"sql\": \"SELEC oops\"}");
  // Two passes: pass 1 misses and admits on the cached server, pass 2
  // serves from bytes. Both must match the uncached server exactly.
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& line : lines) {
      auto expected = off_client->RoundTrip(line);
      ASSERT_TRUE(expected.ok()) << line;
      auto actual = on_client->RoundTrip(line);
      ASSERT_TRUE(actual.ok()) << line;
      EXPECT_EQ(*actual, *expected) << "pass " << pass << ": " << line;
    }
  }
  // Pipelined repeats (a mix of inline byte-cache hits and pool-served
  // lines on one session) come back in order, byte-identical again.
  for (const std::string& line : lines) {
    ASSERT_TRUE(on_client->Send(line).ok());
  }
  for (const std::string& line : lines) {
    auto expected = off_client->RoundTrip(line);
    ASSERT_TRUE(expected.ok());
    auto actual = on_client->Receive();
    ASSERT_TRUE(actual.ok()) << line;
    EXPECT_EQ(*actual, *expected) << "pipelined: " << line;
  }
  const ServerCounters counters = on.counters();
  EXPECT_GT(counters.response_cache_hits, 0u);
  EXPECT_LT(counters.responses_encoded, counters.served_ok);
  EXPECT_EQ(off.counters().response_cache_hits, 0u);
  EXPECT_EQ(off.counters().response_cache_capacity, 0u);
  on.Stop();
  off.Stop();
}

/// The acceptance criterion in counter form: a hot repeated point query
/// encodes exactly once — every repeat is served from cached bytes on
/// the I/O thread with zero EncodeResponse calls, while served_ok keeps
/// climbing and the count identities hold.
TEST_F(ServerTest, HotRepeatServesWithZeroEncodes) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::string sql =
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'";
  constexpr size_t kRepeats = 50;
  auto first = client->Query(sql);
  ASSERT_TRUE(first.ok());
  for (size_t i = 1; i < kRepeats; ++i) {
    auto repeat = client->Query(sql);
    ASSERT_TRUE(repeat.ok());
    ExpectBitwiseEqual(*repeat, *first, sql);
  }
  auto stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->server.served_ok, kRepeats);
  EXPECT_EQ(stats->server.responses_encoded, 1u);
  EXPECT_EQ(stats->server.response_cache_hits, kRepeats - 1);
  EXPECT_EQ(stats->server.response_cache_misses, 1u);
  server.Stop();
}

/// Invalidation correctness: a mutation (drop, re-insert with a
/// different sample, rebuild) between two identical requests must never
/// let the second be served from the pre-mutation bytes. The
/// post-mutation answer equals a fresh in-process query — and actually
/// differs from the stale one, so serving stale bytes would have been
/// caught.
TEST_F(ServerTest, ResponseCacheInvalidatedOnRebuild) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::string sql =
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'";
  auto before = client->Query(sql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(client->Query(sql).ok());  // cached now
  ASSERT_GE(server.counters().response_cache_hits, 1u);

  // Mutate: re-register flights against a population that gained two
  // more FL->FL rows — the {o_st,d_st} aggregate covering the point
  // query changes, so the served answer must change too.
  ASSERT_TRUE(db->DropRelation("flights").ok());
  data::Table new_population = flights_population_->Clone();
  new_population.AppendRowLabels({"02", "FL", "FL"});
  new_population.AppendRowLabels({"01", "FL", "FL"});
  ASSERT_TRUE(db->InsertSample("flights", flights_sample_->Clone()).ok());
  ASSERT_TRUE(
      db->InsertAggregateFrom("flights", new_population, {"date"}).ok());
  ASSERT_TRUE(db->InsertAggregateFrom("flights", new_population,
                                      {"o_st", "d_st"})
                  .ok());
  ASSERT_TRUE(db->Build("flights").ok());

  auto after = client->Query(sql);
  ASSERT_TRUE(after.ok());
  auto expected = db->Query(sql);
  ASSERT_TRUE(expected.ok());
  ExpectBitwiseEqual(*after, *expected, "post-rebuild");
  // The answer really changed — a stale-bytes bug could not hide.
  ASSERT_EQ(before->rows.size(), 1u);
  ASSERT_EQ(after->rows.size(), 1u);
  EXPECT_NE(after->rows[0].values[0], before->rows[0].values[0]);
  server.Stop();
}

/// The `set` verb: session defaults apply to later unmoded requests
/// (bitwise equal to the explicit-mode answer), explicit fields still
/// win, the mode is part of the byte-cache key, and a session default
/// deadline expires a stalled request exactly like an explicit one.
TEST_F(ServerTest, SetVerbInstallsSessionDefaults) {
  auto db = MakeDb(FastOptions());
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());
  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());

  const std::string sql = "SELECT date, COUNT(*) FROM flights GROUP BY date";
  // Warm the hybrid answer into the byte cache first: if the mode were
  // not part of the probe key, the sample-mode request below would be
  // served the hybrid bytes.
  auto hybrid = client->Query(sql);
  ASSERT_TRUE(hybrid.ok());

  ASSERT_TRUE(client->SetDefaults(AnswerMode::kSampleOnly).ok());
  auto defaulted = client->Query(sql);
  ASSERT_TRUE(defaulted.ok());
  auto expected_sample = db->Query(sql, AnswerMode::kSampleOnly);
  ASSERT_TRUE(expected_sample.ok());
  ExpectBitwiseEqual(*defaulted, *expected_sample, "session default mode");

  // An explicit mode overrides the session default.
  auto explicit_bn = client->Query(sql, "", AnswerMode::kBnOnly);
  ASSERT_TRUE(explicit_bn.ok());
  auto expected_bn = db->Query(sql, AnswerMode::kBnOnly);
  ASSERT_TRUE(expected_bn.ok());
  ExpectBitwiseEqual(*explicit_bn, *expected_bn, "explicit mode wins");

  // Defaults are per-session: a fresh connection still answers hybrid.
  auto other = Client::Connect(server.port());
  ASSERT_TRUE(other.ok());
  auto other_answer = other->Query(sql);
  ASSERT_TRUE(other_answer.ok());
  ExpectBitwiseEqual(*other_answer, *hybrid, "fresh session stays hybrid");

  // A `set` line carrying a query is the client's mistake.
  auto invalid = client->RoundTrip(
      "{\"verb\": \"set\", \"sql\": \"SELECT 1\"}");
  ASSERT_TRUE(invalid.ok());
  EXPECT_NE(invalid->find("\"InvalidArgument\""), std::string::npos);
  server.Stop();
}

/// Session default deadlines behave exactly like explicit ones: a
/// stalled request with no deadline_ms of its own expires under the
/// session default, and clearing the default (explicit 0) restores
/// no-budget behavior.
TEST_F(ServerTest, SetVerbDefaultDeadlineExpiresStalledRequest) {
  auto db = MakeDb(FastOptions(1));
  std::promise<void> release;
  std::shared_future<void> released = release.get_future().share();
  auto first = std::make_shared<std::atomic<bool>>(true);
  QueryServer::Options options;
  options.io_threads = 1;
  options.request_hook = [released, first] {
    if (first->exchange(false)) released.wait();
  };
  QueryServer server(&db->catalog(), options);
  ASSERT_TRUE(server.Start().ok());

  auto client = Client::Connect(server.port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client->SetDefaults(std::nullopt, uint64_t{1}).ok());
  const std::string sql = "SELECT kind, COUNT(*) FROM shops GROUP BY kind";
  ASSERT_TRUE(client->Send("{\"sql\": \"" + sql + "\"}").ok());
  while (server.counters().inflight < 1) std::this_thread::yield();
  std::this_thread::sleep_for(std::chrono::milliseconds(10));
  release.set_value();
  auto response = client->Receive();
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(DecodeResultResponse(*response).status().code(),
            StatusCode::kDeadlineExceeded)
      << *response;

  // Clearing the default (explicit 0) removes the session budget.
  ASSERT_TRUE(client->SetDefaults(std::nullopt, uint64_t{0}).ok());
  EXPECT_TRUE(client->Query(sql).ok());
  server.Stop();
}

/// TSan lane: inline byte-cache hits on the I/O threads racing a
/// DropRelation on another thread. The hit path touches no catalog
/// state, so cached bytes may be served while the relation dies; once
/// the invalidation lands, requests fall through to execution and get
/// NotFound. Either answer is sound — the assertion is no race, no
/// crash, no torn bytes.
TEST_F(ServerTest, ByteCacheHitsRaceDropRelationCleanly) {
  auto db = MakeDb(FastOptions(2));
  QueryServer server(&db->catalog());
  ASSERT_TRUE(server.Start().ok());

  const std::string sql =
      "SELECT COUNT(*) FROM shops WHERE city = 'AA' AND kind = 'K1'";
  {
    auto warm = Client::Connect(server.port());
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(warm->Query(sql).ok());  // admit the bytes
    ASSERT_TRUE(warm->Query(sql).ok());  // prove they hit
  }
  ASSERT_GE(server.counters().response_cache_hits, 1u);

  constexpr int kThreads = 3;
  constexpr int kIterations = 40;
  std::atomic<int> transport_failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      auto client = Client::Connect(server.port());
      if (!client.ok()) {
        transport_failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kIterations; ++i) {
        auto raw = client->RoundTrip("{\"sql\": \"" + sql + "\"}");
        // OK-from-cache before the drop, NotFound after — both fine;
        // only transport failures are bugs.
        if (!raw.ok()) transport_failures.fetch_add(1);
      }
    });
  }
  ASSERT_TRUE(db->DropRelation("shops").ok());
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(transport_failures.load(), 0);

  // The drop invalidated the cached bytes: the query now answers
  // NotFound, never the stale count.
  auto check = Client::Connect(server.port());
  ASSERT_TRUE(check.ok());
  EXPECT_EQ(check->Query(sql).status().code(), StatusCode::kNotFound);
  server.Stop();
}

/// JSON round-trip fidelity: escapes, unicode, and 17-digit doubles.
TEST(WireTest, JsonRoundTrip) {
  const std::string text =
      "{\"a\":[1,2.5,-3e-2,true,false,null],\"b\":\"q\\\"\\\\\\n\\u00e9\","
      "\"c\":{\"nested\":\"\\u0041\"}}";
  auto parsed = JsonValue::Parse(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  auto reparsed = JsonValue::Parse(parsed->Dump());
  ASSERT_TRUE(reparsed.ok());
  EXPECT_EQ(parsed->Dump(), reparsed->Dump());
  const JsonValue* a = parsed->Find("a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->items().size(), 6u);
  EXPECT_EQ(a->items()[1].number_value(), 2.5);
  EXPECT_EQ(parsed->Find("b")->string_value(), "q\"\\\n\xc3\xa9");

  EXPECT_FALSE(JsonValue::Parse("{\"a\":}").ok());
  EXPECT_FALSE(JsonValue::Parse("{} trailing").ok());
  EXPECT_FALSE(JsonValue::Parse("\"unterminated").ok());

  // Doubles survive the wire bitwise at 17 significant digits.
  const double awkward = 0.1 + 0.2;  // 0.30000000000000004
  JsonValue number = JsonValue::Number(awkward);
  auto back = JsonValue::Parse(number.Dump());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->number_value(), awkward);
}

TEST(WireTest, RequestParsing) {
  auto query = ParseRequest(
      "{\"sql\": \"SELECT 1\", \"relation\": \"r\", \"mode\": \"bn\"}");
  ASSERT_TRUE(query.ok());
  EXPECT_EQ(query->verb, WireRequest::Verb::kQuery);
  EXPECT_EQ(query->sql, "SELECT 1");
  EXPECT_EQ(query->relation, "r");
  EXPECT_EQ(query->mode, AnswerMode::kBnOnly);

  auto batch = ParseRequest("{\"batch\": [\"a\", \"b\"]}");
  ASSERT_TRUE(batch.ok());
  EXPECT_EQ(batch->verb, WireRequest::Verb::kBatch);
  EXPECT_EQ(batch->batch.size(), 2u);
  EXPECT_EQ(batch->mode, AnswerMode::kHybrid);

  auto stats = ParseRequest("{\"verb\": \"STATS\"}");
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->verb, WireRequest::Verb::kStats);

  // Exactly one of sql/batch; batch rejects a pinned relation.
  EXPECT_FALSE(ParseRequest("{}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"sql\": \"a\", \"batch\": [\"b\"]}").ok());
  EXPECT_FALSE(
      ParseRequest("{\"batch\": [\"a\"], \"relation\": \"r\"}").ok());
  EXPECT_FALSE(ParseRequest("{\"sql\": 7}").ok());
  EXPECT_FALSE(ParseRequest("{\"sql\": \"a\", \"verb\": \"put\"}").ok());
  EXPECT_EQ(ParseRequest("not json").status().code(),
            StatusCode::kInvalidArgument);
}

/// deadline_ms over the wire: missing and zero both mean "no per-request
/// deadline", absurd values clamp instead of failing, malformed values
/// are the client's mistake, and EncodeRequest/ParseRequest round-trip.
TEST(WireTest, DeadlineRoundTrip) {
  // Missing -> 0 (server default applies).
  auto missing = ParseRequest("{\"sql\": \"SELECT 1\"}");
  ASSERT_TRUE(missing.ok());
  EXPECT_EQ(missing->deadline_ms, 0u);

  // Explicit zero is the same as missing.
  auto zero = ParseRequest("{\"sql\": \"SELECT 1\", \"deadline_ms\": 0}");
  ASSERT_TRUE(zero.ok());
  EXPECT_EQ(zero->deadline_ms, 0u);

  auto plain = ParseRequest("{\"sql\": \"SELECT 1\", \"deadline_ms\": 250}");
  ASSERT_TRUE(plain.ok());
  EXPECT_EQ(plain->deadline_ms, 250u);

  // Fractional milliseconds truncate; batches carry deadlines too.
  auto fractional =
      ParseRequest("{\"batch\": [\"a\"], \"deadline_ms\": 12.9}");
  ASSERT_TRUE(fractional.ok());
  EXPECT_EQ(fractional->deadline_ms, 12u);

  // Absurdly large budgets clamp to the one-year ceiling, keeping the
  // absolute-deadline arithmetic far from time_point overflow.
  auto absurd =
      ParseRequest("{\"sql\": \"SELECT 1\", \"deadline_ms\": 1e30}");
  ASSERT_TRUE(absurd.ok());
  EXPECT_EQ(absurd->deadline_ms, kMaxDeadlineMs);

  // Negative, NaN-ish, and non-number values are InvalidArgument.
  EXPECT_EQ(
      ParseRequest("{\"sql\": \"a\", \"deadline_ms\": -1}").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseRequest("{\"sql\": \"a\", \"deadline_ms\": \"5\"}").status().code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParseRequest("{\"sql\": \"a\", \"deadline_ms\": null}").status().code(),
      StatusCode::kInvalidArgument);

  // EncodeRequest is ParseRequest's inverse: a deadline survives the
  // round trip, and 0 is omitted from the wire form entirely.
  WireRequest request;
  request.verb = WireRequest::Verb::kQuery;
  request.sql = "SELECT COUNT(*) FROM flights";
  request.relation = "flights";
  request.mode = AnswerMode::kBnOnly;
  request.has_mode = true;  // an unset mode no longer rides the wire
  request.deadline_ms = 750;
  auto round = ParseRequest(EncodeRequest(request));
  ASSERT_TRUE(round.ok());
  EXPECT_EQ(round->sql, request.sql);
  EXPECT_EQ(round->relation, request.relation);
  EXPECT_EQ(round->mode, request.mode);
  EXPECT_EQ(round->deadline_ms, 750u);
  request.deadline_ms = 0;
  EXPECT_EQ(EncodeRequest(request).find("deadline_ms"), std::string::npos);

  // The new status codes cross the wire by name and decode back.
  for (const Status& status :
       {Status::DeadlineExceeded("too slow"), Status::Cancelled("gone")}) {
    const std::string line = EncodeErrorResponse(status);
    auto decoded = DecodeResultResponse(line);
    EXPECT_EQ(decoded.status().code(), status.code()) << line;
    EXPECT_EQ(decoded.status().message(), status.message());
  }
}

}  // namespace
}  // namespace themis::server
