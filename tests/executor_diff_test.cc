// Differential test of the vectorized executor against the retained
// row-at-a-time reference implementation: ~100 generated queries across
// filters x GROUP BY arities x joins x pool sizes must be bitwise
// identical on both paths. Row weights are multiples of 0.25, so sums are
// exact and every shard layout (sequential, auto, forced-small) must
// agree bit for bit as well. A second executor pinned to the scalar SIMD
// backend (THEMIS_SIMD=scalar at construction) runs every query too, so
// on SIMD-capable hosts each check is three-way:
// simd == scalar == reference, bit for bit. A third fixture registers the
// tables with code posting indexes: the index path must equal the scan
// path and the reference, and multi-world relations must answer each
// world exactly like a one-world executor over that world's table.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "data/posting_index.h"
#include "data/table.h"
#include "sql/executor.h"
#include "sql/parser.h"
#include "util/thread_pool.h"

// TSan instrumentation slows the reference path ~50x; a reduced query
// count still races every parallel code path (sharded scan, sharded
// build, sharded probe, packed and wide keys) on every pool size.
#if defined(__SANITIZE_THREAD__)
#define THEMIS_DIFF_TEST_QUERIES 25
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
#define THEMIS_DIFF_TEST_QUERIES 25
#endif
#endif
#ifndef THEMIS_DIFF_TEST_QUERIES
#define THEMIS_DIFF_TEST_QUERIES 100
#endif

namespace themis::sql {
namespace {

constexpr size_t kNumQueries = THEMIS_DIFF_TEST_QUERIES;

void ExpectBitwiseEqual(const QueryResult& a, const QueryResult& b,
                        const std::string& what) {
  ASSERT_EQ(a.group_names, b.group_names) << what;
  ASSERT_EQ(a.value_names, b.value_names) << what;
  ASSERT_EQ(a.rows.size(), b.rows.size()) << what;
  for (size_t i = 0; i < a.rows.size(); ++i) {
    EXPECT_EQ(a.rows[i].group, b.rows[i].group) << what;
    ASSERT_EQ(a.rows[i].values.size(), b.rows[i].values.size()) << what;
    for (size_t j = 0; j < a.rows[i].values.size(); ++j) {
      // Bitwise double equality, not approximate.
      EXPECT_EQ(a.rows[i].values[j], b.rows[i].values[j])
          << what << " row " << i << " value " << j;
    }
  }
}

/// Fixture: a probe-sized table `t` and a smaller build-side table `u`
/// whose join domains only partially overlap (and are distinct Domain
/// objects, exercising the probe-side code translation).
class ExecutorDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    auto label_range = [](const std::string& prefix, size_t lo, size_t n) {
      std::vector<std::string> labels;
      for (size_t i = 0; i < n; ++i) {
        labels.push_back(prefix + std::to_string(lo + i));
      }
      return labels;
    };
    auto numbers = [](size_t n) {
      std::vector<std::string> labels;
      for (size_t i = 0; i < n; ++i) labels.push_back(std::to_string(i));
      return labels;
    };

    auto t_schema = std::make_shared<data::Schema>();
    t_schema->AddAttribute("g1", label_range("g1_", 0, 7));
    t_schema->AddAttribute("g2", label_range("g2_", 0, 13));
    t_schema->AddAttribute("v", numbers(9));
    t_schema->AddAttribute("c", label_range("c", 0, 5));
    // A fairly selective join key keeps the reference path's per-pair
    // cost bounded across the ~100 generated queries.
    t_schema->AddAttribute("k", label_range("k", 0, 199));
    t_ = std::make_unique<data::Table>(t_schema);
    std::mt19937_64 rng(11);
    for (size_t r = 0; r < 12000; ++r) {
      t_->AppendRow({static_cast<data::ValueCode>(rng() % 7),
                     static_cast<data::ValueCode>(rng() % 13),
                     static_cast<data::ValueCode>(rng() % 9),
                     static_cast<data::ValueCode>(rng() % 5),
                     static_cast<data::ValueCode>(rng() % 199)});
      t_->set_weight(r, static_cast<double>(rng() % 16) * 0.25 + 0.25);
    }

    auto u_schema = std::make_shared<data::Schema>();
    u_schema->AddAttribute("k2", label_range("k", 50, 199));  // k50..k248
    u_schema->AddAttribute("h", label_range("h", 0, 4));
    u_schema->AddAttribute("w", numbers(6));
    u_ = std::make_unique<data::Table>(u_schema);
    for (size_t r = 0; r < 2000; ++r) {
      u_->AppendRow({static_cast<data::ValueCode>(rng() % 199),
                     static_cast<data::ValueCode>(rng() % 4),
                     static_cast<data::ValueCode>(rng() % 6)});
      u_->set_weight(r, static_cast<double>(rng() % 8) * 0.25 + 0.5);
    }

    executor_.RegisterTable("t", t_.get());
    executor_.RegisterTable("u", u_.get());

    // The scalar twin: an executor whose kernel table was pinned to the
    // scalar backend at construction, regardless of host capability.
    const char* prev = std::getenv("THEMIS_SIMD");
    const std::string saved = prev ? prev : "";
    setenv("THEMIS_SIMD", "scalar", 1);
    scalar_executor_ = std::make_unique<Executor>();
    if (prev) {
      setenv("THEMIS_SIMD", saved.c_str(), 1);
    } else {
      unsetenv("THEMIS_SIMD");
    }
    ASSERT_EQ(scalar_executor_->stats().simd_backend, "scalar");
    scalar_executor_->RegisterTable("t", t_.get());
    scalar_executor_->RegisterTable("u", u_.get());
  }

  /// Runs `sql` on both paths across execution configurations and checks
  /// every answer is bitwise identical to the pool-less reference.
  void CheckQuery(const std::string& sql) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto reference = executor_.ExecuteReference(*stmt);
    ASSERT_TRUE(reference.ok()) << sql;
    auto vectorized = executor_.Execute(*stmt);
    ASSERT_TRUE(vectorized.ok()) << sql;
    ExpectBitwiseEqual(*vectorized, *reference, "sequential: " + sql);
    auto scalar = scalar_executor_->Execute(*stmt);
    ASSERT_TRUE(scalar.ok()) << sql;
    ExpectBitwiseEqual(*scalar, *reference, "scalar sequential: " + sql);

    for (util::ThreadPool* pool : pools()) {
      for (const size_t shard_rows : {size_t{0}, size_t{1000}}) {
        const std::string what = sql + " [pool " +
                                 std::to_string(pool->num_threads()) +
                                 " shard " + std::to_string(shard_rows) + "]";
        auto ref_pooled = executor_.ExecuteReference(*stmt, pool, shard_rows);
        ASSERT_TRUE(ref_pooled.ok()) << what;
        auto vec_pooled = executor_.Execute(*stmt, pool, shard_rows);
        ASSERT_TRUE(vec_pooled.ok()) << what;
        ExpectBitwiseEqual(*vec_pooled, *ref_pooled, "pooled: " + what);
        // Exact weights: every layout agrees with the sequential answer.
        ExpectBitwiseEqual(*vec_pooled, *reference, "vs sequential: " + what);
        auto scalar_pooled =
            scalar_executor_->Execute(*stmt, pool, shard_rows);
        ASSERT_TRUE(scalar_pooled.ok()) << what;
        ExpectBitwiseEqual(*vec_pooled, *scalar_pooled,
                           "simd vs scalar: " + what);
      }
    }
  }

  /// Pool sizes 1, 2, and hardware, created once for the whole test.
  std::vector<util::ThreadPool*> pools() {
    if (pools_.empty()) {
      const size_t hw =
          std::max<size_t>(2, std::thread::hardware_concurrency());
      for (const size_t threads : {size_t{1}, size_t{2}, hw}) {
        pools_.push_back(std::make_unique<util::ThreadPool>(threads));
      }
    }
    std::vector<util::ThreadPool*> out;
    for (auto& pool : pools_) out.push_back(pool.get());
    return out;
  }

  std::unique_ptr<data::Table> t_;
  std::unique_ptr<data::Table> u_;
  std::vector<std::unique_ptr<util::ThreadPool>> pools_;
  Executor executor_;
  std::unique_ptr<Executor> scalar_executor_;
};

TEST_F(ExecutorDiffTest, RandomizedQueriesBitwiseIdentical) {
  std::mt19937_64 rng(2026);
  const std::vector<std::string> t_filters = {
      "g1 = 'g1_2'",         "g2 <> 'g2_5'", "c IN ('c0', 'c2', 'c4')",
      "v < 6",               "v >= 2",       "k IN ('k1', 'k4', 'k9')",
      "g1 IN ('g1_0', 'g1_6')"};
  const std::vector<std::string> u_filters = {
      "h = 'h1'", "h <> 'h3'", "w > 1", "k2 IN ('k3', 'k7', 'k12')"};
  const std::vector<std::string> t_groups = {"g1", "g2", "c", "v"};
  const std::vector<std::string> u_groups = {"h", "w"};
  const std::vector<std::string> t_aggs = {"SUM(v)", "AVG(v)"};
  const std::vector<std::string> u_aggs = {"SUM(w)", "AVG(w)"};

  auto pick = [&rng](const std::vector<std::string>& from, size_t count) {
    std::vector<std::string> out(from);
    for (size_t i = 0; i < out.size(); ++i) {
      std::swap(out[i], out[i + rng() % (out.size() - i)]);
    }
    out.resize(std::min(count, out.size()));
    return out;
  };

  size_t checked = 0;
  for (size_t i = 0; i < kNumQueries && !HasFailure(); ++i) {
    const bool join = i % 10 >= 7;  // 30% joins
    std::vector<std::string> filters;
    std::vector<std::string> groups;
    std::vector<std::string> aggs = {"COUNT(*)"};
    std::string from;
    if (join) {
      from = "u b, t p WHERE b.k2 = p.k";
      for (const auto& f : pick(u_filters, rng() % 2)) {
        filters.push_back(f);
      }
      for (const auto& f : pick(t_filters, rng() % 2)) {
        filters.push_back(f);
      }
      groups = pick(rng() % 2 == 0 ? t_groups : u_groups, rng() % 3);
      for (const auto& a : pick(rng() % 2 == 0 ? t_aggs : u_aggs, rng() % 3)) {
        aggs.push_back(a);
      }
    } else {
      from = "t";
      for (const auto& f : pick(t_filters, rng() % 3)) {
        filters.push_back(f);
      }
      groups = pick(t_groups, rng() % 3);
      for (const auto& a : pick(t_aggs, rng() % 3)) {
        aggs.push_back(a);
      }
    }
    std::string sql = "SELECT ";
    for (const auto& g : groups) sql += g + ", ";
    for (size_t a = 0; a < aggs.size(); ++a) {
      sql += aggs[a] + (a + 1 < aggs.size() ? ", " : " ");
    }
    sql += "FROM " + from;
    for (size_t f = 0; f < filters.size(); ++f) {
      sql += (f == 0 && !join ? " WHERE " : " AND ") + filters[f];
    }
    if (!groups.empty()) {
      sql += " GROUP BY ";
      for (size_t g = 0; g < groups.size(); ++g) {
        sql += groups[g] + (g + 1 < groups.size() ? ", " : "");
      }
    }
    CheckQuery(sql);
    ++checked;
  }
  EXPECT_EQ(checked, kNumQueries);
}

/// 10 group columns x 100-label domains = ~70 key bits: exercises the
/// TupleKey fallback for both grouping and join keys.
TEST(ExecutorWideKeyTest, WideGroupAndJoinKeysMatchReference) {
  auto labels100 = [] {
    std::vector<std::string> labels;
    for (size_t i = 0; i < 100; ++i) labels.push_back(std::to_string(i));
    return labels;
  }();
  auto schema = std::make_shared<data::Schema>();
  for (size_t a = 0; a < 10; ++a) {
    schema->AddAttribute("a" + std::to_string(a), labels100);
  }
  data::Table wide(schema);
  std::mt19937_64 rng(5);
  for (size_t r = 0; r < 3000; ++r) {
    std::vector<data::ValueCode> codes;
    for (size_t a = 0; a < 10; ++a) {
      // Narrow value range so groups and join keys repeat.
      codes.push_back(static_cast<data::ValueCode>(rng() % 3 * 7));
    }
    wide.AppendRow(codes);
    wide.set_weight(r, static_cast<double>(rng() % 4) * 0.25 + 0.25);
  }
  Executor executor;
  executor.RegisterTable("wide", &wide);

  std::string all_cols;
  std::string join_on;
  for (size_t a = 0; a < 10; ++a) {
    all_cols += "a" + std::to_string(a) + ", ";
    join_on += std::string(a == 0 ? "" : " AND ") + "x.a" + std::to_string(a) +
               " = y.a" + std::to_string(a);
  }
  const std::vector<std::string> sqls = {
      "SELECT " + all_cols + "COUNT(*) FROM wide GROUP BY " +
          all_cols.substr(0, all_cols.size() - 2),
      "SELECT COUNT(*) FROM wide x, wide y WHERE " + join_on,
      "SELECT x.a0, COUNT(*) FROM wide x, wide y WHERE " + join_on +
          " GROUP BY x.a0",
  };
  util::ThreadPool pool(3);
  for (const std::string& sql : sqls) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    for (util::ThreadPool* p : {static_cast<util::ThreadPool*>(nullptr),
                                &pool}) {
      auto reference = executor.ExecuteReference(*stmt, p, 500);
      ASSERT_TRUE(reference.ok()) << sql;
      auto vectorized = executor.Execute(*stmt, p, 500);
      ASSERT_TRUE(vectorized.ok()) << sql;
      ExpectBitwiseEqual(*vectorized, *reference, sql);
      ASSERT_FALSE(reference->rows.empty()) << sql;
    }
  }
}

/// Pool sizes 1, 2, and hardware.
std::vector<std::unique_ptr<util::ThreadPool>> MakePools() {
  std::vector<std::unique_ptr<util::ThreadPool>> pools;
  const size_t hw = std::max<size_t>(2, std::thread::hardware_concurrency());
  for (const size_t threads : {size_t{1}, size_t{2}, hw}) {
    pools.push_back(std::make_unique<util::ThreadPool>(threads));
  }
  return pools;
}

/// A probe table of more than 65,536 rows (selections cross a uint16
/// posting block) and a small join partner, each with a code index.
class ExecutorIndexDiffTest : public ::testing::Test {
 protected:
  static constexpr size_t kRows = data::PostingList::kBlockRows + 14464;

  void SetUp() override {
    auto labels = [](const std::string& prefix, size_t n) {
      std::vector<std::string> out;
      for (size_t i = 0; i < n; ++i) out.push_back(prefix + std::to_string(i));
      return out;
    };
    auto t_schema = std::make_shared<data::Schema>();
    t_schema->AddAttribute("g1", labels("g1_", 7));
    t_schema->AddAttribute("g2", labels("g2_", 13));
    t_schema->AddAttribute("v", labels("", 9));
    t_schema->AddAttribute("c", labels("c", 5));
    t_schema->AddAttribute("k", labels("k", 199));
    t_ = std::make_unique<data::Table>(t_schema);
    std::mt19937_64 rng(23);
    for (size_t r = 0; r < kRows; ++r) {
      t_->AppendRow({static_cast<data::ValueCode>(rng() % 7),
                     static_cast<data::ValueCode>(rng() % 13),
                     static_cast<data::ValueCode>(rng() % 9),
                     static_cast<data::ValueCode>(rng() % 5),
                     static_cast<data::ValueCode>(rng() % 199)});
      t_->set_weight(r, static_cast<double>(rng() % 16) * 0.25 + 0.25);
    }
    auto u_schema = std::make_shared<data::Schema>();
    u_schema->AddAttribute("k2", labels("k", 199));
    u_schema->AddAttribute("h", labels("h", 4));
    u_ = std::make_unique<data::Table>(u_schema);
    for (size_t r = 0; r < 2000; ++r) {
      u_->AppendRow({static_cast<data::ValueCode>(rng() % 199),
                     static_cast<data::ValueCode>(rng() % 4)});
      u_->set_weight(r, static_cast<double>(rng() % 8) * 0.25 + 0.5);
    }
    t_index_ = std::make_unique<data::PostingIndex>(t_.get());
    u_index_ = std::make_unique<data::PostingIndex>(u_.get());
    indexed_.RegisterTable("t", t_.get(), t_index_.get());
    indexed_.RegisterTable("u", u_.get(), u_index_.get());
    scanning_.RegisterTable("t", t_.get());
    scanning_.RegisterTable("u", u_.get());
  }

  /// Checks `sql` on the index path against the scan path and the
  /// reference in every configuration, and whether the index selected
  /// (fewer rows scanned) or was bypassed (the same rows scanned).
  void CheckQuery(const std::string& sql, bool index_selects) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    auto reference = scanning_.ExecuteReference(*stmt);
    ASSERT_TRUE(reference.ok()) << sql;
    std::vector<std::pair<util::ThreadPool*, size_t>> configs = {{nullptr, 0}};
    for (const auto& pool : pools_) {
      for (const size_t shard_rows : {size_t{0}, size_t{1000}}) {
        configs.emplace_back(pool.get(), shard_rows);
      }
    }
    for (const auto& [pool, shard_rows] : configs) {
      const std::string what =
          sql + " [pool " +
          std::to_string(pool == nullptr ? 0 : pool->num_threads()) +
          " shard " + std::to_string(shard_rows) + "]";
      const uint64_t indexed_before = indexed_.stats().rows_scanned;
      const uint64_t scanning_before = scanning_.stats().rows_scanned;
      auto via_index = indexed_.Execute(*stmt, pool, shard_rows);
      ASSERT_TRUE(via_index.ok()) << what;
      auto via_scan = scanning_.Execute(*stmt, pool, shard_rows);
      ASSERT_TRUE(via_scan.ok()) << what;
      ExpectBitwiseEqual(*via_index, *via_scan, "index vs scan: " + what);
      // Exact weights: every layout agrees with the sequential reference.
      ExpectBitwiseEqual(*via_index, *reference, "index vs ref: " + what);
      if (pool != nullptr) {
        auto ref_pooled = scanning_.ExecuteReference(*stmt, pool, shard_rows);
        ASSERT_TRUE(ref_pooled.ok()) << what;
        ExpectBitwiseEqual(*via_index, *ref_pooled, "pooled ref: " + what);
      }
      const uint64_t indexed_rows =
          indexed_.stats().rows_scanned - indexed_before;
      const uint64_t scanned_rows =
          scanning_.stats().rows_scanned - scanning_before;
      if (index_selects) {
        EXPECT_LT(indexed_rows, scanned_rows) << what;
      } else {
        EXPECT_EQ(indexed_rows, scanned_rows) << what;
      }
    }
  }

  std::unique_ptr<data::Table> t_;
  std::unique_ptr<data::Table> u_;
  std::unique_ptr<data::PostingIndex> t_index_;
  std::unique_ptr<data::PostingIndex> u_index_;
  std::vector<std::unique_ptr<util::ThreadPool>> pools_ = MakePools();
  Executor indexed_;
  Executor scanning_;
};

TEST_F(ExecutorIndexDiffTest, PointFiltersSelectFromPostingLists) {
  CheckQuery("SELECT g2, COUNT(*), SUM(v) FROM t WHERE g1 = 'g1_3' "
             "GROUP BY g2",
             true);
  // The second equality's list (1 of 199 codes) is shorter than the
  // first's (1 of 7): it selects and g1 compacts.
  CheckQuery("SELECT g2, COUNT(*), AVG(v) FROM t WHERE g1 = 'g1_3' AND "
             "k = 'k17' GROUP BY g2",
             true);
  CheckQuery("SELECT c, AVG(v), COUNT(*) FROM t WHERE c IN ('c2') AND "
             "g1 = 'g1_0' GROUP BY c",
             true);
  // An ordered filter compacts the posting selection.
  CheckQuery("SELECT g2, COUNT(*) FROM t WHERE v < 4 AND g1 = 'g1_5' "
             "GROUP BY g2",
             true);
  CheckQuery("SELECT COUNT(*), SUM(v) FROM t WHERE g2 = 'g2_11'", true);
  // Labels outside the domain select the empty list.
  CheckQuery("SELECT g1, COUNT(*) FROM t WHERE g1 = 'nope' GROUP BY g1",
             true);
  CheckQuery("SELECT COUNT(*), AVG(v) FROM t WHERE c IN ('zz')", true);
  // Both join sides select from their own index.
  CheckQuery("SELECT h, COUNT(*), SUM(v) FROM u b, t p WHERE b.k2 = p.k "
             "AND p.g1 = 'g1_4' AND b.h = 'h1' GROUP BY h",
             true);
}

TEST_F(ExecutorIndexDiffTest, OtherPredicatesBypassTheIndex) {
  CheckQuery("SELECT g1, COUNT(*) FROM t WHERE c IN ('c1', 'c3') "
             "GROUP BY g1",
             false);
  CheckQuery("SELECT g1, SUM(v) FROM t WHERE v < 4 GROUP BY g1", false);
  CheckQuery("SELECT g2, COUNT(*) FROM t WHERE g1 <> 'g1_2' GROUP BY g2",
             false);
  CheckQuery("SELECT c, COUNT(*) FROM t GROUP BY c", false);
}

/// Three tables with one schema as the worlds of one relation: each
/// world's values in the fused answer are bitwise a one-world executor's
/// over that table, and presence marks exactly the groups that world
/// produced.
TEST(ExecutorWorldsTest, EachWorldEqualsAOneWorldExecutor) {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("a", {"a0", "a1", "a2", "a3"});
  schema->AddAttribute("b", {"b0", "b1", "b2", "b3", "b4", "b5"});
  schema->AddAttribute("v", {"1", "2", "5"});
  std::vector<std::unique_ptr<data::Table>> tables;
  std::vector<std::unique_ptr<data::PostingIndex>> indexes;
  std::vector<TableSource> worlds;
  std::mt19937_64 rng(99);
  for (size_t k = 0; k < 3; ++k) {
    auto table = std::make_unique<data::Table>(schema);
    const size_t rows = 3000 + 1000 * k;
    for (size_t r = 0; r < rows; ++r) {
      // World k never draws b = b<k>, so worlds disagree on groups.
      data::ValueCode b = static_cast<data::ValueCode>(rng() % 6);
      if (b == static_cast<data::ValueCode>(k)) b = 5;
      table->AppendRow({static_cast<data::ValueCode>(rng() % 4), b,
                        static_cast<data::ValueCode>(rng() % 3)});
      table->set_weight(r, static_cast<double>(rng() % 8) * 0.25 + 0.25);
    }
    indexes.push_back(std::make_unique<data::PostingIndex>(table.get()));
    worlds.push_back({table.get(), indexes.back().get()});
    tables.push_back(std::move(table));
  }
  Executor fused;
  fused.RegisterWorlds("w", worlds);
  const std::vector<std::string> sqls = {
      "SELECT a, b, COUNT(*), SUM(v) FROM w GROUP BY a, b",
      "SELECT b, AVG(v) FROM w WHERE a = 'a2' GROUP BY b",
      "SELECT COUNT(*), SUM(v) FROM w WHERE b = 'b1'",
      "SELECT x.b, COUNT(*) FROM w x, w y WHERE x.a = y.a AND x.b = 'b0' "
      "AND y.b = 'b4' GROUP BY x.b",
  };
  auto pools = MakePools();
  for (const std::string& sql : sqls) {
    auto stmt = Parse(sql);
    ASSERT_TRUE(stmt.ok()) << sql;
    EXPECT_EQ(fused.Execute(*stmt).status().code(),
              StatusCode::kInvalidArgument);
    for (util::ThreadPool* pool :
         {static_cast<util::ThreadPool*>(nullptr), pools[0].get(),
          pools[2].get()}) {
      for (const size_t shard_rows : {size_t{0}, size_t{1000}}) {
        auto coded = fused.ExecuteCoded(*stmt, pool, shard_rows);
        ASSERT_TRUE(coded.ok()) << sql;
        ASSERT_EQ(coded->num_worlds, 3u);
        for (size_t k = 0; k < 3; ++k) {
          Executor single;
          single.RegisterTable("w", tables[k].get());
          auto expected = single.Execute(*stmt, pool, shard_rows);
          ASSERT_TRUE(expected.ok()) << sql;
          CodedResult world_k = coded->EmptyLike(1);
          for (size_t g = 0; g < coded->num_groups(); ++g) {
            if (!coded->present_in(g, k)) continue;
            world_k.AddGroup(coded->key(g), coded->world_values(g, k));
          }
          ExpectBitwiseEqual(world_k.Decode(), *expected,
                             sql + " world " + std::to_string(k));
        }
      }
    }
  }
}

}  // namespace
}  // namespace themis::sql
