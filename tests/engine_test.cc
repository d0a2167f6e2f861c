// Tests for the unified inference engine and plan-based query path: the
// memoizing bn::InferenceEngine (hit/miss accounting, LRU bound, bitwise
// cache-on/off identity), the core::QueryPlanner (point detection, plan
// cache, SQL normalization), and ThemisDb::QueryBatch.
#include <gtest/gtest.h>

#include <atomic>
#include <future>
#include <latch>
#include <map>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bn/inference.h"
#include "bn/inference_engine.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/query_plan.h"
#include "core/themis_db.h"
#include "sql/parser.h"
#include "util/cancel.h"
#include "util/lru_cache.h"
#include "util/thread_pool.h"

namespace themis::core {
namespace {

/// The paper's running example (Sec 2 / Example 3.1): population of 10
/// flights, biased sample of 4, Γ = {date; (o_st, d_st)}.
class EngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    schema_ = std::make_shared<data::Schema>();
    schema_->AddAttribute("date", {"01", "02"});
    schema_->AddAttribute("o_st", {"FL", "NC", "NY"});
    schema_->AddAttribute("d_st", {"FL", "NC", "NY"});
    population_ = std::make_unique<data::Table>(schema_);
    const char* prows[][3] = {
        {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
        {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
        {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
        {"02", "NY", "NY"}};
    for (const auto& r : prows) {
      population_->AppendRowLabels({r[0], r[1], r[2]});
    }
    sample_ = std::make_unique<data::Table>(schema_);
    const char* srows[][3] = {{"01", "FL", "FL"},
                              {"01", "FL", "FL"},
                              {"02", "NC", "NY"},
                              {"01", "NY", "NC"}};
    for (const auto& r : srows) sample_->AppendRowLabels({r[0], r[1], r[2]});
    aggregates_ = aggregate::AggregateSet(schema_);
    aggregates_.Add(aggregate::ComputeAggregate(*population_, {0}));
    aggregates_.Add(aggregate::ComputeAggregate(*population_, {1, 2}));
  }

  ThemisOptions FastOptions() const {
    ThemisOptions options;
    options.bn_group_by_samples = 5;
    options.bn_sample_rows = 50;
    return options;
  }

  ThemisModel BuildModel(const ThemisOptions& options) const {
    auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
    EXPECT_TRUE(model.ok()) << model.status().ToString();
    return std::move(model).value();
  }

  data::SchemaPtr schema_;
  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

TEST(LruCacheTest, EvictsLeastRecentlyUsed) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(2, 20);
  EXPECT_EQ(*cache.Get(1), 10);  // 1 is now most-recently used
  cache.Put(3, 30);              // evicts 2
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_FALSE(cache.Get(2).has_value());
  EXPECT_TRUE(cache.Get(1).has_value());
  EXPECT_TRUE(cache.Get(3).has_value());
}

TEST(LruCacheTest, UnboundedWhenCapacityZero) {
  LruCache<int, int> cache(0);
  for (int i = 0; i < 100; ++i) cache.Put(i, i);
  EXPECT_EQ(cache.size(), 100u);
  EXPECT_EQ(cache.evictions(), 0u);
}

TEST(LruCacheTest, PutOverwritesInPlace) {
  LruCache<int, int> cache(2);
  cache.Put(1, 10);
  cache.Put(1, 11);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(*cache.Get(1), 11);
}

TEST(NormalizeSqlTest, CollapsesWhitespaceOutsideLiterals) {
  EXPECT_EQ(NormalizeSql("  SELECT   COUNT(*)\n FROM  f  "),
            "SELECT COUNT(*) FROM f");
  // Whitespace inside single-quoted literals is semantic; two literals
  // differing only in internal spacing must not share a cache key.
  EXPECT_NE(NormalizeSql("SELECT COUNT(*) FROM f WHERE a = 'x  y'"),
            NormalizeSql("SELECT COUNT(*) FROM f WHERE a = 'x y'"));
}

TEST_F(EngineTest, EngineMatchesVariableElimination) {
  ThemisModel model = BuildModel(FastOptions());
  ASSERT_NE(model.network(), nullptr);
  bn::InferenceEngine engine(model.network());
  bn::VariableElimination ve(model.network());
  const bn::Evidence evidence = {{1, 0}, {2, 2}};  // o_st=FL, d_st=NY
  auto from_engine = engine.Probability(evidence);
  auto from_ve = ve.Probability(evidence);
  ASSERT_TRUE(from_engine.ok() && from_ve.ok());
  EXPECT_EQ(*from_engine, *from_ve);

  auto m_engine = engine.Marginal({1, 2});
  auto m_ve = ve.Marginal({1, 2});
  ASSERT_TRUE(m_engine.ok() && m_ve.ok());
  ASSERT_EQ(m_engine->attrs(), m_ve->attrs());
  EXPECT_EQ(m_engine->num_groups(), m_ve->num_groups());
  for (const auto& [key, mass] : m_ve->entries()) {
    EXPECT_DOUBLE_EQ(m_engine->Mass(key), mass);
  }
}

TEST_F(EngineTest, RepeatedQueriesHitTheCache) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine engine(model.network());
  const bn::Evidence evidence = {{1, 0}, {2, 2}};
  auto first = engine.Probability(evidence);
  auto second = engine.Probability(evidence);
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);  // bitwise: the cached double comes back
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_DOUBLE_EQ(stats.HitRate(), 0.5);
}

TEST_F(EngineTest, MarginalCacheIsOrderInsensitive) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine engine(model.network());
  auto forward = engine.Marginal({1, 2});
  auto backward = engine.Marginal({2, 1});
  ASSERT_TRUE(forward.ok() && backward.ok());
  // (2,1) is served from the (1,2) entry, reordered.
  EXPECT_EQ(engine.cache_stats().hits, 1u);
  EXPECT_EQ(engine.cache_stats().misses, 1u);
  for (const auto& [key, mass] : forward->entries()) {
    EXPECT_EQ(backward->Mass({key[1], key[0]}), mass);
  }
}

TEST_F(EngineTest, LruEvictionRespectsConfiguredBound) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.cache_capacity = 2;
  bn::InferenceEngine engine(model.network(), options);
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  ASSERT_TRUE(engine.Probability({{1, 1}}).ok());
  ASSERT_TRUE(engine.Probability({{1, 2}}).ok());  // evicts {{1,0}}
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.evictions, 1u);
  // The evicted entry misses again.
  ASSERT_TRUE(engine.Probability({{1, 0}}).ok());
  EXPECT_EQ(engine.cache_stats().misses, 4u);
  EXPECT_EQ(engine.cache_stats().hits, 0u);
}

TEST_F(EngineTest, DisabledCacheComputesAndCountsNothing) {
  ThemisModel model = BuildModel(FastOptions());
  bn::InferenceEngine::Options options;
  options.enable_cache = false;
  bn::InferenceEngine engine(model.network(), options);
  auto first = engine.Probability({{1, 0}, {2, 2}});
  auto second = engine.Probability({{1, 0}, {2, 2}});
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(*first, *second);
  bn::InferenceCacheStats stats = engine.cache_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 0u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST_F(EngineTest, AnswersIdenticalWithCacheOnAndOff) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");
  bn::InferenceEngine* engine = evaluator.mutable_inference_engine();
  ASSERT_NE(engine, nullptr);

  const std::vector<std::string> sqls = {
      // In-sample point, BN-answered point, out-of-domain point.
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'",
      // GROUP BY and a non-point global aggregate.
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT COUNT(*) FROM flights WHERE date <> '02'",
  };
  for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                          AnswerMode::kBnOnly}) {
    for (const std::string& sql : sqls) {
      engine->ClearCache();
      engine->set_cache_enabled(false);
      auto uncached = evaluator.Query(sql, mode);
      engine->ClearCache();
      engine->set_cache_enabled(true);
      auto cold = evaluator.Query(sql, mode);   // populates the cache
      auto warm = evaluator.Query(sql, mode);   // served from it
      ASSERT_EQ(uncached.ok(), cold.ok()) << sql;
      if (!uncached.ok()) continue;
      ASSERT_TRUE(warm.ok()) << sql;
      for (const auto* cached : {&*cold, &*warm}) {
        ASSERT_EQ(uncached->rows.size(), cached->rows.size()) << sql;
        for (size_t i = 0; i < uncached->rows.size(); ++i) {
          EXPECT_EQ(uncached->rows[i].group, cached->rows[i].group) << sql;
          ASSERT_EQ(uncached->rows[i].values.size(),
                    cached->rows[i].values.size());
          for (size_t j = 0; j < uncached->rows[i].values.size(); ++j) {
            // Bitwise identity, not approximate equality.
            EXPECT_EQ(uncached->rows[i].values[j], cached->rows[i].values[j])
                << sql;
          }
        }
      }
    }
  }
}

TEST_F(EngineTest, PointQueryHitRateIncreasesOnRepeats) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  // (FL, NY) is missing from the sample, so every hybrid answer runs BN
  // inference — the second time from the memo table.
  const std::string sql =
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
  ASSERT_TRUE(db.Query(sql).ok());
  const bn::InferenceCacheStats before =
      db.evaluator()->inference_engine()->cache_stats();
  ASSERT_TRUE(db.Query(sql).ok());
  const bn::InferenceCacheStats after =
      db.evaluator()->inference_engine()->cache_stats();
  EXPECT_EQ(after.hits, before.hits + 1);
  EXPECT_EQ(after.misses, before.misses);
  EXPECT_GT(after.HitRate(), before.HitRate());
}

TEST_F(EngineTest, PlannerClassifiesShapes) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");

  auto point = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(point.ok());
  EXPECT_EQ((*point)->kind, PlanKind::kPoint);
  EXPECT_EQ((*point)->point_attrs, (std::vector<size_t>{1, 2}));
  EXPECT_EQ((*point)->point_values, (data::TupleKey{0, 2}));
  EXPECT_FALSE((*point)->out_of_domain);

  auto oob = evaluator.Plan("SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'");
  ASSERT_TRUE(oob.ok());
  EXPECT_EQ((*oob)->kind, PlanKind::kPoint);
  EXPECT_TRUE((*oob)->out_of_domain);

  auto group_by = evaluator.Plan(
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  ASSERT_TRUE(group_by.ok());
  EXPECT_EQ((*group_by)->kind, PlanKind::kGroupBy);

  auto range = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE date <> '02'");
  ASSERT_TRUE(range.ok());
  EXPECT_EQ((*range)->kind, PlanKind::kGroupBy);

  EXPECT_FALSE(evaluator.Plan("not sql at all").ok());
}

TEST_F(EngineTest, PlannerWithoutBnPlansPassthrough) {
  ThemisOptions options = FastOptions();
  options.enable_bn = false;
  ThemisModel model = BuildModel(options);
  HybridEvaluator evaluator(&model, "flights");
  auto plan = evaluator.Plan(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(plan.ok());
  EXPECT_EQ((*plan)->kind, PlanKind::kPassthrough);
}

TEST_F(EngineTest, PlanCacheSharesNormalizedText) {
  ThemisModel model = BuildModel(FastOptions());
  HybridEvaluator evaluator(&model, "flights");
  auto a = evaluator.Plan("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  auto b = evaluator.Plan(
      "SELECT  o_st,   COUNT(*)\nFROM flights\nGROUP BY o_st");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->get(), b->get());  // one shared plan object
  EXPECT_EQ(evaluator.planner().cache_hits(), 1u);
  EXPECT_EQ(evaluator.planner().cache_misses(), 1u);
}

TEST_F(EngineTest, QueryBatchMatchesSequentialLoop) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());

  const std::vector<std::string> sqls = {
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'",
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT date, COUNT(*) FROM flights GROUP BY date",
  };
  for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                          AnswerMode::kBnOnly}) {
    auto batch = db.QueryBatch(sqls, mode);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    ASSERT_EQ(batch->size(), sqls.size());
    for (size_t q = 0; q < sqls.size(); ++q) {
      auto sequential = db.Query(sqls[q], mode);
      ASSERT_TRUE(sequential.ok());
      const sql::QueryResult& batched = (*batch)[q];
      ASSERT_EQ(sequential->rows.size(), batched.rows.size()) << sqls[q];
      for (size_t i = 0; i < sequential->rows.size(); ++i) {
        EXPECT_EQ(sequential->rows[i].group, batched.rows[i].group);
        EXPECT_EQ(sequential->rows[i].values, batched.rows[i].values);
      }
    }
  }
}

TEST_F(EngineTest, ResultMemoServesRepeatedGroupByTraffic) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  auto cold = db.Query(sql);
  ASSERT_TRUE(cold.ok());
  ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.entries, 1u);

  auto warm = db.Query(sql);
  ASSERT_TRUE(warm.ok());
  stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  ASSERT_EQ(cold->rows.size(), warm->rows.size());
  for (size_t i = 0; i < cold->rows.size(); ++i) {
    EXPECT_EQ(cold->rows[i].group, warm->rows[i].group);
    EXPECT_EQ(cold->rows[i].values, warm->rows[i].values);  // bitwise
  }

  // Point queries bypass the memo (the inference cache already covers
  // them) and memoization is per (fingerprint, mode).
  ASSERT_TRUE(
      db.Query("SELECT COUNT(*) FROM flights WHERE o_st = 'FL'").ok());
  EXPECT_EQ(db.evaluator()->result_memo_stats().misses, 1u);
  ASSERT_TRUE(db.Query(sql, AnswerMode::kSampleOnly).ok());
  EXPECT_EQ(db.evaluator()->result_memo_stats().misses, 2u);
}

/// The result memo's LRU bound: one distinct fingerprint more than
/// HybridEvaluator::kResultMemoCapacity evicts exactly the least recently
/// used entry, which then misses again while the newest still hits.
TEST_F(EngineTest, ResultMemoEvictsBeyondCapacity) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  // Distinct output aliases give distinct plan fingerprints.
  const auto sql = [](size_t i) {
    return "SELECT o_st, COUNT(*) AS c" + std::to_string(i) +
           " FROM flights GROUP BY o_st";
  };
  constexpr size_t kCapacity = HybridEvaluator::kResultMemoCapacity;
  for (size_t i = 0; i <= kCapacity; ++i) {
    ASSERT_TRUE(db.Query(sql(i), AnswerMode::kSampleOnly).ok()) << i;
  }
  ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.entries, kCapacity);
  EXPECT_EQ(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, kCapacity + 1);

  ASSERT_TRUE(db.Query(sql(kCapacity), AnswerMode::kSampleOnly).ok());
  EXPECT_EQ(db.evaluator()->result_memo_stats().hits, 1u);
  ASSERT_TRUE(db.Query(sql(0), AnswerMode::kSampleOnly).ok());  // evicted
  stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, kCapacity + 2);
  EXPECT_EQ(stats.evictions, 2u);
}

TEST_F(EngineTest, ResultMemoInvalidatedOnRebuild) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  auto before = db.Query(sql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db.Query(sql).ok());  // memoized now
  EXPECT_EQ(db.evaluator()->result_memo_stats().hits, 1u);

  // New knowledge arrives and the model is rebuilt: the memo must not
  // serve stale answers.
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 0u);
  auto after = db.Query(sql);
  ASSERT_TRUE(after.ok());
  // The (o_st, d_st) aggregate reweights the sample, so the answer
  // actually changes — the fresh memo recomputed it.
  EXPECT_NE(before->ValueMap(), after->ValueMap());
}

/// 200+ mixed point/GROUP BY queries, pool sizes {1, 2, hw}: batch answers
/// bitwise-equal to a sequential Query() loop under every mode, and the
/// result memo pays off on a repeat pass.
TEST_F(EngineTest, QueryBatchStressAcrossPoolSizes) {
  std::vector<std::string> sqls;
  const char* states[] = {"FL", "NC", "NY", "ZZ"};
  for (const char* o : states) {
    for (const char* d : states) {
      sqls.push_back(std::string("SELECT COUNT(*) FROM flights WHERE "
                                 "o_st = '") +
                     o + "' AND d_st = '" + d + "'");
    }
  }
  for (const char* date : {"01", "02"}) {
    for (const char* o : states) {
      sqls.push_back(std::string("SELECT d_st, COUNT(*) FROM flights "
                                 "WHERE date = '") +
                     date + "' AND o_st = '" + o + "' GROUP BY d_st");
    }
  }
  sqls.push_back("SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st");
  sqls.push_back("SELECT date, COUNT(*) FROM flights GROUP BY date");
  sqls.push_back("SELECT COUNT(*) FROM flights WHERE date <> '01'");
  // Repeat the mix until the workload tops 200 queries.
  const size_t distinct = sqls.size();
  while (sqls.size() < 200) {
    sqls.push_back(sqls[sqls.size() % distinct]);
  }
  ASSERT_GE(sqls.size(), 200u);

  const size_t hw = util::DefaultParallelism();
  for (size_t threads : std::vector<size_t>{1, 2, hw}) {
    ThemisOptions options = FastOptions();
    options.num_threads = threads;
    // Honest comparison: the loop must execute, not read the batch's memo.
    options.enable_result_memo = false;
    ThemisDb db(options);
    ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
            .ok());
    ASSERT_TRUE(db.Build().ok());
    for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                            AnswerMode::kBnOnly}) {
      auto batch = db.QueryBatch(sqls, mode);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), sqls.size());
      for (size_t q = 0; q < sqls.size(); ++q) {
        auto sequential = db.Query(sqls[q], mode);
        ASSERT_TRUE(sequential.ok());
        const sql::QueryResult& batched = (*batch)[q];
        ASSERT_EQ(sequential->rows.size(), batched.rows.size())
            << sqls[q] << " threads=" << threads;
        for (size_t i = 0; i < sequential->rows.size(); ++i) {
          EXPECT_EQ(sequential->rows[i].group, batched.rows[i].group);
          // Bitwise equality, any pool size.
          EXPECT_EQ(sequential->rows[i].values, batched.rows[i].values)
              << sqls[q] << " threads=" << threads;
        }
      }
    }
  }

  // Repeat pass with the memo on: the second batch is served from it.
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  auto first = db.QueryBatch(sqls, AnswerMode::kHybrid);
  ASSERT_TRUE(first.ok());
  const ResultMemoStats cold = db.evaluator()->result_memo_stats();
  auto second = db.QueryBatch(sqls, AnswerMode::kHybrid);
  ASSERT_TRUE(second.ok());
  const ResultMemoStats warm = db.evaluator()->result_memo_stats();
  EXPECT_GT(warm.hits, cold.hits);
  // Every non-point query of the repeat pass hit (the first pass already
  // memoized all distinct fingerprints it saw).
  EXPECT_EQ(warm.misses, cold.misses);
  for (size_t q = 0; q < sqls.size(); ++q) {
    ASSERT_EQ((*first)[q].rows.size(), (*second)[q].rows.size());
    for (size_t i = 0; i < (*first)[q].rows.size(); ++i) {
      EXPECT_EQ((*first)[q].rows[i].values, (*second)[q].rows[i].values);
    }
  }
}

/// Racing cold duplicates: every caller that misses the cold memo
/// executes the plan itself and publishes the same deterministic answer.
/// The hook parks the first execution until a second caller has missed
/// too, so at least two executions race. Every answer is bitwise equal to
/// a fresh execution, each caller counts once as a memo hit or miss, and
/// the memo ends with one entry.
TEST_F(EngineTest, ConcurrentColdDuplicatesPublishOneAnswer) {
  ThemisOptions options = FastOptions();
  options.num_threads = 2;
  ThemisDb db(options);
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";

  constexpr size_t kCallers = 8;
  std::atomic<size_t> uncached_executions{0};
  std::promise<void> second_missed;
  std::shared_future<void> raced = second_missed.get_future().share();
  db.evaluator()->set_uncached_execute_hook([&] {
    const size_t entered = uncached_executions.fetch_add(1);
    if (entered == 0) raced.wait();
    if (entered == 1) second_missed.set_value();
  });

  std::vector<Result<sql::QueryResult>> answers(
      kCallers, Result<sql::QueryResult>(Status::Internal("unset")));
  std::latch start(kCallers);
  std::vector<std::thread> callers;
  for (size_t i = 0; i < kCallers; ++i) {
    callers.emplace_back([&db, &answers, &sql, &start, i] {
      start.arrive_and_wait();
      answers[i] = db.Query(sql);
    });
  }
  for (std::thread& t : callers) t.join();
  db.evaluator()->set_uncached_execute_hook(nullptr);

  const ResultMemoStats stats = db.evaluator()->result_memo_stats();
  EXPECT_EQ(stats.hits + stats.misses, kCallers);
  EXPECT_EQ(stats.misses, uncached_executions.load());
  EXPECT_GE(stats.misses, 2u);
  EXPECT_EQ(stats.entries, 1u);

  db.evaluator()->ClearResultMemo();
  auto fresh = db.Query(sql);
  ASSERT_TRUE(fresh.ok());
  for (const auto& answer : answers) {
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    ASSERT_EQ(answer->rows.size(), fresh->rows.size());
    for (size_t i = 0; i < fresh->rows.size(); ++i) {
      EXPECT_EQ(answer->rows[i].group, fresh->rows[i].group);
      EXPECT_EQ(answer->rows[i].values, fresh->rows[i].values);
    }
  }
}

TEST_F(EngineTest, QueryBatchRequiresBuild) {
  ThemisDb db(FastOptions());
  const std::vector<std::string> sqls = {"SELECT COUNT(*) FROM flights"};
  EXPECT_FALSE(db.QueryBatch(sqls).ok());
}

TEST_F(EngineTest, QueryBatchFailsFastOnMalformedSql) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  const std::vector<std::string> sqls = {
      "SELECT COUNT(*) FROM flights", "definitely not sql"};
  EXPECT_FALSE(db.QueryBatch(sqls).ok());
}

/// The pre-fusion BN GROUP BY, kept as a test oracle: K one-world
/// executors (no code index) answer `sql` separately, their label-decoded
/// rows merge in a std::map keyed by label vectors (groups present in all
/// K survive, values summed in sample order and divided by K), and the
/// hybrid answer unions the sample's rows with the BN-only groups through
/// a std::set. `phantoms` counts groups dropped by the all-K rule.
sql::QueryResult OracleGroupBy(const ThemisModel& model,
                               const std::string& table,
                               const std::string& sql, AnswerMode mode,
                               util::ThreadPool* pool, size_t* phantoms) {
  auto stmt = sql::Parse(sql);
  EXPECT_TRUE(stmt.ok()) << sql;
  const size_t shard_rows = model.options().shard_rows;
  std::map<std::vector<std::string>, std::pair<std::vector<double>, size_t>>
      merged;
  sql::QueryResult bn;
  const size_t k_total = model.bn_samples().size();
  for (size_t k = 0; k < k_total; ++k) {
    sql::Executor executor;
    executor.RegisterTable(table, &model.bn_samples()[k]);
    auto result = executor.Execute(*stmt, pool, shard_rows);
    EXPECT_TRUE(result.ok()) << sql;
    if (k == 0) {
      bn.group_names = result->group_names;
      bn.value_names = result->value_names;
    }
    for (const sql::ResultRow& row : result->rows) {
      auto [it, inserted] = merged.try_emplace(
          row.group, std::vector<double>(row.values.size(), 0.0), 0u);
      for (size_t i = 0; i < row.values.size(); ++i) {
        it->second.first[i] += row.values[i];
      }
      it->second.second += 1;
    }
  }
  for (auto& [group, acc] : merged) {
    if (acc.second != k_total) {
      ++*phantoms;
      continue;
    }
    sql::ResultRow row;
    row.group = group;
    row.values = acc.first;
    for (double& v : row.values) v /= static_cast<double>(k_total);
    bn.rows.push_back(std::move(row));
  }
  if (mode == AnswerMode::kBnOnly) return bn;

  sql::Executor sample_executor;
  sample_executor.RegisterTable(table, &model.reweighted_sample());
  auto sample = sample_executor.Execute(*stmt, pool, shard_rows);
  EXPECT_TRUE(sample.ok()) << sql;
  std::set<std::vector<std::string>> sample_groups;
  for (const sql::ResultRow& row : sample->rows) {
    sample_groups.insert(row.group);
  }
  for (const sql::ResultRow& row : bn.rows) {
    if (sample_groups.count(row.group) == 0) sample->rows.push_back(row);
  }
  std::sort(sample->rows.begin(), sample->rows.end(),
            [](const sql::ResultRow& a, const sql::ResultRow& b) {
              return a.group < b.group;
            });
  return *sample;
}

/// The fused K-world BN GROUP BY (posting-list selection, code-keyed
/// all-K rule, average and hybrid union) is bitwise the oracle's answer
/// in hybrid and bn modes, on a model whose small BN samples disagree on
/// groups so phantom suppression fires.
TEST_F(EngineTest, FusedBnGroupByMatchesPerSampleOracle) {
  ThemisOptions options = FastOptions();
  options.bn_group_by_samples = 6;
  options.bn_sample_rows = 9;
  options.enable_result_memo = false;
  ThemisModel model = BuildModel(options);
  ASSERT_EQ(model.bn_samples().size(), 6u);
  util::ThreadPool pool(3);
  HybridEvaluator evaluator(&model, "flights", &pool);
  const std::vector<std::string> sqls = {
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      "SELECT date, o_st, COUNT(*), SUM(date), AVG(date) FROM flights "
      "WHERE d_st = 'NY' GROUP BY date, o_st",
      "SELECT d_st, AVG(date) FROM flights WHERE o_st IN ('NC') AND "
      "date = '02' GROUP BY d_st",
      "SELECT d_st, COUNT(*) FROM flights WHERE o_st = 'ZZ' GROUP BY d_st",
      // Global aggregates: one row from every sample, never suppressed.
      "SELECT COUNT(*), SUM(date) FROM flights WHERE date <> '02'",
      "SELECT COUNT(*), AVG(date) FROM flights WHERE o_st = 'FL'",
      // Self-join: both sides bind to the same BN sample in each world.
      "SELECT a.o_st, COUNT(*), SUM(b.date) FROM flights a, flights b "
      "WHERE a.d_st = b.o_st AND a.date = '01' GROUP BY a.o_st",
  };
  size_t phantoms = 0;
  for (const AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kBnOnly}) {
    for (const std::string& sql : sqls) {
      const sql::QueryResult expected =
          OracleGroupBy(model, "flights", sql, mode, &pool, &phantoms);
      auto fused = evaluator.Query(sql, mode);
      ASSERT_TRUE(fused.ok()) << sql << ": " << fused.status().ToString();
      EXPECT_EQ(fused->group_names, expected.group_names) << sql;
      EXPECT_EQ(fused->value_names, expected.value_names) << sql;
      ASSERT_EQ(fused->rows.size(), expected.rows.size()) << sql;
      for (size_t i = 0; i < expected.rows.size(); ++i) {
        EXPECT_EQ(fused->rows[i].group, expected.rows[i].group) << sql;
        // Bitwise equality, not approximate.
        EXPECT_EQ(fused->rows[i].values, expected.rows[i].values) << sql;
      }
    }
  }
  EXPECT_GT(phantoms, 0u) << "no query exercised phantom suppression";
}

/// A token that fires after the request was admitted — here from the
/// uncached-execute hook, before the executors run — still surfaces as
/// kCancelled in both modes, never as a degraded sample answer.
TEST_F(EngineTest, CancelMidQuerySurfacesFromFusedBnGroupBy) {
  ThemisOptions options = FastOptions();
  options.enable_result_memo = false;
  ThemisModel model = BuildModel(options);
  HybridEvaluator evaluator(&model, "flights");
  const std::string sql =
      "SELECT o_st, COUNT(*) FROM flights WHERE date = '01' GROUP BY o_st";
  for (const AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kBnOnly}) {
    util::CancelToken token;
    evaluator.set_uncached_execute_hook([&token] { token.Cancel(); });
    auto result = evaluator.Query(sql, mode, &token);
    EXPECT_EQ(result.status().code(), StatusCode::kCancelled);
    evaluator.set_uncached_execute_hook(nullptr);
    EXPECT_TRUE(evaluator.Query(sql, mode).ok());
  }
}

}  // namespace
}  // namespace themis::core
