// Tests for the multi-relation core::Catalog and the ThemisDb facade over
// it: lifecycle + precise error codes, bitwise equivalence of catalog
// relations vs dedicated single-relation instances under every AnswerMode,
// relation-stamped plan fingerprints and per-relation cache isolation,
// cross-relation batch stress across pool sizes, drop-and-rebuild memo
// invalidation, and the shared cache-byte budget split.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "core/themis_db.h"
#include "util/thread_pool.h"

namespace themis::core {
namespace {

/// Two small relations with disjoint schemas: the paper's running flights
/// example (Sec 2 / Example 3.1) plus a "shops" relation, so one catalog
/// holds two independently-modeled samples side by side.
class CatalogTest : public ::testing::Test {
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

  ThemisOptions FastOptions() const {
    ThemisOptions options;
    options.bn_group_by_samples = 5;
    options.bn_sample_rows = 50;
    return options;
  }

  /// Inserts both relations (sample + aggregates) into `db`.
  void InsertBoth(ThemisDb& db) const {
    ASSERT_TRUE(db.InsertSample("flights", flights_sample_->Clone()).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("flights", *flights_population_, {"date"})
            .ok());
    ASSERT_TRUE(db.InsertAggregateFrom("flights", *flights_population_,
                                       {"o_st", "d_st"})
                    .ok());
    ASSERT_TRUE(db.InsertSample("shops", shops_sample_->Clone()).ok());
    ASSERT_TRUE(
        db.InsertAggregateFrom("shops", *shops_population_, {"city"}).ok());
    ASSERT_TRUE(db.InsertAggregateFrom("shops", *shops_population_,
                                       {"city", "kind"})
                    .ok());
  }

  std::vector<std::string> FlightsQueries() const {
    return {
        // In-sample point, BN-answered point, out-of-domain point.
        "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'FL'",
        "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'",
        "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'",
        // GROUP BYs and a non-point global aggregate.
        "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
        "SELECT date, COUNT(*) FROM flights GROUP BY date",
        "SELECT COUNT(*) FROM flights WHERE date <> '02'",
    };
  }

  std::vector<std::string> ShopsQueries() const {
    return {
        "SELECT COUNT(*) FROM shops WHERE city = 'AA' AND kind = 'K1'",
        "SELECT COUNT(*) FROM shops WHERE city = 'BB' AND kind = 'K1'",
        "SELECT COUNT(*) FROM shops WHERE city = 'QQ'",
        "SELECT city, kind, COUNT(*) FROM shops GROUP BY city, kind",
        "SELECT kind, COUNT(*) FROM shops GROUP BY kind",
        "SELECT COUNT(*) FROM shops WHERE kind <> 'K2'",
    };
  }

  static void ExpectBitwiseEqual(const sql::QueryResult& a,
                                 const sql::QueryResult& b,
                                 const std::string& context) {
    ASSERT_EQ(a.rows.size(), b.rows.size()) << context;
    for (size_t i = 0; i < a.rows.size(); ++i) {
      EXPECT_EQ(a.rows[i].group, b.rows[i].group) << context;
      ASSERT_EQ(a.rows[i].values.size(), b.rows[i].values.size()) << context;
      for (size_t j = 0; j < a.rows[i].values.size(); ++j) {
        // Bitwise double equality, not approximate.
        EXPECT_EQ(a.rows[i].values[j], b.rows[i].values[j]) << context;
      }
    }
  }

  data::SchemaPtr flights_schema_, shops_schema_;
  std::unique_ptr<data::Table> flights_population_, flights_sample_;
  std::unique_ptr<data::Table> shops_population_, shops_sample_;
};

TEST_F(CatalogTest, LifecycleAndPreciseErrorCodes) {
  Catalog catalog(FastOptions());
  EXPECT_EQ(catalog.num_relations(), 0u);
  EXPECT_FALSE(catalog.all_built());
  EXPECT_EQ(catalog.BuildAll().code(), StatusCode::kFailedPrecondition);

  // Empty names and empty samples are rejected.
  EXPECT_EQ(catalog.InsertSample("", flights_sample_->Clone()).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(
      catalog.InsertSample("flights", data::Table(flights_schema_)).code(),
      StatusCode::kInvalidArgument);

  ASSERT_TRUE(catalog.InsertSample("flights", flights_sample_->Clone()).ok());
  EXPECT_EQ(catalog.InsertSample("flights", flights_sample_->Clone()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(catalog.InsertAggregate("nope", {}).code(), StatusCode::kNotFound);
  EXPECT_EQ(
      catalog.InsertAggregateFrom("nope", *flights_population_, {"date"})
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(catalog.Build("nope").code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.DropRelation("nope").code(), StatusCode::kNotFound);

  // Registered but unbuilt: queries fail with FailedPrecondition; unknown
  // FROM tables with NotFound; unparseable routing text with ParseError.
  EXPECT_TRUE(catalog.Has("flights"));
  EXPECT_FALSE(catalog.built("flights"));
  EXPECT_EQ(
      catalog.Query("SELECT COUNT(*) FROM flights").status().code(),
      StatusCode::kFailedPrecondition);
  EXPECT_EQ(catalog.Query("SELECT COUNT(*) FROM nope").status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(catalog.Query("definitely not sql").status().code(),
            StatusCode::kParseError);

  ASSERT_TRUE(
      catalog.InsertAggregateFrom("flights", *flights_population_, {"date"})
          .ok());
  ASSERT_TRUE(catalog.Build("flights").ok());
  EXPECT_TRUE(catalog.built("flights"));
  EXPECT_TRUE(catalog.all_built());
  EXPECT_TRUE(catalog.Query("SELECT COUNT(*) FROM flights").ok());

  // Adding knowledge un-builds only the touched relation.
  ASSERT_TRUE(catalog
                  .InsertAggregateFrom("flights", *flights_population_,
                                       {"o_st", "d_st"})
                  .ok());
  EXPECT_FALSE(catalog.built("flights"));
  ASSERT_TRUE(catalog.Build("flights").ok());
  EXPECT_TRUE(catalog.built("flights"));
}

/// Flights and shops coexist in one ThemisDb; every query under every
/// AnswerMode answers bitwise identically to (a) a dedicated
/// single-relation ThemisDb and (b) a raw dedicated ThemisModel +
/// HybridEvaluator built from the same inputs.
TEST_F(CatalogTest, TwoRelationsMatchDedicatedInstancesBitwise) {
  ThemisDb combined(FastOptions());
  InsertBoth(combined);
  ASSERT_TRUE(combined.Build().ok());  // both models learn in parallel
  EXPECT_TRUE(combined.built());
  EXPECT_EQ(combined.catalog().num_relations(), 2u);

  ThemisDb flights_only(FastOptions());
  ASSERT_TRUE(
      flights_only.InsertSample("flights", flights_sample_->Clone()).ok());
  ASSERT_TRUE(
      flights_only.InsertAggregateFrom("flights", *flights_population_,
                                       {"date"})
          .ok());
  ASSERT_TRUE(flights_only
                  .InsertAggregateFrom("flights", *flights_population_,
                                       {"o_st", "d_st"})
                  .ok());
  ASSERT_TRUE(flights_only.Build().ok());

  ThemisDb shops_only(FastOptions());
  ASSERT_TRUE(shops_only.InsertSample("shops", shops_sample_->Clone()).ok());
  ASSERT_TRUE(
      shops_only.InsertAggregateFrom("shops", *shops_population_, {"city"})
          .ok());
  ASSERT_TRUE(shops_only
                  .InsertAggregateFrom("shops", *shops_population_,
                                       {"city", "kind"})
                  .ok());
  ASSERT_TRUE(shops_only.Build().ok());

  // Raw dedicated instances, bypassing the catalog entirely.
  aggregate::AggregateSet flights_aggs(flights_schema_);
  flights_aggs.Add(aggregate::ComputeAggregate(*flights_population_, {0}));
  flights_aggs.Add(aggregate::ComputeAggregate(*flights_population_, {1, 2}));
  auto raw_model = ThemisModel::Build(flights_sample_->Clone(), flights_aggs,
                                      FastOptions());
  ASSERT_TRUE(raw_model.ok());
  HybridEvaluator raw_evaluator(&*raw_model, "flights");

  for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                          AnswerMode::kBnOnly}) {
    const std::string mode_tag = std::to_string(static_cast<int>(mode));
    for (const std::string& sql : FlightsQueries()) {
      auto from_combined = combined.Query(sql, mode);
      auto from_dedicated = flights_only.Query(sql, mode);
      auto from_raw = raw_evaluator.Query(sql, mode);
      ASSERT_TRUE(from_combined.ok()) << sql;
      ASSERT_TRUE(from_dedicated.ok() && from_raw.ok()) << sql;
      ExpectBitwiseEqual(*from_combined, *from_dedicated,
                         sql + " vs dedicated db, mode " + mode_tag);
      ExpectBitwiseEqual(*from_combined, *from_raw,
                         sql + " vs raw evaluator, mode " + mode_tag);
    }
    for (const std::string& sql : ShopsQueries()) {
      auto from_combined = combined.Query(sql, mode);
      auto from_dedicated = shops_only.Query(sql, mode);
      ASSERT_TRUE(from_combined.ok()) << sql;
      ASSERT_TRUE(from_dedicated.ok()) << sql;
      ExpectBitwiseEqual(*from_combined, *from_dedicated,
                         sql + " vs dedicated db, mode " + mode_tag);
    }
  }

  // Routed point queries match the dedicated instances too; the
  // single-relation convenience overload now requires naming.
  auto combined_point =
      combined.PointQuery("flights", {{"o_st", "FL"}, {"d_st", "NY"}});
  auto dedicated_point =
      flights_only.PointQuery({{"o_st", "FL"}, {"d_st", "NY"}});
  ASSERT_TRUE(combined_point.ok() && dedicated_point.ok());
  EXPECT_EQ(*combined_point, *dedicated_point);
  EXPECT_EQ(combined.PointQuery({{"o_st", "FL"}}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(combined.model(), nullptr);
  EXPECT_NE(combined.model("flights"), nullptr);
  EXPECT_NE(flights_only.model(), nullptr);
}

/// Same SQL text planned by two relations (registered under one SQL table
/// name) yields different fingerprints, and each relation's plan cache,
/// result memo, and inference cache move independently.
TEST_F(CatalogTest, FingerprintsAndCachesAreIsolatedPerRelation) {
  Catalog catalog(FastOptions());
  RelationConfig mirror_a;
  mirror_a.table_name = "sample";
  RelationConfig mirror_b;
  mirror_b.table_name = "sample";
  ASSERT_TRUE(catalog
                  .InsertSample("flights", flights_sample_->Clone(),
                                std::move(mirror_a))
                  .ok());
  ASSERT_TRUE(catalog
                  .InsertSample("mirror", flights_sample_->Clone(),
                                std::move(mirror_b))
                  .ok());
  for (const char* name : {"flights", "mirror"}) {
    ASSERT_TRUE(
        catalog.InsertAggregateFrom(name, *flights_population_, {"date"})
            .ok());
    ASSERT_TRUE(catalog
                    .InsertAggregateFrom(name, *flights_population_,
                                         {"o_st", "d_st"})
                    .ok());
  }
  ASSERT_TRUE(catalog.BuildAll().ok());

  // Identical text, identical table name — distinct fingerprints.
  const std::string group_by =
      "SELECT o_st, COUNT(*) FROM sample GROUP BY o_st";
  auto plan_a = catalog.evaluator("flights")->Plan(group_by);
  auto plan_b = catalog.evaluator("mirror")->Plan(group_by);
  ASSERT_TRUE(plan_a.ok() && plan_b.ok());
  EXPECT_EQ((*plan_a)->relation, "flights");
  EXPECT_EQ((*plan_b)->relation, "mirror");
  EXPECT_NE((*plan_a)->fingerprint, (*plan_b)->fingerprint);

  // Result memos are isolated: traffic on one relation never warms (or
  // pollutes) the other's.
  ASSERT_TRUE(catalog.QueryOn("flights", group_by).ok());
  ASSERT_TRUE(catalog.QueryOn("flights", group_by).ok());
  EXPECT_EQ(catalog.evaluator("flights")->result_memo_stats().hits, 1u);
  EXPECT_EQ(catalog.evaluator("mirror")->result_memo_stats().hits, 0u);
  EXPECT_EQ(catalog.evaluator("mirror")->result_memo_stats().misses, 0u);

  // Inference caches too: a BN-answered point on one relation leaves the
  // other's engine untouched.
  const std::string bn_point =
      "SELECT COUNT(*) FROM sample WHERE o_st = 'FL' AND d_st = 'NY'";
  ASSERT_TRUE(catalog.QueryOn("mirror", bn_point).ok());
  EXPECT_GT(catalog.evaluator("mirror")->inference_engine()->cache_stats()
                .misses,
            0u);
  EXPECT_EQ(catalog.evaluator("flights")->inference_engine()->cache_stats()
                .misses,
            0u);

  // FROM-routing resolves relation names, not table names: "sample" is a
  // table alias shared by both relations, so it is not routable.
  EXPECT_EQ(catalog.Query(group_by).status().code(), StatusCode::kNotFound);
}

/// 200 queries interleaving two relations, pool sizes {1, 2, hw}: batch
/// answers bitwise-equal to a sequential Query() loop under every mode.
TEST_F(CatalogTest, CrossRelationBatchStressAcrossPoolSizes) {
  std::vector<std::string> sqls;
  {
    const std::vector<std::string> flights = FlightsQueries();
    const std::vector<std::string> shops = ShopsQueries();
    size_t i = 0;
    while (sqls.size() < 200) {
      // Strict interleave: flights, shops, flights, shops, ...
      sqls.push_back(flights[i % flights.size()]);
      sqls.push_back(shops[i % shops.size()]);
      ++i;
    }
  }
  ASSERT_GE(sqls.size(), 200u);

  const size_t hw = util::DefaultParallelism();
  for (size_t threads : std::vector<size_t>{1, 2, hw}) {
    ThemisOptions options = FastOptions();
    options.num_threads = threads;
    // Honest comparison: the loop must execute, not read the batch's memo.
    options.enable_result_memo = false;
    ThemisDb db(options);
    InsertBoth(db);
    ASSERT_TRUE(db.Build().ok());
    for (AnswerMode mode : {AnswerMode::kHybrid, AnswerMode::kSampleOnly,
                            AnswerMode::kBnOnly}) {
      auto batch = db.QueryBatch(sqls, mode);
      ASSERT_TRUE(batch.ok()) << batch.status().ToString();
      ASSERT_EQ(batch->size(), sqls.size());
      for (size_t q = 0; q < sqls.size(); ++q) {
        auto sequential = db.Query(sqls[q], mode);
        ASSERT_TRUE(sequential.ok());
        ExpectBitwiseEqual(*sequential, (*batch)[q],
                           sqls[q] + " threads=" + std::to_string(threads));
      }
    }
  }
}

/// Dropping and rebuilding a relation invalidates its result memo and
/// inference cache without touching its neighbors'.
TEST_F(CatalogTest, DropAndRebuildInvalidateBothMemos) {
  ThemisDb db(FastOptions());
  InsertBoth(db);
  ASSERT_TRUE(db.Build().ok());

  const std::string flights_sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  const std::string shops_sql =
      "SELECT city, COUNT(*) FROM shops GROUP BY city";
  const std::string flights_bn_point =
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'";
  auto before = db.Query(flights_sql);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(db.Query(flights_sql).ok());
  ASSERT_TRUE(db.Query(flights_bn_point).ok());
  ASSERT_TRUE(db.Query(shops_sql).ok());
  ASSERT_TRUE(db.Query(shops_sql).ok());
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().hits, 1u);
  EXPECT_GT(
      db.evaluator("flights")->inference_engine()->cache_stats().entries, 0u);
  EXPECT_EQ(db.evaluator("shops")->result_memo_stats().hits, 1u);

  // Rebuild flights only (new knowledge arrived): both flights memos die,
  // shops' stay warm.
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *flights_population_, {"o_st"}).ok());
  EXPECT_FALSE(db.built("flights"));
  EXPECT_EQ(db.Query(flights_sql).status().code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(db.Build("flights").ok());
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().hits, 0u);
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().entries, 0u);
  EXPECT_EQ(
      db.evaluator("flights")->inference_engine()->cache_stats().entries, 0u);
  EXPECT_EQ(db.evaluator("shops")->result_memo_stats().hits, 1u);
  auto after = db.Query(flights_sql);
  ASSERT_TRUE(after.ok());

  // Dropping removes the relation outright; re-inserting starts fresh.
  const size_t flights_hits =
      db.evaluator("flights")->result_memo_stats().hits;
  ASSERT_TRUE(db.DropRelation("shops").ok());
  EXPECT_FALSE(db.catalog().Has("shops"));
  EXPECT_EQ(db.Query(shops_sql).status().code(), StatusCode::kNotFound);
  // The neighbor is unaffected: its warm memo entry still hits.
  EXPECT_TRUE(db.Query(flights_sql).ok());
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().hits,
            flights_hits + 1);
  // StatsFor's own taxonomy: the dropped relation is NotFound, while a
  // registered-but-unbuilt one answers OK with built=false and all-zero
  // counters.
  EXPECT_EQ(db.catalog().StatsFor("shops").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.InsertSample("pending", shops_sample_->Clone()).ok());
  auto pending = db.catalog().StatsFor("pending");
  ASSERT_TRUE(pending.ok());
  EXPECT_FALSE(pending->built);
  EXPECT_EQ(pending->result_memo.entries, 0u);
  ASSERT_TRUE(db.InsertSample("shops", shops_sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("shops", *shops_population_, {"city"}).ok());
  ASSERT_TRUE(db.Build("shops").ok());
  EXPECT_EQ(db.evaluator("shops")->result_memo_stats().hits, 0u);
  EXPECT_TRUE(db.Query(shops_sql).ok());
}

/// BuildAll is incremental: already-built relations keep their models,
/// evaluators, and warm caches; only un-built ones learn.
TEST_F(CatalogTest, BuildAllSkipsAlreadyBuiltRelations) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", flights_sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *flights_population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  const std::string flights_sql =
      "SELECT o_st, COUNT(*) FROM flights GROUP BY o_st";
  ASSERT_TRUE(db.Query(flights_sql).ok());
  ASSERT_TRUE(db.Query(flights_sql).ok());
  const HybridEvaluator* flights_evaluator = db.evaluator("flights");
  EXPECT_EQ(flights_evaluator->result_memo_stats().hits, 1u);

  // A new relation arrives; rebuilding the db must not touch flights.
  ASSERT_TRUE(db.InsertSample("shops", shops_sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("shops", *shops_population_, {"city"}).ok());
  ASSERT_TRUE(db.Build().ok());
  EXPECT_EQ(db.evaluator("flights"), flights_evaluator);  // same object
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().hits, 1u);
  EXPECT_TRUE(db.built("shops"));

  // An explicit per-relation Build is the forced rebuild.
  ASSERT_TRUE(db.Build("flights").ok());
  EXPECT_EQ(db.evaluator("flights")->result_memo_stats().hits, 0u);
}

/// Name/table-name shadowing that would mislead FROM-routing is rejected
/// at InsertSample time.
TEST_F(CatalogTest, ShadowingTableNamesRejected) {
  Catalog catalog(FastOptions());
  ASSERT_TRUE(catalog.InsertSample("flights", flights_sample_->Clone()).ok());
  RelationConfig alias;
  alias.table_name = "sample";
  ASSERT_TRUE(catalog
                  .InsertSample("mirror", flights_sample_->Clone(),
                                std::move(alias))
                  .ok());

  // A new relation whose table name shadows an existing relation name.
  RelationConfig shadows_flights;
  shadows_flights.table_name = "flights";
  EXPECT_EQ(catalog
                .InsertSample("other", shops_sample_->Clone(),
                              std::move(shadows_flights))
                .code(),
            StatusCode::kInvalidArgument);
  // A new relation whose *name* shadows an existing table alias.
  EXPECT_EQ(catalog.InsertSample("sample", shops_sample_->Clone()).code(),
            StatusCode::kInvalidArgument);
  // Sharing a non-routable alias stays allowed (the MethodSuite setup).
  RelationConfig shared_alias;
  shared_alias.table_name = "sample";
  EXPECT_TRUE(catalog
                  .InsertSample("mirror2", flights_sample_->Clone(),
                                std::move(shared_alias))
                  .ok());
}

}  // namespace
}  // namespace themis::core
