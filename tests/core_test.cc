#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "core/evaluator.h"
#include "core/model.h"
#include "core/themis_db.h"
#include "util/thread_pool.h"
#include "workload/flights.h"
#include "workload/sampler.h"

namespace themis::core {
namespace {

/// Fixture reproducing the paper's running example (Sec 2 / Example 3.1):
/// population of 10 flights, biased sample of 4, Γ = {date; (o_st, d_st)}.
class Example31Test : public ::testing::Test {
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

  data::SchemaPtr schema_;
  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

TEST_F(Example31Test, BuildInfersPopulationSize) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  EXPECT_DOUBLE_EQ(model->population_size(), 10.0);
  EXPECT_NE(model->network(), nullptr);
  EXPECT_EQ(model->bn_samples().size(), 5u);
}

TEST_F(Example31Test, ExplicitPopulationSizeWins) {
  ThemisOptions options = FastOptions();
  options.population_size = 42;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  EXPECT_DOUBLE_EQ(model->population_size(), 42.0);
}

TEST_F(Example31Test, EmptySampleRejected) {
  data::Table empty(schema_);
  EXPECT_FALSE(ThemisModel::Build(std::move(empty), aggregates_, {}).ok());
}

TEST_F(Example31Test, HybridUsesSampleForPresentTuples) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // (FL, FL) is in the sample; IPF weight must hit the aggregate count 2.
  auto estimate = evaluator.PointEstimate({1, 2}, {0, 0});
  ASSERT_TRUE(estimate.ok());
  EXPECT_NEAR(*estimate, 2.0, 1e-6);
  EXPECT_TRUE(evaluator.SampleContains({1, 2}, {0, 0}));
}

/// Point lookups probe the sample's posting lists once: the mass must be
/// bitwise Table::GroupWeights' sum (ascending rows from 0.0) for every
/// key of several attribute sets, and absent keys report no rows.
TEST_F(Example31Test, SamplePointMassMatchesGroupWeightsBitwise) {
  data::Table sample(schema_);
  std::mt19937_64 rng(3);
  for (size_t r = 0; r < 3000; ++r) {
    sample.AppendRow({static_cast<data::ValueCode>(rng() % 2),
                      static_cast<data::ValueCode>(rng() % 3),
                      static_cast<data::ValueCode>(rng() % 2)});
  }
  auto model = ThemisModel::Build(std::move(sample), aggregates_,
                                  FastOptions());
  ASSERT_TRUE(model.ok()) << model.status().ToString();
  HybridEvaluator evaluator(&*model);
  const data::Table& reweighted = model->reweighted_sample();
  const std::vector<std::vector<size_t>> attr_sets = {
      {0}, {1, 2}, {2, 0}, {0, 1, 2}};
  for (const std::vector<size_t>& attrs : attr_sets) {
    const auto weights = reweighted.GroupWeights(attrs);
    for (const auto& [key, mass] : weights) {
      EXPECT_TRUE(evaluator.SampleContains(attrs, key));
      auto estimate =
          evaluator.PointEstimate(attrs, key, AnswerMode::kSampleOnly);
      ASSERT_TRUE(estimate.ok());
      EXPECT_EQ(*estimate, mass);  // bitwise
      auto hybrid = evaluator.PointEstimate(attrs, key);
      ASSERT_TRUE(hybrid.ok());
      EXPECT_EQ(*hybrid, mass);
    }
  }
  // d_st = NY (code 2) never occurs in this sample.
  EXPECT_FALSE(evaluator.SampleContains({1, 2}, {0, 2}));
  auto absent = evaluator.PointEstimate({1, 2}, {0, 2},
                                        AnswerMode::kSampleOnly);
  ASSERT_TRUE(absent.ok());
  EXPECT_EQ(*absent, 0.0);
}

TEST_F(Example31Test, HybridUsesBnForMissingTuples) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // (FL, NY) exists in P (count 1) but not in S: must be answered by the
  // BN, and the (o_st, d_st) aggregate pins it exactly.
  EXPECT_FALSE(evaluator.SampleContains({1, 2}, {0, 2}));
  auto hybrid = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(hybrid.ok());
  EXPECT_NEAR(*hybrid, 1.0, 1e-5);
  // Sample-only answer for the same tuple is 0 (the failure hybrid fixes).
  auto sample_only =
      evaluator.PointEstimate({1, 2}, {0, 2}, AnswerMode::kSampleOnly);
  ASSERT_TRUE(sample_only.ok());
  EXPECT_DOUBLE_EQ(*sample_only, 0.0);
}

TEST_F(Example31Test, ModesDisagreeOnlyWhereExpected) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model);
  // For an in-sample tuple hybrid == sample-only.
  auto h = evaluator.PointEstimate({1, 2}, {1, 2});
  auto s = evaluator.PointEstimate({1, 2}, {1, 2}, AnswerMode::kSampleOnly);
  ASSERT_TRUE(h.ok() && s.ok());
  EXPECT_DOUBLE_EQ(*h, *s);
}

TEST_F(Example31Test, GroupByUnionsBnOnlyGroups) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  auto result = evaluator.Query(
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st");
  ASSERT_TRUE(result.ok());
  // The sample only has 3 distinct (o, d) pairs; the population has 7.
  // Hybrid must return more groups than the sample alone.
  auto sample_result = evaluator.Query(
      "SELECT o_st, d_st, COUNT(*) FROM flights GROUP BY o_st, d_st",
      AnswerMode::kSampleOnly);
  ASSERT_TRUE(sample_result.ok());
  EXPECT_EQ(sample_result->rows.size(), 3u);
  EXPECT_GT(result->rows.size(), sample_result->rows.size());
}

TEST_F(Example31Test, DisabledBnStillAnswers) {
  ThemisOptions options = FastOptions();
  options.enable_bn = false;
  auto model = ThemisModel::Build(sample_->Clone(), aggregates_, options);
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->network(), nullptr);
  HybridEvaluator evaluator(&*model);
  auto estimate = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 0.0);  // falls back to the sample
}

TEST_F(Example31Test, BuildStatsPopulated) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  EXPECT_EQ(model->build_stats().aggregates_used, 2u);
  EXPECT_GE(model->build_stats().reweight_seconds, 0.0);
  // IPF's stats reach BuildStats: four (o_st, d_st) groups hold 4 of the
  // 10 flights and have no sample tuple (Example 4.2's missing tuples),
  // so IPF never converges and keeps a residual.
  const BuildStats& stats = model->build_stats();
  EXPECT_EQ(stats.reweight_empty_constraints, 4u);
  EXPECT_DOUBLE_EQ(stats.reweight_empty_mass, 4.0);
  EXPECT_FALSE(stats.reweight_converged);
  EXPECT_GT(stats.reweight_max_violation, 0.01);
}

TEST_F(Example31Test, ThemisDbEndToEnd) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"o_st", "d_st"})
          .ok());
  ASSERT_TRUE(db.Build().ok());
  EXPECT_TRUE(db.built());
  auto count = db.PointQuery({{"o_st", "FL"}, {"d_st", "FL"}});
  ASSERT_TRUE(count.ok());
  EXPECT_NEAR(*count, 2.0, 1e-6);
  auto missing = db.PointQuery({{"o_st", "FL"}, {"d_st", "NY"}});
  ASSERT_TRUE(missing.ok());
  EXPECT_NEAR(*missing, 1.0, 1e-5);
  auto sql_result =
      db.Query("SELECT o_st, COUNT(*) FROM flights GROUP BY o_st");
  ASSERT_TRUE(sql_result.ok());
  EXPECT_EQ(sql_result->rows.size(), 3u);
}

TEST_F(Example31Test, ThemisDbLifecycleErrors) {
  ThemisDb db(FastOptions());
  EXPECT_FALSE(db.Build().ok());  // no sample yet
  EXPECT_FALSE(db.Query("SELECT COUNT(*) FROM flights").ok());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  // A second relation under a fresh name is welcome now; re-registering a
  // taken name is the error.
  ASSERT_TRUE(db.InsertSample("again", sample_->Clone()).ok());
  EXPECT_EQ(db.InsertSample("flights", sample_->Clone()).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(db.InsertAggregate("wrong_table", {}).code(),
            StatusCode::kNotFound);
  aggregate::AggregateSpec bad;
  bad.attrs = {99};
  EXPECT_FALSE(db.InsertAggregate("flights", bad).ok());
  // Registered but unbuilt relations answer with FailedPrecondition;
  // unknown FROM tables with NotFound.
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM flights").status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(db.Query("SELECT COUNT(*) FROM nope").status().code(),
            StatusCode::kNotFound);
  ASSERT_TRUE(db.DropRelation("again").ok());
  EXPECT_EQ(db.DropRelation("again").code(), StatusCode::kNotFound);
}

TEST_F(Example31Test, PointQueryUnknownValueReturnsZero) {
  ThemisDb db(FastOptions());
  ASSERT_TRUE(db.InsertSample("flights", sample_->Clone()).ok());
  ASSERT_TRUE(
      db.InsertAggregateFrom("flights", *population_, {"date"}).ok());
  ASSERT_TRUE(db.Build().ok());
  auto result = db.PointQuery({{"o_st", "ZZ"}});
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(*result, 0.0);
  EXPECT_FALSE(db.PointQuery({{"nope", "FL"}}).ok());
}

TEST_F(Example31Test, SqlPointQueryRoutesThroughExactInference) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  // (FL, NY) is absent from the sample: the SQL path must match the exact
  // hybrid point estimate (BN inference), not the sampled group-by answer.
  auto sql_result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'FL' AND d_st = 'NY'");
  ASSERT_TRUE(sql_result.ok());
  ASSERT_EQ(sql_result->rows.size(), 1u);
  auto direct = evaluator.PointEstimate({1, 2}, {0, 2});
  ASSERT_TRUE(direct.ok());
  EXPECT_DOUBLE_EQ(sql_result->rows[0].values[0], *direct);
  EXPECT_NEAR(sql_result->rows[0].values[0], 1.0, 1e-5);
}

TEST_F(Example31Test, SqlPointQueryUnknownValueIsZero) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  auto result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE o_st = 'ZZ'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_DOUBLE_EQ(result->rows[0].values[0], 0.0);
}

TEST_F(Example31Test, NonPointSqlStillUsesGroupByPath) {
  auto model =
      ThemisModel::Build(sample_->Clone(), aggregates_, FastOptions());
  ASSERT_TRUE(model.ok());
  HybridEvaluator evaluator(&*model, "flights");
  // Range predicate disqualifies the point fast-path; must still answer.
  auto result = evaluator.Query(
      "SELECT COUNT(*) FROM flights WHERE date <> '02'");
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result->rows.size(), 1u);
  EXPECT_GT(result->rows[0].values[0], 0.0);
}

/// A biased flights sample with more multi-dimensional aggregates than the
/// pruning budget keeps, so every build stage does real work.
class ParallelBuildTest : public ::testing::Test {
 protected:
  void SetUp() override {
    population_ = std::make_unique<data::Table>(
        workload::GenerateFlights({20000, 71}));
    auto sample =
        workload::MakeFlightsSample(*population_, "SCorners", 0.1, 72);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    sample_ = std::make_unique<data::Table>(std::move(sample).value());
    aggregates_ = aggregate::AggregateSet(population_->schema());
    using workload::FlightsAttrs;
    for (auto attrs : std::vector<std::vector<size_t>>{
             {FlightsAttrs::kOrigin},
             {FlightsAttrs::kDate},
             {FlightsAttrs::kOrigin, FlightsAttrs::kDest},
             {FlightsAttrs::kDest, FlightsAttrs::kDate},
             {FlightsAttrs::kOrigin, FlightsAttrs::kDate}}) {
      aggregates_.Add(aggregate::ComputeAggregate(*population_, attrs));
    }
  }

  ThemisOptions Options() const {
    ThemisOptions options;
    options.aggregate_budget = 2;
    options.bn_group_by_samples = 6;
    return options;
  }

  static std::vector<size_t> PoolSizes() {
    return {1, 2, std::max(1u, std::thread::hardware_concurrency())};
  }

  std::unique_ptr<data::Table> population_;
  std::unique_ptr<data::Table> sample_;
  aggregate::AggregateSet aggregates_;
};

void ExpectSameTable(const data::Table& a, const data::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t attr = 0; attr < a.num_attributes(); ++attr) {
    EXPECT_EQ(a.column(attr), b.column(attr)) << "column " << attr;
  }
  EXPECT_EQ(a.weights(), b.weights());
}

TEST_F(ParallelBuildTest, BitwiseIdenticalAtEveryPoolSize) {
  const ThemisOptions options = Options();
  std::vector<ThemisModel> models;
  for (size_t threads : PoolSizes()) {
    util::ThreadPool pool(threads);
    auto model =
        ThemisModel::Build(sample_->Clone(), aggregates_, options, &pool);
    ASSERT_TRUE(model.ok()) << model.status().ToString();
    models.push_back(std::move(model).value());
  }
  const ThemisModel& first = models.front();
  ASSERT_NE(first.network(), nullptr);
  ASSERT_EQ(first.bn_samples().size(), options.bn_group_by_samples);
  EXPECT_EQ(first.build_stats().aggregates_used, 4u);  // 2 1D + budget 2

  // The K tables are the ones K sequential SampleTable calls draw from one
  // Rng(seed), the order the build used before the fan-out.
  Rng rng(options.seed);
  for (size_t k = 0; k < first.bn_samples().size(); ++k) {
    SCOPED_TRACE("sequential table " + std::to_string(k));
    ExpectSameTable(first.bn_samples()[k],
                    first.network()->SampleTable(
                        sample_->num_rows(), first.population_size(), rng));
  }

  for (size_t m = 1; m < models.size(); ++m) {
    SCOPED_TRACE("pool " + std::to_string(PoolSizes()[m]));
    const ThemisModel& model = models[m];
    EXPECT_EQ(model.reweighted_sample().weights(),
              first.reweighted_sample().weights());
    ASSERT_NE(model.network(), nullptr);
    ASSERT_EQ(model.network()->num_nodes(), first.network()->num_nodes());
    for (size_t v = 0; v < first.network()->num_nodes(); ++v) {
      EXPECT_EQ(model.network()->cpt(v).parents(),
                first.network()->cpt(v).parents());
      EXPECT_EQ(model.network()->cpt(v).flat(),
                first.network()->cpt(v).flat());
    }
    ASSERT_EQ(model.bn_samples().size(), first.bn_samples().size());
    for (size_t k = 0; k < first.bn_samples().size(); ++k) {
      ExpectSameTable(model.bn_samples()[k], first.bn_samples()[k]);
    }
    const BuildStats& a = model.build_stats();
    const BuildStats& b = first.build_stats();
    EXPECT_EQ(a.aggregates_used, b.aggregates_used);
    EXPECT_EQ(a.reweight_iterations, b.reweight_iterations);
    EXPECT_EQ(a.reweight_converged, b.reweight_converged);
    EXPECT_EQ(a.reweight_max_violation, b.reweight_max_violation);
    EXPECT_EQ(a.reweight_empty_constraints, b.reweight_empty_constraints);
    EXPECT_EQ(a.reweight_empty_mass, b.reweight_empty_mass);
    EXPECT_GT(a.total_seconds, 0.0);
    EXPECT_LE(a.prune_seconds, a.total_seconds);
    EXPECT_LE(a.reweight_seconds, a.total_seconds);
    EXPECT_LE(a.generate_seconds, a.total_seconds);
  }
}

TEST_F(ParallelBuildTest, OverlappedStageErrorIsReturned) {
  // AB learns structure from Γ alone; with no aggregates BN learning fails
  // while the reweighting beside it succeeds.
  ThemisOptions options = Options();
  options.bn.variant = bn::BnVariant::kAB;
  const aggregate::AggregateSet none(population_->schema());
  for (size_t threads : PoolSizes()) {
    util::ThreadPool pool(threads);
    auto model = ThemisModel::Build(sample_->Clone(), none, options, &pool);
    ASSERT_FALSE(model.ok()) << "pool " << threads;
    EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(model.status().message().find("no usable structure source"),
              std::string::npos)
        << model.status().ToString();
  }
}

TEST(ReweightMethodNameTest, AllNamed) {
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kUniform), "AQP");
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kLinReg), "LinReg");
  EXPECT_STREQ(ReweightMethodName(ReweightMethod::kIpf), "IPF");
}

}  // namespace
}  // namespace themis::core
