#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "aggregate/pruning.h"
#include "sql/executor.h"
#include "stats/descriptive.h"
#include "stats/metrics.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/queries.h"
#include "workload/sampler.h"

namespace themis {
namespace {

using workload::FlightsAttrs;

/// Full-pipeline fixture: a flights population, the SCorners biased sample
/// and a Γ with full 1D coverage plus informative 2D aggregates — a scaled
/// version of the paper's main experimental configuration.
class FullPipelineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    population_ = new data::Table(workload::GenerateFlights({40000, 77}));
    auto sample = workload::MakeFlightsSample(*population_, "SCorners", 0.1,
                                              78);
    THEMIS_CHECK(sample.ok());
    sample_ = new data::Table(std::move(sample).value());
    // 2D aggregates first, 1D marginals last: Alg 1 sweeps constraints in
    // order, so when the sparse 2D constraints make the system infeasible
    // the trustworthy 1D marginals still hold exactly at sweep end
    // (standard raking practice).
    std::vector<std::vector<size_t>> sets = {
        {FlightsAttrs::kElapsed, FlightsAttrs::kDistance},
        {FlightsAttrs::kDest, FlightsAttrs::kDistance},
        {FlightsAttrs::kOrigin, FlightsAttrs::kDistance},
        {FlightsAttrs::kDate, FlightsAttrs::kDest},
        {FlightsAttrs::kDate},
        {FlightsAttrs::kOrigin},
        {FlightsAttrs::kDest},
        {FlightsAttrs::kElapsed},
        {FlightsAttrs::kDistance}};
    core::ThemisOptions options;
    options.bn_group_by_samples = 3;
    options.bn_sample_rows = 2000;
    auto suite = workload::MethodSuite::Build(
        *sample_, workload::MakeAggregates(*population_, sets),
        population_->num_rows(), options);
    THEMIS_CHECK(suite.ok()) << suite.status().ToString();
    suite_ = new workload::MethodSuite(std::move(suite).value());
  }

  static void TearDownTestSuite() {
    delete suite_;
    delete sample_;
    delete population_;
    suite_ = nullptr;
    sample_ = nullptr;
    population_ = nullptr;
  }

  static data::Table* population_;
  static data::Table* sample_;
  static workload::MethodSuite* suite_;
};

data::Table* FullPipelineTest::population_ = nullptr;
data::Table* FullPipelineTest::sample_ = nullptr;
workload::MethodSuite* FullPipelineTest::suite_ = nullptr;

TEST_F(FullPipelineTest, IpfBeatsAqpOnHeavyHitters) {
  // The paper's headline claim (Table 4): large median improvement over
  // uniform reweighting for heavy hitter queries on biased samples.
  Rng rng(1);
  auto queries = workload::MakeMixedPointQueries(
      *population_, 2, 2, workload::HitterClass::kHeavy, 60, rng);
  auto aqp = suite_->Errors("AQP", queries);
  auto ipf = suite_->Errors("IPF", queries);
  ASSERT_TRUE(aqp.ok() && ipf.ok());
  EXPECT_LT(stats::Median(*ipf), 0.6 * stats::Median(*aqp));
}

TEST_F(FullPipelineTest, HybridBeatsReweightingOnLightHitters) {
  // Fig 3's light-hitter panel: reweighting saturates at 200 for tuples
  // missing from the sample; the hybrid's BN fallback does far better.
  Rng rng(2);
  auto queries = workload::MakeMixedPointQueries(
      *population_, 2, 2, workload::HitterClass::kLight, 60, rng);
  auto ipf = suite_->Errors("IPF", queries);
  auto hybrid = suite_->Errors("Hybrid", queries);
  ASSERT_TRUE(ipf.ok() && hybrid.ok());
  EXPECT_LT(stats::Mean(*hybrid), stats::Mean(*ipf));
}

TEST_F(FullPipelineTest, HybridMatchesIpfOnInSampleTuples) {
  Rng rng(3);
  auto queries = workload::MakePointQueries(
      *population_, {FlightsAttrs::kOrigin}, workload::HitterClass::kHeavy,
      20, rng);
  auto ipf = suite_->Errors("IPF", queries);
  auto hybrid = suite_->Errors("Hybrid", queries);
  ASSERT_TRUE(ipf.ok() && hybrid.ok());
  // Heavy 1D hitters are always in the sample: hybrid routes to IPF.
  for (size_t i = 0; i < ipf->size(); ++i) {
    EXPECT_DOUBLE_EQ((*ipf)[i], (*hybrid)[i]);
  }
}

TEST_F(FullPipelineTest, GroupByCountsApproximatePopulation) {
  auto result = suite_->Query(
      "Hybrid",
      "SELECT origin_state, COUNT(*) FROM sample GROUP BY origin_state");
  ASSERT_TRUE(result.ok());
  auto truth = population_->GroupWeights({FlightsAttrs::kOrigin});
  const auto& domain =
      population_->schema()->domain(FlightsAttrs::kOrigin);
  // Heavy states must be close after IPF debiasing, and strictly better
  // than uniform reweighting (the paper's comparative claim).
  auto aqp_result = suite_->Query(
      "AQP",
      "SELECT origin_state, COUNT(*) FROM sample GROUP BY origin_state");
  ASSERT_TRUE(aqp_result.ok());
  auto map = result->ValueMap();
  auto aqp_map = aqp_result->ValueMap();
  for (const char* state : {"CA", "TX", "NY", "FL"}) {
    const double t = truth[{*domain.Code(state)}];
    ASSERT_TRUE(map.count(state)) << state;
    EXPECT_NEAR(map[state], t, 0.25 * t) << state;
    EXPECT_LT(std::abs(map[state] - t), std::abs(aqp_map[state] - t))
        << state;
  }
}

TEST_F(FullPipelineTest, SqlAvgQueryRuns) {
  auto result = suite_->Query(
      "Hybrid",
      "SELECT origin_state, AVG(elapsed_time) FROM sample "
      "WHERE dest_state = 'CA' GROUP BY origin_state");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->rows.size(), 0u);
  for (const auto& row : result->rows) {
    EXPECT_GT(row.values[0], 0.0);
    EXPECT_LT(row.values[0], 600.0);
  }
}

TEST_F(FullPipelineTest, SelfJoinQueryRuns) {
  auto result = suite_->Query(
      "IPF",
      "SELECT t.origin_state, COUNT(*) FROM sample t, sample s "
      "WHERE t.dest_state = s.origin_state AND t.dest_state IN ('WY') "
      "GROUP BY t.origin_state");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
}

TEST_F(FullPipelineTest, BnSamplesShareSchemaAndScale) {
  const auto& model = suite_->full_model();
  ASSERT_EQ(model.bn_samples().size(), 3u);
  for (const auto& table : model.bn_samples()) {
    EXPECT_EQ(table.schema(), model.reweighted_sample().schema());
    EXPECT_NEAR(table.TotalWeight(), model.population_size(), 1e-6);
  }
}

TEST_F(FullPipelineTest, ReweightedSampleSumsToPopulation) {
  EXPECT_NEAR(suite_->full_model().reweighted_sample().TotalWeight(),
              suite_->full_model().population_size(),
              0.05 * suite_->full_model().population_size());
}

/// The six IDEBench-style queries of Table 5 over the flights table.
const std::vector<std::string>& Table5Queries() {
  static const std::vector<std::string> queries = {
      "SELECT origin_state, AVG(elapsed_time) FROM sample "
      "GROUP BY origin_state",
      "SELECT origin_state, AVG(elapsed_time) FROM sample "
      "WHERE dest_state = 'CA' GROUP BY origin_state",
      "SELECT dest_state, AVG(elapsed_time) FROM sample "
      "WHERE origin_state = 'CA' GROUP BY dest_state",
      "SELECT origin_state, COUNT(*) FROM sample "
      "WHERE elapsed_time < 120 GROUP BY origin_state",
      "SELECT dest_state, COUNT(*) FROM sample "
      "WHERE elapsed_time < 120 GROUP BY dest_state",
      "SELECT t.origin_state, s.dest_state, COUNT(*) FROM sample t, "
      "sample s WHERE t.dest_state = s.origin_state "
      "AND t.dest_state IN ('CO', 'WY') "
      "GROUP BY t.origin_state, s.dest_state",
  };
  return queries;
}

/// Average percent difference across the union of returned groups; a
/// missed or phantom group costs the maximum 200 (Sec 6.3).
double ResultError(const sql::QueryResult& truth,
                   const sql::QueryResult& estimate) {
  const auto t = truth.ValueMap();
  const auto e = estimate.ValueMap();
  if (t.empty() && e.empty()) return 0;
  double total = 0;
  size_t count = 0;
  for (const auto& [key, tv] : t) {
    auto it = e.find(key);
    total += it == e.end() ? stats::kMaxPercentDifference
                           : stats::PercentDifference(tv, it->second);
    ++count;
  }
  for (const auto& [key, ev] : e) {
    if (t.count(key) == 0) {
      total += stats::kMaxPercentDifference;
      ++count;
    }
  }
  return total / static_cast<double>(count);
}

/// The reproduction's own accuracy claim (Fig 6): on the Corners sample,
/// 100% and 98% biased towards four origin states, the hybrid answers
/// the six Table 5 queries at least as well as the IPF-reweighted sample
/// on every query, and strictly better on average. Same configuration as
/// bench_fig6_sql_queries at scale 1: 150,000 flights, a 10% sample,
/// all five 1D aggregates plus the four most informative 2D ones, K = 10.
TEST(Fig6AccuracyTest, HybridBeatsIpfOnTable5Queries) {
  const data::Table population = workload::GenerateFlights({150000, 1});
  const std::vector<size_t> covered = {0, 1, 2, 3, 4};
  aggregate::AggregateSet aggregates(population.schema());
  std::vector<aggregate::AggregateSpec> candidates;
  for (const auto& attrs : workload::AllSubsets(covered, 2)) {
    candidates.push_back(aggregate::ComputeAggregate(population, attrs));
  }
  for (size_t idx : aggregate::SelectAggregatesTCherry(candidates, 4)) {
    aggregates.Add(candidates[idx]);
  }
  for (size_t attr : covered) {
    aggregates.Add(aggregate::ComputeAggregate(population, {attr}));
  }

  sql::Executor truth_executor;
  truth_executor.RegisterTable("sample", &population);
  std::vector<sql::QueryResult> truth;
  for (const std::string& query : Table5Queries()) {
    auto result = truth_executor.Query(query);
    ASSERT_TRUE(result.ok()) << query << ": " << result.status().ToString();
    truth.push_back(std::move(*result));
  }

  const workload::SelectionCriterion corners{
      FlightsAttrs::kOrigin, {"CA", "NY", "FL", "WA"}};
  for (const double bias : {1.0, 0.98}) {
    Rng rng(61);
    auto sample = workload::BiasedSample(population, 0.1, bias, corners, rng);
    ASSERT_TRUE(sample.ok()) << sample.status().ToString();
    core::ThemisOptions options;
    options.bn_group_by_samples = 10;
    options.bn_sample_rows = 2000;
    auto suite = workload::MethodSuite::Build(
        *sample, aggregates, static_cast<double>(population.num_rows()),
        options);
    ASSERT_TRUE(suite.ok()) << suite.status().ToString();

    std::vector<double> hybrid_errors;
    std::vector<double> ipf_errors;
    for (size_t q = 0; q < Table5Queries().size(); ++q) {
      const std::string& query = Table5Queries()[q];
      auto hybrid = suite->Query("Hybrid", query);
      auto ipf = suite->Query("IPF", query);
      ASSERT_TRUE(hybrid.ok()) << query << ": " << hybrid.status().ToString();
      ASSERT_TRUE(ipf.ok()) << query << ": " << ipf.status().ToString();
      hybrid_errors.push_back(ResultError(truth[q], *hybrid));
      ipf_errors.push_back(ResultError(truth[q], *ipf));
      EXPECT_LE(hybrid_errors.back(), ipf_errors.back())
          << "bias " << bias << " Q" << q + 1;
    }
    EXPECT_LT(stats::Mean(hybrid_errors), stats::Mean(ipf_errors))
        << "bias " << bias;
  }
}

}  // namespace
}  // namespace themis
