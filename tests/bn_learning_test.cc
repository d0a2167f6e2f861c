#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <limits>
#include <map>

#include "bn/inference.h"
#include "bn/learn.h"
#include "bn/parameter_learning.h"
#include "bn/score.h"
#include "bn/structure_learning.h"
#include "util/random.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/imdb.h"
#include "workload/sampler.h"

namespace themis::bn {
namespace {

/// Synthetic data with a strong A -> B dependency and an independent C.
struct DependentData {
  static data::SchemaPtr MakeSchema() {
    auto schema = std::make_shared<data::Schema>();
    schema->AddAttribute("A", {"0", "1"});
    schema->AddAttribute("B", {"0", "1"});
    schema->AddAttribute("C", {"0", "1", "2"});
    return schema;
  }

  data::SchemaPtr schema = MakeSchema();
  data::Table population{schema};
  data::Table sample{schema};
  aggregate::AggregateSet aggregates;

  explicit DependentData(size_t n = 4000, uint64_t seed = 31) {
    Rng rng(seed);
    for (size_t i = 0; i < n; ++i) {
      const data::ValueCode a = rng.Bernoulli(0.3) ? 1 : 0;
      const data::ValueCode b =
          rng.Bernoulli(a == 1 ? 0.9 : 0.1) ? 1 : 0;  // B tracks A
      const data::ValueCode c = static_cast<data::ValueCode>(
          rng.UniformInt(0, 2));
      population.AppendRow({a, b, c});
    }
    // Biased sample: mostly A = 1 rows.
    for (size_t r = 0; r < population.num_rows(); ++r) {
      const bool keep = population.Get(r, 0) == 1 ? rng.Bernoulli(0.25)
                                                  : rng.Bernoulli(0.03);
      if (keep) {
        sample.AppendRow({population.Get(r, 0), population.Get(r, 1),
                          population.Get(r, 2)});
      }
    }
    aggregates = aggregate::AggregateSet(schema);
    aggregates.Add(aggregate::ComputeAggregate(population, {0, 1}));
    aggregates.Add(aggregate::ComputeAggregate(population, {0}));
  }
};

TEST(ScoreTest, SampleSourceAlwaysHasSupport) {
  DependentData d;
  SampleScoreSource source(&d.sample);
  EXPECT_TRUE(source.HasSupport({0, 1, 2}));
  EXPECT_DOUBLE_EQ(source.total(), d.sample.TotalWeight());
}

TEST(ScoreTest, AggregateSourceSupportFollowsGamma) {
  DependentData d;
  AggregateScoreSource source(&d.aggregates);
  EXPECT_TRUE(source.HasSupport({0, 1}));
  EXPECT_TRUE(source.HasSupport({1}));
  EXPECT_FALSE(source.HasSupport({1, 2}));
  EXPECT_DOUBLE_EQ(source.total(), d.population.num_rows());
}

TEST(ScoreTest, DependentEdgeScoresAboveIndependence) {
  DependentData d;
  SampleScoreSource source(&d.population);
  auto with_edge = FamilyBicScore(source, *d.schema, 1, {0});
  auto without_edge = FamilyBicScore(source, *d.schema, 1, {});
  ASSERT_TRUE(with_edge.ok() && without_edge.ok());
  EXPECT_GT(*with_edge, *without_edge);
}

TEST(ScoreTest, IndependentEdgePenalized) {
  DependentData d;
  SampleScoreSource source(&d.population);
  auto with_edge = FamilyBicScore(source, *d.schema, 2, {0});
  auto without_edge = FamilyBicScore(source, *d.schema, 2, {});
  ASSERT_TRUE(with_edge.ok() && without_edge.ok());
  EXPECT_LT(*with_edge, *without_edge);  // BIC penalty dominates
}

TEST(ScoreTest, UnsupportedFamilyReportsNotFound) {
  DependentData d;
  AggregateScoreSource source(&d.aggregates);
  EXPECT_FALSE(FamilyBicScore(source, *d.schema, 2, {1}).ok());
}

TEST(StructureLearningTest, FindsTheDependentEdgeFromAggregates) {
  DependentData d;
  StructureLearnOptions options;
  options.source = StructureSource::kAggregatesOnly;
  auto result = LearnStructure(d.schema, nullptr, &d.aggregates, options);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->dag.HasEdge(0, 1) || result->dag.HasEdge(1, 0));
  // C is uncovered by Γ: must stay disconnected in the Γ-only phase.
  EXPECT_TRUE(result->dag.Parents(2).empty());
  EXPECT_TRUE(result->dag.Children(2).empty());
}

TEST(StructureLearningTest, LocksGammaEdges) {
  DependentData d;
  StructureLearnOptions options;
  options.source = StructureSource::kBoth;
  auto result = LearnStructure(d.schema, &d.sample, &d.aggregates, options);
  ASSERT_TRUE(result.ok());
  // Every locked edge must still be present after phase 2.
  for (const auto& [from, to] : result->locked_edges) {
    EXPECT_TRUE(result->dag.HasEdge(from, to));
  }
  EXPECT_FALSE(result->locked_edges.empty());
}

TEST(StructureLearningTest, TreeRestrictionHolds) {
  DependentData d;
  StructureLearnOptions options;
  options.max_parents = 1;
  auto result = LearnStructure(d.schema, &d.sample, &d.aggregates, options);
  ASSERT_TRUE(result.ok());
  for (size_t v = 0; v < result->dag.num_nodes(); ++v) {
    EXPECT_LE(result->dag.Parents(v).size(), 1u);
  }
}

TEST(StructureLearningTest, MaxParentsTwoAllowsWiderFamilies) {
  DependentData d;
  StructureLearnOptions options;
  options.max_parents = 2;
  auto result = LearnStructure(d.schema, &d.sample, &d.aggregates, options);
  ASSERT_TRUE(result.ok());
  for (size_t v = 0; v < result->dag.num_nodes(); ++v) {
    EXPECT_LE(result->dag.Parents(v).size(), 2u);
  }
}

TEST(StructureLearningTest, RequiresSomeSource) {
  DependentData d;
  StructureLearnOptions options;
  EXPECT_FALSE(LearnStructure(d.schema, nullptr, nullptr, options).ok());
}

/// Sample statistics counted with one key probe per row, as
/// Table::GroupWeights did before it counted densely.
class RowLoopSampleSource : public ScoreSource {
 public:
  explicit RowLoopSampleSource(const data::Table* sample) : sample_(sample) {}
  bool HasSupport(const std::vector<size_t>&) const override { return true; }
  Result<stats::FreqTable> JointCounts(
      const std::vector<size_t>& attrs) const override {
    std::vector<size_t> sorted = attrs;
    std::sort(sorted.begin(), sorted.end());
    stats::FreqTable joint(sorted);
    for (size_t r = 0; r < sample_->num_rows(); ++r) {
      joint.Add(sample_->KeyFor(r, sorted), sample_->weight(r));
    }
    return joint;
  }
  double total() const override { return sample_->TotalWeight(); }

 private:
  const data::Table* sample_;
};

/// Alg 2's hill climber as LearnStructure ran it before families shared
/// joint counts: every family score counts its own joint. The oracle of
/// StructureDifferentialTest.
class OracleStructureLearner {
 public:
  OracleStructureLearner(const ScoreSource& source,
                         const data::Schema& schema)
      : source_(source), schema_(schema) {}

  double Score(size_t child, std::vector<size_t> parents) {
    std::sort(parents.begin(), parents.end());
    std::vector<size_t> key = parents;
    key.push_back(child);
    key.push_back(SIZE_MAX);
    auto it = cache_.find(key);
    if (it != cache_.end()) return it->second;
    auto result = FamilyBicScore(source_, schema_, child, parents);
    const double score =
        result.ok() ? *result : std::numeric_limits<double>::quiet_NaN();
    cache_.emplace(std::move(key), score);
    return score;
  }

  bool Supported(size_t child, const std::vector<size_t>& parents) {
    return !std::isnan(Score(child, parents));
  }

  int RunPhase(Dag& dag, const std::set<std::pair<size_t, size_t>>& locked,
               const StructureLearnOptions& options, int moves_budget) {
    auto with = [](std::vector<size_t> p, size_t extra) {
      p.push_back(extra);
      std::sort(p.begin(), p.end());
      return p;
    };
    auto without = [](const std::vector<size_t>& p, size_t removed) {
      std::vector<size_t> out;
      for (size_t x : p) {
        if (x != removed) out.push_back(x);
      }
      return out;
    };
    enum Type { kAdd, kRemove, kReverse };
    const size_t m = dag.num_nodes();
    int moves = 0;
    while (moves < moves_budget) {
      Type best_type = kAdd;
      size_t best_from = 0, best_to = 0;
      double best_delta = options.min_delta;
      bool found = false;
      auto offer = [&](Type type, size_t i, size_t j, double delta) {
        if (delta > best_delta) {
          best_type = type;
          best_from = i;
          best_to = j;
          best_delta = delta;
          found = true;
        }
      };
      for (size_t i = 0; i < m; ++i) {
        for (size_t j = 0; j < m; ++j) {
          if (i == j) continue;
          const std::vector<size_t>& pj = dag.Parents(j);
          if (!dag.HasEdge(i, j) && !dag.HasEdge(j, i)) {
            if (pj.size() >= options.max_parents) continue;
            if (dag.WouldCreateCycle(i, j)) continue;
            const std::vector<size_t> new_pj = with(pj, i);
            if (!Supported(j, new_pj) || !Supported(j, pj)) continue;
            offer(kAdd, i, j, Score(j, new_pj) - Score(j, pj));
          } else if (dag.HasEdge(i, j)) {
            const bool is_locked = locked.count({i, j}) > 0;
            if (!is_locked) {
              const std::vector<size_t> new_pj = without(pj, i);
              if (Supported(j, new_pj) && Supported(j, pj)) {
                offer(kRemove, i, j, Score(j, new_pj) - Score(j, pj));
              }
            }
            if (!is_locked && dag.Parents(i).size() < options.max_parents) {
              Dag tmp = dag;
              EXPECT_TRUE(tmp.RemoveEdge(i, j).ok());
              if (!tmp.WouldCreateCycle(j, i)) {
                const std::vector<size_t> new_pj = without(pj, i);
                const std::vector<size_t> new_pi = with(dag.Parents(i), j);
                if (Supported(j, new_pj) && Supported(i, new_pi) &&
                    Supported(j, pj) && Supported(i, dag.Parents(i))) {
                  offer(kReverse, i, j,
                        Score(j, new_pj) + Score(i, new_pi) - Score(j, pj) -
                            Score(i, dag.Parents(i)));
                }
              }
            }
          }
        }
      }
      if (!found) break;
      if (best_type == kAdd) {
        EXPECT_TRUE(dag.AddEdge(best_from, best_to).ok());
      } else if (best_type == kRemove) {
        EXPECT_TRUE(dag.RemoveEdge(best_from, best_to).ok());
      } else {
        EXPECT_TRUE(dag.ReverseEdge(best_from, best_to).ok());
      }
      ++moves;
    }
    return moves;
  }

  double Total(const Dag& dag) {
    double total = 0;
    for (size_t v = 0; v < dag.num_nodes(); ++v) {
      const double s = Score(v, dag.Parents(v));
      if (!std::isnan(s)) total += s;
    }
    return total;
  }

 private:
  const ScoreSource& source_;
  const data::Schema& schema_;
  std::map<std::vector<size_t>, double> cache_;
};

StructureLearnResult OracleLearnStructure(
    const data::SchemaPtr& schema, const data::Table* sample,
    const aggregate::AggregateSet* aggregates,
    const StructureLearnOptions& options) {
  const bool use_aggregates = options.source != StructureSource::kSampleOnly;
  StructureLearnResult result{Dag(schema->num_attributes()), {}, 0, 0};
  if (use_aggregates) {
    AggregateScoreSource gamma(aggregates);
    OracleStructureLearner phase(gamma, *schema);
    result.moves += phase.RunPhase(result.dag, {}, options, options.max_moves);
    for (const auto& e : result.dag.Edges()) result.locked_edges.insert(e);
  }
  RowLoopSampleSource rows(sample);
  OracleStructureLearner phase(rows, *schema);
  result.moves += phase.RunPhase(result.dag, result.locked_edges, options,
                                 options.max_moves - result.moves);
  result.final_score = phase.Total(result.dag);
  return result;
}

void ExpectSameStructure(const data::SchemaPtr& schema,
                         const data::Table& sample,
                         const aggregate::AggregateSet& aggregates) {
  for (StructureSource source :
       {StructureSource::kBoth, StructureSource::kSampleOnly}) {
    for (size_t max_parents : {size_t{1}, size_t{2}}) {
      SCOPED_TRACE("source " + std::to_string(static_cast<int>(source)) +
                   ", max_parents " + std::to_string(max_parents));
      StructureLearnOptions options;
      options.source = source;
      options.max_parents = max_parents;
      const auto got = LearnStructure(schema, &sample, &aggregates, options);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const StructureLearnResult want =
          OracleLearnStructure(schema, &sample, &aggregates, options);
      EXPECT_EQ(got->dag.Edges(), want.dag.Edges());
      EXPECT_EQ(got->locked_edges, want.locked_edges);
      EXPECT_EQ(got->moves, want.moves);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->final_score),
                std::bit_cast<uint64_t>(want.final_score));
    }
  }
}

TEST(StructureDifferentialTest, DependentDataMatchesTheOracle) {
  for (uint64_t seed : {31, 32, 33}) {
    DependentData d(4000, seed);
    // Non-unit weights, and a null code in every column.
    Rng rng(seed);
    for (size_t r = 0; r < d.sample.num_rows(); ++r) {
      d.sample.set_weight(r, rng.UniformDouble(0.1, 4.0));
    }
    for (size_t a = 0; a < 3; ++a) d.sample.Set(a, a, data::kNullCode);
    ExpectSameStructure(d.schema, d.sample, d.aggregates);
  }
}

TEST(StructureDifferentialTest, FlightsAndImdbMatchTheOracle) {
  const data::Table flights =
      workload::GenerateFlights({/*num_rows=*/30000, /*seed=*/1});
  auto flights_sample =
      workload::MakeFlightsSample(flights, "Corners", 0.1, 8);
  ASSERT_TRUE(flights_sample.ok());
  ExpectSameStructure(
      flights.schema(), *flights_sample,
      workload::MakeAggregates(flights, workload::AllSubsets({0, 1, 2}, 2)));

  const data::Table imdb = workload::GenerateImdb(
      {/*num_rows=*/20000, /*num_names=*/500, /*seed=*/2});
  auto imdb_sample = workload::MakeImdbSample(imdb, "R159", 0.1, 4);
  ASSERT_TRUE(imdb_sample.ok());
  ExpectSameStructure(
      imdb.schema(), *imdb_sample,
      workload::MakeAggregates(imdb, workload::AllSubsets({0, 1, 3, 5}, 2)));
}

TEST(ParameterLearningTest, SampleOnlyMatchesEmpirical) {
  DependentData d;
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  BayesianNetwork network(d.schema, dag);
  ParameterLearnOptions options;
  options.source = ParameterSource::kSampleOnly;
  ASSERT_TRUE(LearnParameters(network, &d.sample, nullptr, options).ok());
  // Pr(B=1 | A=1) empirical from the sample.
  auto groups = d.sample.GroupWeights({0, 1});
  const double a1 = groups[{1, 0}] + groups[{1, 1}];
  EXPECT_NEAR(network.cpt(1).Prob(1, 1), (groups[{1, 1}] / a1), 1e-9);
  EXPECT_TRUE(network.cpt(1).RowsAreSimplexes());
}

TEST(ParameterLearningTest, AggregateConstraintsAreSatisfied) {
  DependentData d;
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  BayesianNetwork network(d.schema, dag);
  ParameterLearnStats stats;
  ASSERT_TRUE(
      LearnParameters(network, &d.sample, &d.aggregates, {}, &stats).ok());
  EXPECT_GT(stats.constrained_nodes, 0);
  EXPECT_LT(stats.max_violation, 1e-6);
  // The learned model must reproduce the population joint over (A, B)
  // despite the heavily biased sample.
  VariableElimination ve(&network);
  const double n = d.population.num_rows();
  auto truth = d.population.GroupWeights({0, 1});
  for (const auto& [key, count] : truth) {
    auto p = ve.Probability({{0, key[0]}, {1, key[1]}});
    ASSERT_TRUE(p.ok());
    EXPECT_NEAR(*p, count / n, 1e-6) << "key " << key[0] << "," << key[1];
  }
}

TEST(ParameterLearningTest, MarginalizedAggregateConstrainsRoot) {
  // Only a 2D aggregate over (A, B) exists; when solving root A it must be
  // marginalized to a direct constraint on Pr(A) (Example 5.1).
  DependentData d;
  aggregate::AggregateSet only2d(d.schema);
  only2d.Add(aggregate::ComputeAggregate(d.population, {0, 1}));
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  BayesianNetwork network(d.schema, dag);
  ASSERT_TRUE(LearnParameters(network, &d.sample, &only2d, {}).ok());
  auto truth = d.population.GroupWeights({0});
  const double n = d.population.num_rows();
  EXPECT_NEAR(network.cpt(0).Prob(0, 1), truth[{1}] / n, 1e-6);
}

TEST(ParameterLearningTest, UnconstrainedNodeUsesClosedForm) {
  DependentData d;
  Dag dag(3);
  BayesianNetwork network(d.schema, dag);
  ParameterLearnStats stats;
  ASSERT_TRUE(
      LearnParameters(network, &d.sample, &d.aggregates, {}, &stats).ok());
  // C has no aggregate: closed-form sample MLE.
  auto c_counts = d.sample.GroupWeights({2});
  const double total = d.sample.TotalWeight();
  for (data::ValueCode c = 0; c < 3; ++c) {
    EXPECT_NEAR(network.cpt(2).Prob(0, c), c_counts[{c}] / total, 1e-9);
  }
}

TEST(LearnBayesNetTest, VariantNames) {
  EXPECT_STREQ(BnVariantName(BnVariant::kSS), "SS");
  EXPECT_STREQ(BnVariantName(BnVariant::kSB), "SB");
  EXPECT_STREQ(BnVariantName(BnVariant::kBS), "BS");
  EXPECT_STREQ(BnVariantName(BnVariant::kBB), "BB");
  EXPECT_STREQ(BnVariantName(BnVariant::kAB), "AB");
}

class LearnVariantTest : public ::testing::TestWithParam<BnVariant> {};

TEST_P(LearnVariantTest, ProducesValidNetwork) {
  DependentData d;
  BnLearnOptions options;
  options.variant = GetParam();
  BnLearnStats stats;
  auto network =
      LearnBayesNet(d.schema, &d.sample, &d.aggregates, options, &stats);
  ASSERT_TRUE(network.ok()) << network.status().ToString();
  for (size_t v = 0; v < network->num_nodes(); ++v) {
    EXPECT_TRUE(network->cpt(v).RowsAreSimplexes()) << "node " << v;
  }
  // Joint normalizes.
  VariableElimination ve(&*network);
  auto marginal = ve.Marginal({0, 1, 2});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->TotalMass(), 1.0, 1e-6);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, LearnVariantTest,
                         ::testing::Values(BnVariant::kSS, BnVariant::kSB,
                                           BnVariant::kBS, BnVariant::kBB,
                                           BnVariant::kAB));

TEST(LearnBayesNetTest, AbKeepsUncoveredAttributesUniform) {
  DependentData d;
  BnLearnOptions options;
  options.variant = BnVariant::kAB;
  auto network = LearnBayesNet(d.schema, &d.sample, &d.aggregates, options);
  ASSERT_TRUE(network.ok());
  // C (uncovered by Γ) must be disconnected and uniform.
  EXPECT_TRUE(network->dag().Parents(2).empty());
  for (data::ValueCode c = 0; c < 3; ++c) {
    EXPECT_NEAR(network->cpt(2).Prob(0, c), 1.0 / 3.0, 1e-12);
  }
}

TEST(LearnBayesNetTest, BbBeatsSsUnderBias) {
  // The headline Sec 6.6 effect: with a biased sample, using aggregates
  // for parameters (BB) recovers the population joint better than SS.
  DependentData d;
  auto build = [&](BnVariant variant) {
    BnLearnOptions options;
    options.variant = variant;
    auto network =
        LearnBayesNet(d.schema, &d.sample, &d.aggregates, options);
    THEMIS_CHECK(network.ok());
    return std::move(network).value();
  };
  BayesianNetwork bb = build(BnVariant::kBB);
  BayesianNetwork ss = build(BnVariant::kSS);
  const double n = d.population.num_rows();
  auto truth = d.population.GroupWeights({0, 1});
  double bb_err = 0, ss_err = 0;
  for (const auto& [key, count] : truth) {
    VariableElimination ve_bb(&bb), ve_ss(&ss);
    bn::Evidence ev{{0, key[0]}, {1, key[1]}};
    bb_err += std::abs(*ve_bb.Probability(ev) - count / n);
    ss_err += std::abs(*ve_ss.Probability(ev) - count / n);
  }
  EXPECT_LT(bb_err, ss_err);
}

TEST(LearnBayesNetTest, StatsTimingsPopulated) {
  DependentData d;
  BnLearnStats stats;
  auto network = LearnBayesNet(d.schema, &d.sample, &d.aggregates, {}, &stats);
  ASSERT_TRUE(network.ok());
  EXPECT_GE(stats.structure_seconds, 0.0);
  EXPECT_GE(stats.parameter_seconds, 0.0);
}

}  // namespace
}  // namespace themis::bn
