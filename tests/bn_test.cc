#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "bn/bayes_net.h"
#include "bn/child_network.h"
#include "bn/cpt.h"
#include "bn/dag.h"
#include "bn/inference.h"
#include "util/thread_pool.h"

namespace themis::bn {
namespace {

TEST(DagTest, AddRemoveEdges) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(0, 1));
  EXPECT_FALSE(dag.HasEdge(1, 0));
  EXPECT_EQ(dag.num_edges(), 1u);
  EXPECT_FALSE(dag.AddEdge(0, 1).ok());  // duplicate
  ASSERT_TRUE(dag.RemoveEdge(0, 1).ok());
  EXPECT_EQ(dag.num_edges(), 0u);
  EXPECT_FALSE(dag.RemoveEdge(0, 1).ok());  // absent
}

TEST(DagTest, RejectsCycles) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_TRUE(dag.WouldCreateCycle(2, 0));
  EXPECT_FALSE(dag.AddEdge(2, 0).ok());
  EXPECT_FALSE(dag.AddEdge(0, 0).ok());  // self loop
}

TEST(DagTest, ReverseEdge) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.ReverseEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(1, 0));
  EXPECT_FALSE(dag.HasEdge(0, 1));
}

TEST(DagTest, ReverseRollsBackOnCycle) {
  Dag dag(3);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(0, 2).ok());
  ASSERT_TRUE(dag.AddEdge(2, 1).ok());
  // Reversing 0 -> 1 gives 1 -> 0; with 0 -> 2 -> 1 that's a cycle.
  EXPECT_FALSE(dag.ReverseEdge(0, 1).ok());
  EXPECT_TRUE(dag.HasEdge(0, 1));  // rolled back
}

TEST(DagTest, TopologicalOrder) {
  Dag dag(4);
  ASSERT_TRUE(dag.AddEdge(2, 0).ok());
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 3).ok());
  auto order = dag.TopologicalOrder();
  ASSERT_EQ(order.size(), 4u);
  std::vector<size_t> pos(4);
  for (size_t i = 0; i < 4; ++i) pos[order[i]] = i;
  EXPECT_LT(pos[2], pos[0]);
  EXPECT_LT(pos[0], pos[1]);
  EXPECT_LT(pos[1], pos[3]);
}

TEST(DagTest, AncestorsAndChildren) {
  Dag dag(4);
  ASSERT_TRUE(dag.AddEdge(0, 1).ok());
  ASSERT_TRUE(dag.AddEdge(1, 2).ok());
  EXPECT_EQ(dag.Ancestors(2), (std::vector<size_t>{0, 1}));
  EXPECT_TRUE(dag.Ancestors(0).empty());
  EXPECT_EQ(dag.Children(0), (std::vector<size_t>{1}));
}

TEST(CptTest, ConfigIndexRoundTrip) {
  Cpt cpt(0, 3, {1, 2}, {2, 4});
  EXPECT_EQ(cpt.num_configs(), 8u);
  for (size_t cfg = 0; cfg < 8; ++cfg) {
    EXPECT_EQ(cpt.ConfigIndex(cpt.DecodeConfig(cfg)), cfg);
  }
}

TEST(CptTest, UniformAndNormalize) {
  Cpt cpt(0, 4, {}, {});
  cpt.FillUniform();
  EXPECT_TRUE(cpt.RowsAreSimplexes());
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 2), 0.25);
  cpt.SetProb(0, 0, 3.0);
  cpt.SetProb(0, 1, 1.0);
  cpt.SetProb(0, 2, 0.0);
  cpt.SetProb(0, 3, 0.0);
  cpt.NormalizeRows();
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 0), 0.75);
  EXPECT_TRUE(cpt.RowsAreSimplexes());
}

TEST(CptTest, NormalizeZeroRowBecomesUniform) {
  Cpt cpt(0, 2, {}, {});
  cpt.NormalizeRows();
  EXPECT_DOUBLE_EQ(cpt.Prob(0, 0), 0.5);
}

TEST(CptTest, FreeParameters) {
  Cpt cpt(0, 3, {1}, {4});
  EXPECT_EQ(cpt.NumFreeParameters(), 8u);  // 4 * (3-1)
}

TEST(CptTest, SampleRespectsDistribution) {
  Cpt cpt(0, 2, {}, {});
  cpt.SetProb(0, 0, 0.9);
  cpt.SetProb(0, 1, 0.1);
  const CptSampler sampler(cpt);
  Rng rng(3);
  int zeros = 0;
  for (int i = 0; i < 5000; ++i) {
    if (sampler.Sample(0, rng.UniformDouble()) == 0) {
      ++zeros;
    }
  }
  EXPECT_NEAR(zeros / 5000.0, 0.9, 0.02);
}

/// The linear-scan draw forward sampling has always made: the first value
/// whose running sum exceeds r, else the last value.
data::ValueCode LinearScanSample(const Cpt& cpt, size_t config, double r) {
  double acc = 0;
  for (size_t j = 0; j < cpt.child_size(); ++j) {
    acc += cpt.Prob(config, static_cast<data::ValueCode>(j));
    if (r < acc) return static_cast<data::ValueCode>(j);
  }
  return static_cast<data::ValueCode>(cpt.child_size() - 1);
}

TEST(CptTest, CumulativeSamplerMatchesLinearScan) {
  Rng rng(2024);
  for (int trial = 0; trial < 200; ++trial) {
    // Small domains, and large ones where most guide slices hold no value
    // or several.
    const size_t child_size = static_cast<size_t>(
        trial % 4 == 3 ? rng.UniformInt(10, 300) : rng.UniformInt(1, 9));
    const size_t parent_size = static_cast<size_t>(rng.UniformInt(1, 4));
    Cpt cpt(0, child_size, {1}, {parent_size});
    for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
      for (size_t j = 0; j < child_size; ++j) {
        // A third of the values get probability zero.
        const double p = rng.Bernoulli(1.0 / 3) ? 0.0 : rng.UniformDouble();
        cpt.SetProb(cfg, static_cast<data::ValueCode>(j), p);
      }
    }
    cpt.NormalizeRows();
    // Odd trials lose mass, so their rows sum to less than one and large
    // draws fall through to the last value.
    if (trial % 2 == 1) {
      for (double& p : cpt.mutable_flat()) p *= 0.8;
    }
    const CptSampler sampler(cpt);
    for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
      std::vector<double> draws = {0.0, 0.79999, 0.8, 0.99999,
                                   std::nextafter(1.0, 0.0)};
      for (int i = 0; i < 50; ++i) draws.push_back(rng.UniformDouble());
      // Exact running sums and guide slice starts are the boundaries where
      // the two could differ.
      double acc = 0;
      for (size_t j = 0; j < child_size; ++j) {
        acc += cpt.Prob(cfg, static_cast<data::ValueCode>(j));
        draws.push_back(acc);
        draws.push_back(static_cast<double>(j) /
                        static_cast<double>(child_size));
      }
      for (double r : draws) {
        const data::ValueCode got = sampler.Sample(cfg, r);
        ASSERT_EQ(got, LinearScanSample(cpt, cfg, r))
            << "trial " << trial << " config " << cfg << " r " << r;
        if (child_size > 1 && got + 1 < static_cast<int>(child_size)) {
          EXPECT_GT(cpt.Prob(cfg, got), 0.0) << "drew a zero-mass value";
        }
      }
    }
  }
}

/// A tiny 3-node chain network A -> B -> C over binary domains with known
/// parameters, used by the inference tests.
BayesianNetwork ChainNetwork() {
  auto schema = std::make_shared<data::Schema>();
  schema->AddAttribute("A", {"0", "1"});
  schema->AddAttribute("B", {"0", "1"});
  schema->AddAttribute("C", {"0", "1"});
  Dag dag(3);
  THEMIS_CHECK_OK(dag.AddEdge(0, 1));
  THEMIS_CHECK_OK(dag.AddEdge(1, 2));
  BayesianNetwork network(schema, dag);
  // Pr(A=1) = 0.3.
  network.mutable_cpt(0).SetProb(0, 0, 0.7);
  network.mutable_cpt(0).SetProb(0, 1, 0.3);
  // Pr(B=1 | A=0) = 0.2; Pr(B=1 | A=1) = 0.8.
  network.mutable_cpt(1).SetProb(0, 0, 0.8);
  network.mutable_cpt(1).SetProb(0, 1, 0.2);
  network.mutable_cpt(1).SetProb(1, 0, 0.2);
  network.mutable_cpt(1).SetProb(1, 1, 0.8);
  // Pr(C=1 | B=0) = 0.1; Pr(C=1 | B=1) = 0.6.
  network.mutable_cpt(2).SetProb(0, 0, 0.9);
  network.mutable_cpt(2).SetProb(0, 1, 0.1);
  network.mutable_cpt(2).SetProb(1, 0, 0.4);
  network.mutable_cpt(2).SetProb(1, 1, 0.6);
  return network;
}

TEST(BayesNetTest, JointProbabilityIsFactorProduct) {
  BayesianNetwork network = ChainNetwork();
  // Pr(A=1,B=1,C=1) = 0.3 * 0.8 * 0.6.
  EXPECT_NEAR(network.JointProbability({1, 1, 1}), 0.144, 1e-12);
  EXPECT_NEAR(network.JointProbability({0, 0, 0}), 0.7 * 0.8 * 0.9, 1e-12);
}

TEST(BayesNetTest, JointSumsToOne) {
  BayesianNetwork network = ChainNetwork();
  double total = 0;
  for (data::ValueCode a = 0; a < 2; ++a) {
    for (data::ValueCode b = 0; b < 2; ++b) {
      for (data::ValueCode c = 0; c < 2; ++c) {
        total += network.JointProbability({a, b, c});
      }
    }
  }
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(BayesNetTest, ForwardSamplingMatchesMarginals) {
  BayesianNetwork network = ChainNetwork();
  Rng rng(17);
  int a1 = 0, b1 = 0;
  const int trials = 20000;
  data::Table table = network.SampleTable(trials, trials, rng);
  for (int i = 0; i < trials; ++i) {
    a1 += table.Get(i, 0);
    b1 += table.Get(i, 1);
  }
  EXPECT_NEAR(a1 / static_cast<double>(trials), 0.3, 0.02);
  // Pr(B=1) = 0.7*0.2 + 0.3*0.8 = 0.38.
  EXPECT_NEAR(b1 / static_cast<double>(trials), 0.38, 0.02);
}

TEST(BayesNetTest, SampleTableWeightsScaleToPopulation) {
  BayesianNetwork network = ChainNetwork();
  Rng rng(5);
  data::Table table = network.SampleTable(100, 5000.0, rng);
  EXPECT_EQ(table.num_rows(), 100u);
  EXPECT_NEAR(table.TotalWeight(), 5000.0, 1e-9);
  EXPECT_DOUBLE_EQ(table.weight(0), 50.0);
}

/// A 5-node network with random CPTs (some zero entries) over mixed
/// domain sizes, drawn in a topological order that differs from the
/// attribute order: 3 -> 0 -> {1, 2}, {0, 3} -> 4.
BayesianNetwork RandomNetwork(uint64_t seed) {
  auto schema = std::make_shared<data::Schema>();
  const std::vector<size_t> sizes = {3, 2, 5, 4, 3};
  for (size_t a = 0; a < sizes.size(); ++a) {
    std::vector<std::string> labels;
    for (size_t v = 0; v < sizes[a]; ++v) labels.push_back(std::to_string(v));
    schema->AddAttribute("x" + std::to_string(a), labels);
  }
  Dag dag(sizes.size());
  THEMIS_CHECK_OK(dag.AddEdge(3, 0));
  THEMIS_CHECK_OK(dag.AddEdge(0, 1));
  THEMIS_CHECK_OK(dag.AddEdge(0, 2));
  THEMIS_CHECK_OK(dag.AddEdge(0, 4));
  THEMIS_CHECK_OK(dag.AddEdge(3, 4));
  BayesianNetwork network(schema, dag);
  Rng rng(seed);
  for (size_t v = 0; v < network.num_nodes(); ++v) {
    for (double& p : network.mutable_cpt(v).mutable_flat()) {
      p = rng.Bernoulli(0.2) ? 0.0 : rng.UniformDouble();
    }
    network.mutable_cpt(v).NormalizeRows();
  }
  return network;
}

/// Forward sampling as it was first written: one tuple at a time in
/// topological order, each value drawn by LinearScanSample.
data::Table ReferenceSampleTable(const BayesianNetwork& network,
                                 size_t num_rows, double population_size,
                                 Rng& rng) {
  data::Table table(network.schema());
  const std::vector<size_t> order = network.dag().TopologicalOrder();
  for (size_t r = 0; r < num_rows; ++r) {
    std::vector<data::ValueCode> tuple(network.num_nodes(), data::kNullCode);
    for (size_t v : order) {
      const Cpt& cpt = network.cpt(v);
      data::TupleKey parent_codes(cpt.parents().size());
      for (size_t i = 0; i < cpt.parents().size(); ++i) {
        parent_codes[i] = tuple[cpt.parents()[i]];
      }
      tuple[v] = LinearScanSample(cpt, cpt.ConfigIndex(parent_codes),
                                  rng.UniformDouble());
    }
    table.AppendRow(tuple);
    table.set_weight(r, population_size / static_cast<double>(num_rows));
  }
  return table;
}

void ExpectSameTable(const data::Table& a, const data::Table& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  ASSERT_EQ(a.num_attributes(), b.num_attributes());
  for (size_t attr = 0; attr < a.num_attributes(); ++attr) {
    EXPECT_EQ(a.column(attr), b.column(attr)) << "column " << attr;
  }
  EXPECT_EQ(a.weights(), b.weights());
}

TEST(BayesNetTest, SampleTableMatchesPerTupleLinearScan) {
  const BayesianNetwork network = RandomNetwork(31);
  Rng rng(8), reference_rng(8);
  for (int round = 0; round < 3; ++round) {
    ExpectSameTable(network.SampleTable(2000, 1e5, rng),
                    ReferenceSampleTable(network, 2000, 1e5, reference_rng));
  }
  // Both consumed the same number of draws.
  EXPECT_EQ(rng.engine()(), reference_rng.engine()());
}

TEST(BayesNetTest, SampleTablesEqualSequentialCallsAtAnyPoolSize) {
  const BayesianNetwork network = RandomNetwork(47);
  constexpr uint64_t kSeed = 42;
  // More tables than threads, so tasks queue behind the relay; 0 and 1
  // rows make every table start from the same or the next engine state.
  for (const auto& [tables, rows] :
       {std::pair<size_t, size_t>{7, 1500}, {13, 1500}, {13, 1}, {13, 0}}) {
    Rng rng(kSeed);
    std::vector<data::Table> sequential;
    for (size_t k = 0; k < tables; ++k) {
      sequential.push_back(network.SampleTable(rows, 3e4, rng));
    }
    for (size_t threads : {size_t{1}, size_t{2}, size_t{3}, size_t{8}}) {
      util::ThreadPool pool(threads);
      const std::vector<data::Table> fanned =
          network.SampleTables(tables, rows, 3e4, kSeed, pool);
      ASSERT_EQ(fanned.size(), tables);
      for (size_t k = 0; k < tables; ++k) {
        SCOPED_TRACE(std::to_string(tables) + " tables of " +
                     std::to_string(rows) + " rows, pool " +
                     std::to_string(threads) + ", table " +
                     std::to_string(k));
        ExpectSameTable(fanned[k], sequential[k]);
      }
    }
  }
  util::ThreadPool pool(2);
  EXPECT_TRUE(network.SampleTables(0, 1500, 3e4, kSeed, pool).empty());
}

TEST(InferenceTest, FullEvidenceEqualsJoint) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto p = ve.Probability({{0, 1}, {1, 1}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.144, 1e-12);
}

TEST(InferenceTest, PartialEvidenceMarginalizes) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  // Pr(B=1) = 0.38; Pr(C=1) = 0.62*0.1 + 0.38*0.6 = 0.29.
  auto pb = ve.Probability({{1, 1}});
  ASSERT_TRUE(pb.ok());
  EXPECT_NEAR(*pb, 0.38, 1e-12);
  auto pc = ve.Probability({{2, 1}});
  ASSERT_TRUE(pc.ok());
  EXPECT_NEAR(*pc, 0.29, 1e-12);
}

TEST(InferenceTest, NonAdjacentPair) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  // Pr(A=1, C=1) = 0.3 * (0.8*0.6 + 0.2*0.1) = 0.3*0.5 = 0.15.
  auto p = ve.Probability({{0, 1}, {2, 1}});
  ASSERT_TRUE(p.ok());
  EXPECT_NEAR(*p, 0.15, 1e-12);
}

TEST(InferenceTest, MarginalDistribution) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({1});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1}), 0.38, 1e-12);
  EXPECT_NEAR(marginal->Mass({0}), 0.62, 1e-12);
}

TEST(InferenceTest, ConditionalMarginal) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({2}, {{1, 1}});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1}), 0.6, 1e-12);
}

TEST(InferenceTest, JointMarginalOverTwoTargets) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  auto marginal = ve.Marginal({0, 2});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->Mass({1, 1}), 0.15, 1e-12);
  EXPECT_NEAR(marginal->TotalMass(), 1.0, 1e-9);
}

TEST(InferenceTest, RejectsBadEvidence) {
  BayesianNetwork network = ChainNetwork();
  VariableElimination ve(&network);
  EXPECT_FALSE(ve.Probability({{9, 0}}).ok());
  EXPECT_FALSE(ve.Probability({{0, 9}}).ok());
  EXPECT_FALSE(ve.Marginal({0}, {{0, 1}}).ok());  // overlap
}

TEST(ChildNetworkTest, StructureMatchesPublishedShape) {
  BayesianNetwork child = MakeChildNetwork();
  EXPECT_EQ(child.num_nodes(), 20u);
  EXPECT_EQ(child.dag().num_edges(), 25u);
  auto disease = child.schema()->AttributeIndex("Disease");
  auto asphyxia = child.schema()->AttributeIndex("BirthAsphyxia");
  ASSERT_TRUE(disease.ok() && asphyxia.ok());
  EXPECT_TRUE(child.dag().HasEdge(*asphyxia, *disease));
  EXPECT_EQ(child.dag().Children(*disease).size(), 7u);
}

TEST(ChildNetworkTest, CptsAreValidAndDeterministic) {
  BayesianNetwork a = MakeChildNetwork(7);
  BayesianNetwork b = MakeChildNetwork(7);
  for (size_t v = 0; v < a.num_nodes(); ++v) {
    EXPECT_TRUE(a.cpt(v).RowsAreSimplexes());
    EXPECT_EQ(a.cpt(v).flat(), b.cpt(v).flat());
  }
}

TEST(ChildNetworkTest, InferenceRunsOnFullNetwork) {
  BayesianNetwork child = MakeChildNetwork();
  VariableElimination ve(&child);
  auto disease = child.schema()->AttributeIndex("Disease");
  ASSERT_TRUE(disease.ok());
  auto marginal = ve.Marginal({*disease});
  ASSERT_TRUE(marginal.ok());
  EXPECT_NEAR(marginal->TotalMass(), 1.0, 1e-9);
  EXPECT_EQ(marginal->num_groups(), 6u);
}

}  // namespace
}  // namespace themis::bn
