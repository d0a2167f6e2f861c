#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "reweight/incidence.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "reweight/uniform.h"
#include "util/random.h"
#include "workload/flights.h"
#include "workload/sampler.h"

namespace themis::reweight {
namespace {

/// The paper's running example (Examples 3.1 / 4.1 / 4.2): population of
/// 10 flights, sample of 4, Γ = {date; (o_st, d_st)}.
struct Example {
  static data::SchemaPtr MakeSchema() {
    auto schema = std::make_shared<data::Schema>();
    schema->AddAttribute("date", {"01", "02"});
    schema->AddAttribute("o_st", {"FL", "NC", "NY"});
    schema->AddAttribute("d_st", {"FL", "NC", "NY"});
    return schema;
  }

  data::SchemaPtr schema = MakeSchema();
  data::Table population{schema};
  data::Table sample{schema};
  aggregate::AggregateSet aggregates;

  Example() {
    const char* prows[][3] = {
        {"01", "FL", "FL"}, {"01", "FL", "FL"}, {"02", "FL", "NY"},
        {"01", "NC", "FL"}, {"02", "NC", "NY"}, {"02", "NC", "NY"},
        {"02", "NC", "NY"}, {"01", "NY", "FL"}, {"01", "NY", "NC"},
        {"02", "NY", "NY"}};
    for (const auto& r : prows) population.AppendRowLabels({r[0], r[1], r[2]});
    const char* srows[][3] = {{"01", "FL", "FL"},
                              {"01", "FL", "FL"},
                              {"02", "NC", "NY"},
                              {"01", "NY", "NC"}};
    for (const auto& r : srows) sample.AppendRowLabels({r[0], r[1], r[2]});
    aggregates = aggregate::AggregateSet(schema);
    aggregates.Add(aggregate::ComputeAggregate(population, {0}));
    aggregates.Add(aggregate::ComputeAggregate(population, {1, 2}));
  }
};

TEST(IncidenceTest, MatchesExample41) {
  Example ex;
  auto built = BuildIncidence(ex.sample, ex.aggregates);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const IncidenceSystem& sys = *built;
  // 2 date groups + 7 (o_st, d_st) groups = 9 rows over 4 tuples.
  ASSERT_EQ(sys.g.rows(), 9u);
  EXPECT_EQ(sys.g.cols(), 4u);
  ASSERT_EQ(sys.y.size(), 9u);
  // y = [5 5 | 2 1 1 3 1 1 1] (group order: sorted keys).
  EXPECT_DOUBLE_EQ(sys.y[0], 5.0);
  EXPECT_DOUBLE_EQ(sys.y[1], 5.0);
  // date=01 row touches sample tuples {0, 1, 3}; date=02 touches {2}.
  EXPECT_EQ(std::vector<uint32_t>(sys.g.Row(0).begin(), sys.g.Row(0).end()),
            (std::vector<uint32_t>{0, 1, 3}));
  EXPECT_EQ(std::vector<uint32_t>(sys.g.Row(1).begin(), sys.g.Row(1).end()),
            (std::vector<uint32_t>{2}));
  // (FL,FL) count 2 touches {0,1}; (FL,NY) count 1 touches nobody.
  EXPECT_DOUBLE_EQ(sys.y[2], 2.0);
  EXPECT_EQ(sys.g.Row(2).size(), 2u);
  EXPECT_DOUBLE_EQ(sys.y[3], 1.0);
  EXPECT_TRUE(sys.g.Row(3).empty());
  // One pass per aggregate; each tuple's group id within it.
  ASSERT_EQ(sys.passes.size(), 2u);
  EXPECT_EQ(sys.passes[0].first_row, 0u);
  EXPECT_EQ(sys.passes[0].num_groups, 2u);
  EXPECT_EQ(sys.passes[0].group_of, (std::vector<uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(sys.passes[1].first_row, 2u);
  EXPECT_EQ(sys.passes[1].num_groups, 7u);
}

TEST(IncidenceTest, RepeatedKeyStartsANewPass) {
  // date=01 published twice: the second copy is its own pass, so Alg 1
  // still sees it after date=01's first copy, in the same order.
  Example ex;
  aggregate::AggregateSpec spec = aggregate::ComputeAggregate(ex.population, {0});
  spec.groups.push_back(spec.groups[0]);
  spec.groups.push_back(spec.groups[1]);
  aggregate::AggregateSet aggregates(ex.schema);
  aggregates.Add(spec);
  auto sys = BuildIncidence(ex.sample, aggregates);
  ASSERT_TRUE(sys.ok());
  ASSERT_EQ(sys->passes.size(), 2u);
  EXPECT_EQ(sys->passes[0].num_groups, 2u);
  EXPECT_EQ(sys->passes[1].first_row, 2u);
  EXPECT_EQ(sys->passes[1].num_groups, 2u);
  EXPECT_EQ(sys->passes[1].group_of, (std::vector<uint32_t>{0, 0, 1, 0}));
  EXPECT_EQ(sys->g.Row(2).size(), 3u);
}

TEST(UniformTest, EqualWeightsSummingToN) {
  Example ex;
  UniformReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_DOUBLE_EQ(ex.sample.weight(r), 2.5);  // 10 / 4
  }
}

TEST(SumNormalizeTest, RescalesToPopulation) {
  Example ex;
  ex.sample.set_weight(0, 2);
  ex.sample.set_weight(1, 2);
  ex.sample.set_weight(2, 4);
  ex.sample.set_weight(3, 8);
  SumNormalize(ex.sample, 32.0);
  EXPECT_DOUBLE_EQ(ex.sample.TotalWeight(), 32.0);
  EXPECT_DOUBLE_EQ(ex.sample.weight(3), 16.0);
}

TEST(IpfTest, FirstSweepMatchesExample42) {
  // Run exactly one IPF sweep and compare with the worked table: after
  // j = 9, iter = 1 the weights are [1, 1, 3, 1].
  Example ex;
  IpfOptions options;
  options.max_iterations = 1;
  IpfReweighter rw(options);
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_NEAR(ex.sample.weight(0), 1.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(1), 1.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(2), 3.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(3), 1.0, 1e-9);
}

TEST(IpfTest, DoesNotConvergeOnExample42) {
  // The sample misses FL-bound tuples, so IPF cannot satisfy all the
  // aggregates (Example 4.2); it must report non-convergence but still
  // deliver approximate positive weights.
  Example ex;
  IpfOptions options;
  options.max_iterations = 50;
  IpfReweighter rw(options);
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_FALSE(rw.stats().converged);
  EXPECT_GT(rw.stats().max_violation, 0.01);
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_GT(ex.sample.weight(r), 0.0);
  }
}

TEST(IpfTest, ReportsEmptyConstraintsOfExample41) {
  // Four (o_st, d_st) groups — (FL,NY), (NC,FL), (NY,FL), (NY,NY) — have
  // no sample tuple; they hold 4 of the 10 flights.
  Example ex;
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_EQ(rw.stats().empty_constraints, 4u);
  EXPECT_DOUBLE_EQ(rw.stats().empty_mass, 4.0);
}

TEST(IpfTest, ConvergesOnFeasibleSystem) {
  // Sample = population: every aggregate is exactly satisfiable with
  // weights of one... but IPF must also converge from a perturbed start.
  Example ex;
  data::Table full = ex.population.Clone();
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(full, ex.aggregates, 10.0).ok());
  EXPECT_TRUE(rw.stats().converged);
  auto sys = BuildIncidence(full, ex.aggregates);
  ASSERT_TRUE(sys.ok());
  for (size_t j = 0; j < sys->g.rows(); ++j) {
    if (sys->g.Row(j).empty()) continue;
    EXPECT_NEAR(sys->g.RowDot(j, full.weights()), sys->y[j], 1e-6);
  }
}

TEST(IpfTest, SatisfiedMarginalsStayPut) {
  // With only the satisfiable date aggregate, IPF converges and matches it.
  Example ex;
  aggregate::AggregateSet date_only(ex.schema);
  date_only.Add(aggregate::ComputeAggregate(ex.population, {0}));
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, date_only, 10.0).ok());
  EXPECT_TRUE(rw.stats().converged);
  // date=01 has 3 sample tuples sharing count 5; date=02 has 1 with 5.
  EXPECT_NEAR(ex.sample.weight(0), 5.0 / 3.0, 1e-9);
  EXPECT_NEAR(ex.sample.weight(2), 5.0, 1e-9);
}

TEST(IpfTest, EmptyAggregatesFallsBackToUniform) {
  Example ex;
  aggregate::AggregateSet empty(ex.schema);
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, empty, 10.0).ok());
  EXPECT_DOUBLE_EQ(ex.sample.weight(0), 2.5);
}

TEST(IpfTest, EmptySampleFails) {
  Example ex;
  data::Table empty(ex.schema);
  IpfReweighter rw;
  EXPECT_FALSE(rw.Reweight(empty, ex.aggregates, 10.0).ok());
}

/// Alg 1 one group at a time: each group's tuples found by comparing every
/// tuple's key, each sum one serial chain in ascending tuple order, and
/// every constraint re-summed for the convergence test after each sweep.
/// This is the loop IpfReweighter ran before its pass-wise sweep, kept as
/// the bitwise oracle for it.
struct OracleIpf {
  std::vector<double> weights;
  IpfStats stats;

  OracleIpf(const data::Table& sample,
            const aggregate::AggregateSet& aggregates,
            const IpfOptions& options) {
    std::vector<std::vector<size_t>> members;
    std::vector<double> y;
    for (const aggregate::AggregateSpec& spec : aggregates.specs()) {
      for (const auto& [key, count] : spec.groups) {
        std::vector<size_t>& rows = members.emplace_back();
        for (size_t t = 0; t < sample.num_rows(); ++t) {
          if (sample.KeyFor(t, spec.attrs) == key) rows.push_back(t);
        }
        y.push_back(count);
        if (rows.empty()) {
          ++stats.empty_constraints;
          stats.empty_mass += count;
        }
      }
    }
    weights.assign(sample.num_rows(), 1.0);
    std::vector<double>& w = weights;
    const auto row_dot = [&](size_t j) {
      double s = 0;
      for (size_t c : members[j]) s += w[c];
      return s;
    };
    for (int iter = 0; iter < options.max_iterations; ++iter) {
      for (size_t j = 0; j < members.size(); ++j) {
        if (members[j].empty()) continue;
        const double got = row_dot(j);
        const double want = y[j];
        if (got == want) continue;
        if (got <= 0.0) continue;
        const double s = want / got;
        for (size_t c : members[j]) w[c] *= s;
      }
      stats.iterations = iter + 1;
      double worst = 0;
      for (size_t j = 0; j < members.size(); ++j) {
        if (members[j].empty()) continue;
        worst = std::max(worst, std::abs(row_dot(j) - y[j]) /
                                    std::max(1.0, std::abs(y[j])));
      }
      stats.max_violation = worst;
      if (worst <= options.tolerance) {
        stats.converged = true;
        break;
      }
    }
  }
};

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// Runs IpfReweighter and the oracle on one system and asserts bitwise
/// equal weights and stats; returns the stats for case-specific checks.
IpfStats ExpectMatchesOracle(const data::Table& sample,
                             const aggregate::AggregateSet& aggregates,
                             const IpfOptions& options) {
  const OracleIpf oracle(sample, aggregates, options);
  data::Table s = sample.Clone();
  IpfReweighter rw(options);
  EXPECT_TRUE(rw.Reweight(s, aggregates, 1000.0).ok());
  const IpfStats& got = rw.stats();
  EXPECT_EQ(got.iterations, oracle.stats.iterations);
  EXPECT_EQ(got.converged, oracle.stats.converged);
  EXPECT_TRUE(SameBits(got.max_violation, oracle.stats.max_violation))
      << got.max_violation << " vs " << oracle.stats.max_violation;
  EXPECT_EQ(got.empty_constraints, oracle.stats.empty_constraints);
  EXPECT_TRUE(SameBits(got.empty_mass, oracle.stats.empty_mass));
  size_t differing = 0;
  for (size_t t = 0; t < s.num_rows(); ++t) {
    differing += SameBits(s.weight(t), oracle.weights[t]) ? 0 : 1;
  }
  EXPECT_EQ(differing, 0u) << "of " << s.num_rows() << " weights";
  return got;
}

/// A seeded random system: a population over four small attributes (codes
/// include kNullCode), a sample drawn from a skewed slice of it, and 1-4
/// aggregates over random attribute sets whose targets are perturbed,
/// sometimes zeroed, sometimes set to the sample's own count (already met
/// on the first sweep), with a key sometimes published twice.
struct RandomSystem {
  data::SchemaPtr schema = std::make_shared<data::Schema>();
  data::Table sample{schema};
  aggregate::AggregateSet aggregates;

  explicit RandomSystem(uint64_t seed) {
    Rng rng(seed);
    const size_t num_attrs = 4;
    std::vector<int64_t> domain;
    for (size_t a = 0; a < num_attrs; ++a) {
      domain.push_back(rng.UniformInt(2, 6));
      std::vector<std::string> labels;
      for (int64_t v = 0; v < domain[a]; ++v) {
        labels.push_back("v" + std::to_string(v));
      }
      schema->AddAttribute("a" + std::to_string(a), labels);
    }
    data::Table population(schema);
    sample = data::Table(schema);
    const int64_t pop_rows = rng.UniformInt(20, 400);
    for (int64_t r = 0; r < pop_rows; ++r) {
      std::vector<data::ValueCode> codes;
      for (size_t a = 0; a < num_attrs; ++a) {
        codes.push_back(rng.UniformInt(0, 19) == 0
                            ? data::kNullCode
                            : static_cast<data::ValueCode>(
                                  rng.UniformInt(0, domain[a] - 1)));
      }
      population.AppendRow(codes);
      // Biased sample: attribute 0's top value is never sampled, so some
      // groups are empty.
      if (codes[0] != domain[0] - 1 && rng.UniformInt(0, 2) == 0) {
        sample.AppendRow(codes);
      }
    }
    if (sample.num_rows() == 0) sample.AppendRow({0, 0, 0, 0});
    aggregates = aggregate::AggregateSet(schema);
    const int64_t num_aggs = rng.UniformInt(1, 4);
    for (int64_t i = 0; i < num_aggs; ++i) {
      std::vector<size_t> attrs;
      for (size_t a = 0; a < num_attrs; ++a) {
        if (rng.UniformInt(0, 1) == 0) attrs.push_back(a);
      }
      if (attrs.empty()) attrs.push_back(static_cast<size_t>(i) % num_attrs);
      aggregate::AggregateSpec spec =
          aggregate::ComputeAggregate(population, attrs);
      for (auto& [key, count] : spec.groups) {
        const int64_t kind = rng.UniformInt(0, 9);
        if (kind == 0) {
          count = 0;  // Alg 1's got <= 0 skip after the first sweep
        } else if (kind == 1) {
          count = 0;  // the sample's own count: met before any rescaling
          for (size_t t = 0; t < sample.num_rows(); ++t) {
            count += sample.KeyFor(t, attrs) == key ? 1 : 0;
          }
        } else if (kind <= 3) {
          count *= 1.0 + rng.UniformDouble(-0.3, 0.3);
        }
      }
      if (rng.UniformInt(0, 2) == 0) {
        const size_t k = static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(spec.groups.size()) - 1));
        auto repeat = spec.groups[k];
        repeat.second *= 1.5;
        spec.groups.insert(
            spec.groups.begin() +
                rng.UniformInt(0, static_cast<int64_t>(spec.groups.size())),
            repeat);
      }
      aggregates.Add(std::move(spec));
    }
  }
};

TEST(IpfDifferentialTest, RandomSystemsMatchTheOracleBitwise) {
  size_t converged = 0;
  size_t with_empty = 0;
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    RandomSystem system(seed);
    for (int max_iterations : {0, 1, 2, 7, 60}) {
      for (double tolerance : {1e-8, 1e-2}) {
        IpfOptions options;
        options.max_iterations = max_iterations;
        options.tolerance = tolerance;
        const IpfStats stats =
            ExpectMatchesOracle(system.sample, system.aggregates, options);
        converged += stats.converged ? 1 : 0;
        with_empty += stats.empty_constraints > 0 ? 1 : 0;
      }
    }
  }
  EXPECT_GT(converged, 0u);
  EXPECT_GT(with_empty, 0u);
}

TEST(IpfDifferentialTest, ConvergesMidRunLikeTheOracle) {
  // Sample = population and exact aggregates: a feasible system that
  // converges after a few sweeps, well inside the budget.
  Example ex;
  data::Table full = ex.population.Clone();
  IpfOptions options;
  options.max_iterations = 50;
  const IpfStats stats = ExpectMatchesOracle(full, ex.aggregates, options);
  EXPECT_TRUE(stats.converged);
  EXPECT_LT(stats.iterations, 50);
}

TEST(IpfDifferentialTest, NeverConvergesLikeTheOracle) {
  // Example 4.2: the sample misses tuples, so every sweep runs.
  Example ex;
  IpfOptions options;
  options.max_iterations = 40;
  const IpfStats stats = ExpectMatchesOracle(ex.sample, ex.aggregates, options);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(stats.iterations, 40);
  EXPECT_EQ(stats.empty_constraints, 4u);
}

TEST(IpfDifferentialTest, BiasedFlightsSampleMatchesTheOracle) {
  // A realistic size: groups of hundreds of tuples exercise every lane
  // width of the interleaved sums.
  workload::FlightsConfig config;
  config.num_rows = 6000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, "Corners", 0.1, 23);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kOrigin}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kDate}));
  aggregates.Add(aggregate::ComputeAggregate(
      population,
      {workload::FlightsAttrs::kOrigin, workload::FlightsAttrs::kDest}));
  IpfOptions options;
  options.max_iterations = 25;
  ExpectMatchesOracle(*sample, aggregates, options);
}

/// A schema of `sizes.size()` attributes a0, a1, ... with sizes[i] values.
data::SchemaPtr CellSchema(const std::vector<int>& sizes) {
  auto schema = std::make_shared<data::Schema>();
  for (size_t a = 0; a < sizes.size(); ++a) {
    std::vector<std::string> labels;
    for (int v = 0; v < sizes[a]; ++v) labels.push_back("v" + std::to_string(v));
    schema->AddAttribute("a" + std::to_string(a), labels);
  }
  return schema;
}

aggregate::AggregateSpec Spec(
    std::vector<size_t> attrs,
    std::vector<std::pair<data::TupleKey, double>> groups) {
  aggregate::AggregateSpec spec;
  spec.attrs = std::move(attrs);
  spec.groups = std::move(groups);
  return spec;
}

TEST(IpfCellTest, EveryTupleInItsOwnCell) {
  // a0 and a1 are both tuple ids, so each aggregate puts each tuple in its
  // own group and every cell holds one tuple; the second pass splits no
  // cell further.
  constexpr int kTuples = 300;
  data::SchemaPtr schema = CellSchema({kTuples, kTuples});
  data::Table sample(schema);
  for (int t = 0; t < kTuples; ++t) sample.AppendRow({t, (7 * t) % kTuples});
  aggregate::AggregateSet aggregates(schema);
  std::vector<std::pair<data::TupleKey, double>> ids, shuffled_ids;
  for (int t = 0; t < kTuples; ++t) {
    ids.push_back({{t}, 1.0 + t % 7});
    shuffled_ids.push_back({{(11 * t) % kTuples}, 2.0 + t % 5});
  }
  aggregates.Add(Spec({0}, std::move(ids)));
  aggregates.Add(Spec({1}, std::move(shuffled_ids)));
  IpfOptions options;
  options.max_iterations = 30;
  const IpfStats stats = ExpectMatchesOracle(sample, aggregates, options);
  EXPECT_EQ(stats.cells, static_cast<size_t>(kTuples));
}

TEST(IpfCellTest, AllTuplesInOneCell) {
  // Identical tuples share every group, and so one weight; a repeated key
  // adds a second pass of the same aggregate, and the empty {a0 = v1}
  // group reaches no tuple.
  data::SchemaPtr schema = CellSchema({2, 3});
  data::Table sample(schema);
  for (int t = 0; t < 25; ++t) sample.AppendRow({0, 2});
  aggregate::AggregateSet aggregates(schema);
  aggregates.Add(Spec({0}, {{{0}, 80.0}, {{1}, 20.0}, {{0}, 70.0}}));
  aggregates.Add(Spec({0, 1}, {{{0, 2}, 60.0}, {{1, 1}, 5.0}}));
  IpfOptions options;
  options.max_iterations = 12;
  const IpfStats stats = ExpectMatchesOracle(sample, aggregates, options);
  EXPECT_EQ(stats.cells, 1u);
  EXPECT_EQ(stats.empty_constraints, 2u);
}

TEST(IpfCellTest, TuplesInNoGroupOfAPassShareItsCellLikeTheOracle) {
  // The {a0} aggregate publishes only v0 and v1: tuples with a0 = v2 or
  // v3 (or null) are in none of its groups and so split only by a1, and
  // every a1 value is published. The sample is scrambled so that cells
  // interleave in tuple order.
  data::SchemaPtr schema = CellSchema({4, 3});
  data::Table sample(schema);
  Rng rng(31);
  std::set<std::pair<int, int>> cells;
  for (int t = 0; t < 300; ++t) {
    const auto a0 = static_cast<data::ValueCode>(rng.UniformInt(-1, 3));
    const auto a1 = static_cast<data::ValueCode>(rng.UniformInt(0, 2));
    sample.AppendRow({a0, a1});
    cells.insert({a0 == 0 || a0 == 1 ? a0 : -2, a1});
  }
  aggregate::AggregateSet aggregates(schema);
  aggregates.Add(Spec({0}, {{{1}, 300.0}, {{0}, 90.0}}));
  aggregates.Add(Spec({1}, {{{2}, 400.0}, {{0}, 150.0}, {{1}, 120.0}}));
  for (int max_iterations : {0, 1, 40}) {
    IpfOptions options;
    options.max_iterations = max_iterations;
    const IpfStats stats = ExpectMatchesOracle(sample, aggregates, options);
    EXPECT_EQ(stats.cells, cells.size());
  }
}

TEST(LinRegTest, WeightsPositiveAndNormalized) {
  Example ex;
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, ex.aggregates, 10.0).ok());
  EXPECT_NEAR(ex.sample.TotalWeight(), 10.0, 1e-9);
  for (size_t r = 0; r < ex.sample.num_rows(); ++r) {
    EXPECT_GT(ex.sample.weight(r), 0.0);
  }
  // β ≥ 0 (the paper's constrained least squares).
  for (double b : rw.beta()) EXPECT_GE(b, -1e-12);
}

TEST(LinRegTest, RecoversUniformOnUnbiasedFeasibleCase) {
  // Sample = population: weights of one satisfy everything, so after
  // normalization to n the weights must all be n/nS = 1.
  Example ex;
  data::Table full = ex.population.Clone();
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(full, ex.aggregates, 10.0).ok());
  for (size_t r = 0; r < full.num_rows(); ++r) {
    EXPECT_NEAR(full.weight(r), 1.0, 0.2);
  }
}

TEST(LinRegTest, EmptyAggregatesFallsBackToUniform) {
  Example ex;
  aggregate::AggregateSet empty(ex.schema);
  LinRegReweighter rw;
  ASSERT_TRUE(rw.Reweight(ex.sample, empty, 10.0).ok());
  EXPECT_DOUBLE_EQ(ex.sample.weight(1), 2.5);
}

/// Property sweep over biased flights samples: every reweighter yields
/// strictly positive weights, and IPF satisfies any single satisfiable
/// marginal far better than uniform.
class ReweighterPropertyTest : public ::testing::TestWithParam<const char*> {
};

TEST_P(ReweighterPropertyTest, PositiveWeightsOnBiasedSamples) {
  workload::FlightsConfig config;
  config.num_rows = 8000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, GetParam(), 0.1, 21);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kOrigin}));
  aggregates.Add(aggregate::ComputeAggregate(
      population, {workload::FlightsAttrs::kDate}));

  for (int method = 0; method < 3; ++method) {
    data::Table s = sample->Clone();
    Status status;
    if (method == 0) {
      UniformReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    } else if (method == 1) {
      LinRegReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    } else {
      IpfReweighter rw;
      status = rw.Reweight(s, aggregates, population.num_rows());
    }
    ASSERT_TRUE(status.ok()) << status.ToString();
    for (size_t r = 0; r < s.num_rows(); ++r) {
      EXPECT_GE(s.weight(r), 0.0);
    }
    EXPECT_GT(s.TotalWeight(), 0.0);
  }
}

TEST_P(ReweighterPropertyTest, IpfFixesTheBiasedMarginal) {
  workload::FlightsConfig config;
  config.num_rows = 8000;
  data::Table population = workload::GenerateFlights(config);
  auto sample = workload::MakeFlightsSample(population, GetParam(), 0.1, 22);
  ASSERT_TRUE(sample.ok());
  aggregate::AggregateSet aggregates(population.schema());
  const size_t attr = workload::FlightsAttrs::kOrigin;
  aggregates.Add(aggregate::ComputeAggregate(population, {attr}));

  data::Table s = sample->Clone();
  IpfReweighter rw;
  ASSERT_TRUE(rw.Reweight(s, aggregates, population.num_rows()).ok());
  auto truth = population.GroupWeights({attr});
  auto estimate = s.GroupWeights({attr});
  for (const auto& [key, est] : estimate) {
    EXPECT_NEAR(est, truth[key], 1e-3 * truth[key] + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(Samples, ReweighterPropertyTest,
                         ::testing::Values("Unif", "June", "SCorners",
                                           "Corners"));

}  // namespace
}  // namespace themis::reweight
