#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "solver/constrained_mle.h"
#include "util/random.h"

namespace themis::solver {
namespace {

TEST(ConstrainedMleTest, UnconstrainedIsEmpiricalMle) {
  ConstrainedMleProblem p;
  p.counts = {3, 1};
  p.groups = {{{0, 1}}};
  ConstrainedMleOptions options;
  options.smoothing = 0;
  auto sol = SolveConstrainedMle(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->theta[0], 0.75, 1e-9);
  EXPECT_NEAR(sol->theta[1], 0.25, 1e-9);
  EXPECT_TRUE(sol->converged);
}

TEST(ConstrainedMleTest, DirectEqualityConstraint) {
  // Root-node style: θ_j pinned by the aggregate regardless of counts.
  ConstrainedMleProblem p;
  p.counts = {9, 1};
  p.groups = {{{0, 1}}};
  p.constraints = {{{{0, 1.0}}, 0.2}, {{{1, 1.0}}, 0.8}};
  auto sol = SolveConstrainedMle(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  EXPECT_NEAR(sol->theta[0], 0.2, 1e-6);
  EXPECT_NEAR(sol->theta[1], 0.8, 1e-6);
}

TEST(ConstrainedMleTest, ZeroCountStateGetsConstrainedMass) {
  // The sample never saw state 2 but the aggregate demands 30% of it —
  // the "no 500-mile flights in S" situation of Sec 4.2.1.
  ConstrainedMleProblem p;
  p.counts = {6, 4, 0};
  p.groups = {{{0, 1, 2}}};
  p.constraints = {{{{2, 1.0}}, 0.3}};
  auto sol = SolveConstrainedMle(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  EXPECT_NEAR(sol->theta[2], 0.3, 1e-6);
  // Remaining mass keeps the empirical 6:4 ratio (I-projection).
  EXPECT_NEAR(sol->theta[0] / sol->theta[1], 1.5, 1e-4);
}

TEST(ConstrainedMleTest, WeightedCrossGroupConstraint) {
  // Two parent configs with known marginals 0.4/0.6; the aggregate pins
  // the child marginal Σ_k m_k θ_{j=0,k} = 0.5.
  ConstrainedMleProblem p;
  p.counts = {1, 1, 1, 1};  // uniform counts
  p.groups = {{{0, 1}}, {{2, 3}}};
  p.constraints = {{{{0, 0.4}, {2, 0.6}}, 0.5}};
  auto sol = SolveConstrainedMle(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged);
  const double got = 0.4 * sol->theta[0] + 0.6 * sol->theta[2];
  EXPECT_NEAR(got, 0.5, 1e-6);
  // Simplexes hold.
  EXPECT_NEAR(sol->theta[0] + sol->theta[1], 1.0, 1e-9);
  EXPECT_NEAR(sol->theta[2] + sol->theta[3], 1.0, 1e-9);
}

TEST(ConstrainedMleTest, InfeasibleReportsNonConvergence) {
  // Two contradicting direct constraints on the same variable.
  ConstrainedMleProblem p;
  p.counts = {1, 1};
  p.groups = {{{0, 1}}};
  p.constraints = {{{{0, 1.0}}, 0.2}, {{{0, 1.0}}, 0.9}};
  ConstrainedMleOptions options;
  options.max_iterations = 100;
  auto sol = SolveConstrainedMle(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_FALSE(sol->converged);
  EXPECT_GT(sol->max_violation, 0.01);
}

TEST(ConstrainedMleTest, ReportsTheFullViolationOfTheLastIteration) {
  // Contradicting constraints keep the solver from converging. Whatever
  // the budget, max_violation is the largest violation over every
  // constraint and simplex at the returned θ, not the first one found
  // over tolerance.
  ConstrainedMleProblem p;
  p.counts = {1, 1, 3, 1, 2, 2};
  p.groups = {{{0, 1}}, {{2, 3}}, {{4, 5}}};
  p.constraints = {{{{0, 1.0}}, 0.2},
                   {{{0, 1.0}}, 0.21},
                   {{{2, 0.5}, {4, 0.5}}, 0.3},
                   {{{3, 1.0}}, 0.9},
                   {{{5, 1.0}}, 0.05}};
  for (const int max_iterations : {1, 2, 7, 40}) {
    ConstrainedMleOptions options;
    options.max_iterations = max_iterations;
    auto sol = SolveConstrainedMle(p, options);
    ASSERT_TRUE(sol.ok());
    EXPECT_FALSE(sol->converged);
    double worst = 0;
    for (const LinearConstraint& c : p.constraints) {
      double got = 0;
      for (const auto& [v, coeff] : c.terms) got += coeff * sol->theta[v];
      worst = std::max(worst, std::abs(got - c.target) /
                                  std::max(1.0, std::abs(c.target)));
    }
    for (const SimplexGroup& g : p.groups) {
      double s = 0;
      for (size_t v : g.vars) s += sol->theta[v];
      worst = std::max(worst, std::abs(s - 1.0));
    }
    EXPECT_EQ(sol->max_violation, worst) << max_iterations << " iterations";
  }
}

TEST(ConstrainedMleTest, EmptyGroupBecomesUniform) {
  ConstrainedMleProblem p;
  p.counts = {0, 0, 0};
  p.groups = {{{0, 1, 2}}};
  ConstrainedMleOptions options;
  options.smoothing = 0;
  auto sol = SolveConstrainedMle(p, options);
  ASSERT_TRUE(sol.ok());
  for (int i = 0; i < 3; ++i) EXPECT_NEAR(sol->theta[i], 1.0 / 3, 1e-9);
}

TEST(ConstrainedMleTest, RejectsVariableInTwoGroups) {
  ConstrainedMleProblem p;
  p.counts = {1, 1};
  p.groups = {{{0, 1}}, {{1}}};
  EXPECT_FALSE(SolveConstrainedMle(p).ok());
}

TEST(ConstrainedMleTest, RejectsUncoveredVariable) {
  ConstrainedMleProblem p;
  p.counts = {1, 1};
  p.groups = {{{0}}};
  EXPECT_FALSE(SolveConstrainedMle(p).ok());
}

TEST(ConstrainedMleTest, RejectsNegativeInputs) {
  ConstrainedMleProblem p;
  p.counts = {-1, 1};
  p.groups = {{{0, 1}}};
  EXPECT_FALSE(SolveConstrainedMle(p).ok());
  p.counts = {1, 1};
  p.constraints = {{{{0, -2.0}}, 0.5}};
  EXPECT_FALSE(SolveConstrainedMle(p).ok());
}

TEST(ConstrainedMleTest, LogLikelihoodReported) {
  ConstrainedMleProblem p;
  p.counts = {2, 2};
  p.groups = {{{0, 1}}};
  ConstrainedMleOptions options;
  options.smoothing = 0;
  auto sol = SolveConstrainedMle(p, options);
  ASSERT_TRUE(sol.ok());
  EXPECT_NEAR(sol->log_likelihood, 4.0 * std::log(0.5), 1e-9);
}

/// Property sweep: random feasible problems converge with simplexes intact
/// and likelihood no better than the unconstrained optimum.
class ConstrainedMlePropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(ConstrainedMlePropertyTest, FeasibleProblemsConverge) {
  Rng rng(static_cast<uint64_t>(GetParam()) + 100);
  const size_t num_groups = 1 + static_cast<size_t>(rng.UniformInt(0, 3));
  const size_t group_size = 2 + static_cast<size_t>(rng.UniformInt(0, 3));
  ConstrainedMleProblem p;
  // Ground-truth distribution; constraints derived from it are feasible.
  std::vector<double> truth;
  for (size_t g = 0; g < num_groups; ++g) {
    SimplexGroup group;
    double total = 0;
    std::vector<double> row(group_size);
    for (size_t j = 0; j < group_size; ++j) {
      row[j] = 0.1 + rng.UniformDouble();
      total += row[j];
      group.vars.push_back(g * group_size + j);
      p.counts.push_back(std::floor(10 * rng.UniformDouble()));
    }
    for (double v : row) truth.push_back(v / total);
    p.groups.push_back(std::move(group));
  }
  // One cross-group constraint consistent with the ground truth.
  LinearConstraint c;
  double target = 0;
  for (size_t g = 0; g < num_groups; ++g) {
    const size_t var = g * group_size;
    const double coeff = 0.5 + rng.UniformDouble();
    c.terms.emplace_back(var, coeff);
    target += coeff * truth[var];
  }
  c.target = target;
  p.constraints.push_back(c);

  auto sol = SolveConstrainedMle(p);
  ASSERT_TRUE(sol.ok());
  EXPECT_TRUE(sol->converged) << "violation " << sol->max_violation;
  for (const auto& group : p.groups) {
    double s = 0;
    for (size_t v : group.vars) {
      EXPECT_GE(sol->theta[v], 0.0);
      s += sol->theta[v];
    }
    EXPECT_NEAR(s, 1.0, 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ConstrainedMlePropertyTest,
                         ::testing::Range(0, 10));

}  // namespace
}  // namespace themis::solver
