#include "solver/constrained_mle.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace themis::solver {

namespace {

/// Validates the problem shape: every variable in exactly one group,
/// non-negative counts/coefficients, variable indices in range.
Status Validate(const ConstrainedMleProblem& p) {
  const size_t n = p.counts.size();
  std::vector<int> membership(n, 0);
  for (const auto& g : p.groups) {
    for (size_t v : g.vars) {
      if (v >= n) return Status::InvalidArgument("group variable out of range");
      ++membership[v];
    }
  }
  for (size_t v = 0; v < n; ++v) {
    if (membership[v] != 1) {
      return Status::InvalidArgument(
          "variable " + std::to_string(v) +
          " must appear in exactly one simplex group");
    }
    if (p.counts[v] < 0) {
      return Status::InvalidArgument("negative count");
    }
  }
  for (const auto& c : p.constraints) {
    if (c.target < 0) return Status::InvalidArgument("negative target");
    for (const auto& [v, coeff] : c.terms) {
      if (v >= n) return Status::InvalidArgument("constraint var out of range");
      if (coeff < 0) {
        return Status::InvalidArgument("negative constraint coefficient");
      }
    }
  }
  return Status::OK();
}

}  // namespace

Result<ConstrainedMleSolution> SolveConstrainedMle(
    const ConstrainedMleProblem& problem,
    const ConstrainedMleOptions& options) {
  THEMIS_RETURN_IF_ERROR(Validate(problem));
  const size_t n = problem.counts.size();
  ConstrainedMleSolution sol;
  sol.theta.assign(n, 0.0);

  // Initialize from the smoothed empirical distribution, per simplex group.
  for (const auto& g : problem.groups) {
    double total = 0;
    for (size_t v : g.vars) total += problem.counts[v] + options.smoothing;
    if (total <= 0) {
      // No data at all for this parent configuration: uniform.
      for (size_t v : g.vars) {
        sol.theta[v] = 1.0 / static_cast<double>(g.vars.size());
      }
    } else {
      for (size_t v : g.vars) {
        sol.theta[v] = (problem.counts[v] + options.smoothing) / total;
      }
    }
  }

  auto constraint_violation = [&](const LinearConstraint& c) {
    double got = 0;
    for (const auto& [v, coeff] : c.terms) got += coeff * sol.theta[v];
    return std::abs(got - c.target) / std::max(1.0, std::abs(c.target));
  };

  // The largest violation over constraints and simplexes. Unless `full`,
  // it stops at the first one over tolerance: that iteration has not
  // converged, and a later one overwrites max_violation.
  auto max_violation = [&](bool full) {
    double worst = 0;
    for (const auto& c : problem.constraints) {
      worst = std::max(worst, constraint_violation(c));
      if (!full && worst > options.tolerance) return worst;
    }
    for (const auto& g : problem.groups) {
      double s = 0;
      for (size_t v : g.vars) s += sol.theta[v];
      worst = std::max(worst, std::abs(s - 1.0));
      if (!full && worst > options.tolerance) return worst;
    }
    return worst;
  };

  for (int iter = 0; iter < options.max_iterations; ++iter) {
    // Scale each violated aggregate constraint's support uniformly; a
    // uniform multiplicative factor restores a homogeneous linear
    // constraint exactly.
    for (const auto& c : problem.constraints) {
      double got = 0;
      for (const auto& [v, coeff] : c.terms) got += coeff * sol.theta[v];
      if (got <= 0) {
        if (c.target <= 0) continue;
        // All mass on the support was lost (can happen with zero smoothing
        // and zero counts); seed uniformly so the constraint can act.
        for (const auto& [v, coeff] : c.terms) {
          if (coeff > 0) sol.theta[v] = 1e-12;
        }
        got = 0;
        for (const auto& [v, coeff] : c.terms) got += coeff * sol.theta[v];
        if (got <= 0) continue;
      }
      const double s = c.target / got;
      if (s == 1.0) continue;
      for (const auto& [v, coeff] : c.terms) {
        if (coeff > 0) sol.theta[v] *= s;
      }
    }
    // Re-normalize every simplex group.
    for (const auto& g : problem.groups) {
      double total = 0;
      for (size_t v : g.vars) total += sol.theta[v];
      if (total <= 0) {
        for (size_t v : g.vars) {
          sol.theta[v] = 1.0 / static_cast<double>(g.vars.size());
        }
      } else {
        for (size_t v : g.vars) sol.theta[v] /= total;
      }
    }
    sol.iterations = iter + 1;
    sol.max_violation = max_violation(iter + 1 == options.max_iterations);
    if (sol.max_violation <= options.tolerance) {
      sol.converged = true;
      break;
    }
  }

  sol.log_likelihood = 0;
  for (size_t v = 0; v < n; ++v) {
    if (problem.counts[v] > 0) {
      sol.log_likelihood +=
          problem.counts[v] * std::log(std::max(sol.theta[v], 1e-300));
    }
  }
  return sol;
}

}  // namespace themis::solver
