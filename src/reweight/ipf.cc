#include "reweight/ipf.h"

#include <algorithm>
#include <cmath>

#include "reweight/incidence.h"
#include "simd/simd.h"
#include "util/logging.h"

namespace themis::reweight {

Status IpfReweighter::Reweight(data::Table& sample,
                               const aggregate::AggregateSet& aggregates,
                               double population_size) {
  stats_ = IpfStats{};
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("IPF: empty sample");
  }
  sample.FillWeights(1.0);
  if (aggregates.empty()) {
    SumNormalize(sample, population_size);
    return Status::OK();
  }

  THEMIS_ASSIGN_OR_RETURN(IncidenceSystem sys,
                          BuildIncidence(sample, aggregates));
  const linalg::BinaryCsrMatrix& g = sys.g;
  std::vector<double>& w = sample.mutable_weights();

  // Each pass's non-empty rows, longest first, so RowDots starts the
  // longest add chain at once and runs the others beside it. The passes
  // cover every row in order, so the empty ones are counted here too.
  std::vector<std::vector<uint32_t>> order(sys.passes.size());
  for (size_t p = 0; p < sys.passes.size(); ++p) {
    const IncidencePass& pass = sys.passes[p];
    for (size_t j = pass.first_row; j < pass.first_row + pass.num_groups;
         ++j) {
      if (!g.Row(j).empty()) {
        order[p].push_back(static_cast<uint32_t>(j));
        continue;
      }
      ++stats_.empty_constraints;
      stats_.empty_mass += sys.y[j];
    }
    std::stable_sort(order[p].begin(), order[p].end(),
                     [&](uint32_t a, uint32_t b) {
                       return g.Row(a).size() > g.Row(b).size();
                     });
  }

  // got[j] = G0/1[j] · w; an empty row's stays 0. The sums of passes
  // [0, fresh) still hold for the current weights: the convergence test
  // computed them and no pass has rescaled since.
  std::vector<double> got(g.rows(), 0.0);
  size_t fresh = 0;

  // The largest relative violation over the non-empty constraints. Unless
  // `full`, it stops after the first pass holding one over tolerance: that
  // sweep has not converged, and a later sweep overwrites max_violation.
  const auto max_relative_violation = [&](bool full) {
    double worst = 0;
    fresh = 0;
    for (size_t p = 0; p < sys.passes.size(); ++p) {
      g.RowDots(order[p], w, got.data());
      fresh = p + 1;
      for (uint32_t j : order[p]) {
        const double want = sys.y[j];
        worst = std::max(worst, std::abs(got[j] - want) /
                                    std::max(1.0, std::abs(want)));
      }
      if (!full && worst > options_.tolerance) break;
    }
    return worst;
  };

  const simd::Kernels& kernels = simd::KernelsFor(simd::FromEnv());
  std::vector<double> scale;
  for (int iter = 0; iter < options_.max_iterations; ++iter) {
    for (size_t p = 0; p < sys.passes.size(); ++p) {
      const IncidencePass& pass = sys.passes[p];
      if (p >= fresh) g.RowDots(order[p], w, got.data());
      // Alg 1 skips a group whose sum already meets its target and one
      // whose weights were driven to zero (an empty group's sum is 0);
      // their factor, like that of tuples in no group, is an exact 1.0.
      scale.assign(pass.num_groups + 1, 1.0);
      bool moved = false;
      for (uint32_t j : order[p]) {
        const double want = sys.y[j];
        if (got[j] == want || got[j] <= 0.0) continue;
        scale[j - pass.first_row] = want / got[j];
        moved = true;
      }
      if (!moved) continue;
      kernels.ScaleByIndex(scale.data(), pass.group_of.data(), w.size(),
                           w.data());
      fresh = 0;
    }
    stats_.iterations = iter + 1;
    const bool last = iter + 1 == options_.max_iterations;
    const double worst = max_relative_violation(last);
    if (worst <= options_.tolerance) {
      stats_.converged = true;
      stats_.max_violation = worst;
      break;
    }
    if (last) stats_.max_violation = worst;
  }
  return Status::OK();
}

}  // namespace themis::reweight
