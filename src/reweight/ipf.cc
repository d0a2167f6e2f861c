#include "reweight/ipf.h"

#include <algorithm>
#include <cmath>

#include "reweight/incidence.h"
#include "simd/simd.h"
#include "util/logging.h"

namespace themis::reweight {

namespace {

/// Tuples that every pass puts in the same group (or all in none).
struct Cells {
  std::vector<uint32_t> cell_of;  ///< tuple t's cell
  size_t count = 0;
};

/// Splits the sample's tuples into cells. Weights start at 1.0 and a pass
/// multiplies each weight by its group's factor, so the tuples of a cell
/// hold the same bits throughout. Replaces every pass's group_of with one
/// mapping cells, not tuples, to groups.
Cells SplitIntoCells(IncidenceSystem& sys) {
  const size_t n = sys.g.cols();
  Cells cells{std::vector<uint32_t>(n, 0), 1};
  std::vector<uint32_t>& cell_of = cells.cell_of;
  // Each pass splits every cell by group: the tuples of one group are
  // visited together (G's row, then the tuples in no group), and the
  // first tuple of cell c seen in group j opens the new cell split[c].
  std::vector<uint32_t> seen_in, split;
  for (const IncidencePass& pass : sys.passes) {
    const auto none = static_cast<uint32_t>(pass.num_groups);
    seen_in.assign(cells.count, UINT32_MAX);
    split.resize(cells.count);
    uint32_t next = 0;
    const auto refine = [&](uint32_t t, uint32_t j) {
      const uint32_t c = cell_of[t];
      if (seen_in[c] != j) {
        seen_in[c] = j;
        split[c] = next++;
      }
      cell_of[t] = split[c];
    };
    for (uint32_t j = 0; j < none; ++j) {
      for (uint32_t t : sys.g.Row(pass.first_row + j)) refine(t, j);
    }
    for (uint32_t t = 0; t < n; ++t) {
      if (pass.group_of[t] == none) refine(t, none);
    }
    cells.count = next;
  }
  std::vector<uint32_t> member(cells.count);  // one tuple of each cell
  for (uint32_t t = 0; t < n; ++t) member[cell_of[t]] = t;
  for (IncidencePass& pass : sys.passes) {
    std::vector<uint32_t> group_of(cells.count);
    for (size_t c = 0; c < cells.count; ++c) {
      group_of[c] = pass.group_of[member[c]];
    }
    pass.group_of = std::move(group_of);
  }
  return cells;
}

}  // namespace

Status IpfReweighter::Reweight(data::Table& sample,
                               const aggregate::AggregateSet& aggregates,
                               double population_size) {
  stats_ = IpfStats{};
  const size_t n = sample.num_rows();
  if (n == 0) {
    return Status::InvalidArgument("IPF: empty sample");
  }
  sample.FillWeights(1.0);
  if (aggregates.empty()) {
    SumNormalize(sample, population_size);
    return Status::OK();
  }

  THEMIS_ASSIGN_OR_RETURN(IncidenceSystem sys,
                          BuildIncidence(sample, aggregates));
  // The sweeps run on one weight per cell: G's columns become cells, each
  // row still listing its tuples' cells in ascending tuple order, so every
  // sum adds the same values in the same order as over the tuples.
  const Cells cells = SplitIntoCells(sys);
  stats_.cells = cells.count;
  sys.g.RelabelColumns(cells.cell_of, cells.count);
  const linalg::BinaryCsrMatrix& g = sys.g;
  std::vector<double> w(cells.count, 1.0);

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
  std::vector<double>& weights = sample.mutable_weights();
  for (size_t t = 0; t < n; ++t) weights[t] = w[cells.cell_of[t]];
  return Status::OK();
}

}  // namespace themis::reweight
