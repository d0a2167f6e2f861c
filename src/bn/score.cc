#include "bn/score.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace themis::bn {

bool SampleScoreSource::HasSupport(const std::vector<size_t>&) const {
  return true;
}

Result<stats::FreqTable> SampleScoreSource::JointCounts(
    const std::vector<size_t>& attrs) const {
  std::vector<size_t> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  return stats::FreqTable::FromTable(*sample_, sorted);
}

double SampleScoreSource::total() const {
  return sample_->TotalWeight();
}

bool AggregateScoreSource::HasSupport(
    const std::vector<size_t>& attrs) const {
  return aggregates_->HasJointSupport(attrs);
}

Result<stats::FreqTable> AggregateScoreSource::JointCounts(
    const std::vector<size_t>& attrs) const {
  return aggregates_->JointDistribution(attrs);
}

double AggregateScoreSource::total() const {
  double best = 0;
  for (const auto& spec : aggregates_->specs()) {
    best = std::max(best, spec.TotalCount());
  }
  return best;
}

Result<stats::FreqTable> FamilyJointCounts(
    const ScoreSource& source, size_t child,
    const std::vector<size_t>& parents) {
  std::vector<size_t> family = parents;
  family.push_back(child);
  std::sort(family.begin(), family.end());
  if (!source.HasSupport(family)) {
    return Status::NotFound("family lacks support in the score source");
  }
  return source.JointCounts(family);
}

Result<double> FamilyBicScore(const ScoreSource& source,
                              const data::Schema& schema, size_t child,
                              const std::vector<size_t>& parents) {
  THEMIS_ASSIGN_OR_RETURN(stats::FreqTable joint,
                          FamilyJointCounts(source, child, parents));
  return FamilyBicScore(joint, source.total(), schema, child, parents);
}

Result<double> FamilyBicScore(const stats::FreqTable& joint, double n,
                              const data::Schema& schema, size_t child,
                              const std::vector<size_t>& parents) {
  const std::vector<size_t>& family = joint.attrs();
  const double joint_total = joint.TotalMass();
  if (joint_total <= 0) {
    return Status::FailedPrecondition("empty family statistics");
  }
  // Scale the joint to N observations (aggregate marginals may carry a
  // different total than the designated N).
  const double scale = n / joint_total;

  // Maximized log-likelihood: sum over (j, k) of N_jk log(N_jk / N_k).
  double ll = 0;
  if (parents.empty()) {
    for (const auto& [key, c] : joint.entries()) {
      if (c <= 0) continue;
      const double njk = c * scale;
      ll += njk * std::log(njk / n);
    }
  } else {
    std::vector<size_t> sorted_parents = parents;
    std::sort(sorted_parents.begin(), sorted_parents.end());
    // Position of the parent attributes within the family key.
    std::vector<size_t> ppos;
    for (size_t p : sorted_parents) {
      auto it = std::find(family.begin(), family.end(), p);
      ppos.push_back(static_cast<size_t>(it - family.begin()));
    }
    const stats::FreqTable parent_marginal =
        joint.MarginalizeTo(sorted_parents);
    data::TupleKey pkey(ppos.size());
    for (const auto& [key, c] : joint.entries()) {
      if (c <= 0) continue;
      for (size_t i = 0; i < ppos.size(); ++i) pkey[i] = key[ppos[i]];
      const double nk = parent_marginal.Mass(pkey) * scale;
      const double njk = c * scale;
      ll += njk * std::log(njk / nk);
    }
  }

  // Complexity penalty over the *full* domain sizes: q_i (r_i - 1).
  double q = 1;
  for (size_t p : parents) q *= static_cast<double>(schema.domain(p).size());
  const double params =
      q * (static_cast<double>(schema.domain(child).size()) - 1.0);
  return ll - 0.5 * std::log(std::max(n, 2.0)) * params;
}

}  // namespace themis::bn
