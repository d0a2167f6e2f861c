#include "aggregate/aggregate.h"

#include <algorithm>
#include <limits>
#include <set>

#include "util/logging.h"
#include "util/string_util.h"

namespace themis::aggregate {

double AggregateSpec::TotalCount() const {
  double s = 0;
  for (const auto& [k, c] : groups) s += c;
  return s;
}

stats::FreqTable AggregateSpec::ToFreqTable() const {
  stats::FreqTable table(attrs);
  for (const auto& [k, c] : groups) table.Add(k, c);
  return table;
}

std::string AggregateSpec::Describe(const data::Schema& schema) const {
  std::vector<std::string> names;
  for (size_t a : attrs) names.push_back(schema.attribute_name(a));
  return StrFormat("agg(%s): %zu groups, total %.0f",
                   Join(names, ",").c_str(), groups.size(), TotalCount());
}

AggregateSpec ComputeAggregate(const data::Table& population,
                               std::vector<size_t> attrs) {
  std::sort(attrs.begin(), attrs.end());
  AggregateSpec spec;
  spec.attrs = attrs;
  auto groups = population.GroupWeights(attrs);
  spec.groups.reserve(groups.size());
  for (auto& [key, count] : groups) {
    spec.groups.emplace_back(key, count);
  }
  // Deterministic ordering for reproducibility.
  std::sort(spec.groups.begin(), spec.groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return spec;
}

void PerturbAggregate(AggregateSpec& agg, double sigma, Rng& rng) {
  // sigma 0 adds no noise, and N(0, 0) is not a valid distribution.
  if (sigma <= 0.0) return;
  for (auto& [key, count] : agg.groups) {
    count = std::max(0.0, count * (1.0 + rng.Normal(0.0, sigma)));
  }
}

std::vector<size_t> AggregateSet::CoveredAttributes() const {
  std::set<size_t> covered;
  for (const auto& spec : specs_) {
    covered.insert(spec.attrs.begin(), spec.attrs.end());
  }
  return {covered.begin(), covered.end()};
}

size_t AggregateSet::TotalGroups() const {
  size_t s = 0;
  for (const auto& spec : specs_) s += spec.num_groups();
  return s;
}

const AggregateSpec* AggregateSet::Find(
    const std::vector<size_t>& attrs) const {
  std::vector<size_t> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  for (const auto& spec : specs_) {
    if (spec.attrs == sorted) return &spec;
  }
  return nullptr;
}

bool AggregateSet::HasJointSupport(const std::vector<size_t>& attrs) const {
  if (attrs.empty()) return true;
  for (const auto& spec : specs_) {
    bool all = true;
    for (size_t a : attrs) {
      if (!std::binary_search(spec.attrs.begin(), spec.attrs.end(), a)) {
        all = false;
        break;
      }
    }
    if (all) return true;
  }
  return false;
}

Result<stats::FreqTable> AggregateSet::JointDistribution(
    const std::vector<size_t>& attrs) const {
  const AggregateSpec* best = nullptr;
  for (const auto& spec : specs_) {
    bool all = true;
    for (size_t a : attrs) {
      if (!std::binary_search(spec.attrs.begin(), spec.attrs.end(), a)) {
        all = false;
        break;
      }
    }
    if (all && (best == nullptr || spec.dimension() < best->dimension())) {
      best = &spec;
    }
  }
  if (best == nullptr) {
    return Status::NotFound(
        "no aggregate jointly supports the requested attributes");
  }
  std::vector<size_t> sorted = attrs;
  std::sort(sorted.begin(), sorted.end());
  return best->ToFreqTable().MarginalizeTo(sorted);
}

}  // namespace themis::aggregate
