#include "stats/freq_table.h"

#include <algorithm>

#include "util/logging.h"

namespace themis::stats {

FreqTable FreqTable::FromTable(const data::Table& table,
                               const std::vector<size_t>& attrs) {
  FreqTable out(attrs);
  auto groups = table.GroupWeights(attrs);
  out.mass_ = std::move(groups);
  return out;
}

void FreqTable::Add(const data::TupleKey& key, double mass) {
  THEMIS_DCHECK(key.size() == attrs_.size());
  mass_[key] += mass;
}

double FreqTable::Mass(const data::TupleKey& key) const {
  auto it = mass_.find(key);
  return it == mass_.end() ? 0.0 : it->second;
}

double FreqTable::TotalMass() const {
  double s = 0;
  for (const auto& [k, v] : mass_) s += v;
  return s;
}

FreqTable FreqTable::Normalized() const {
  double total = TotalMass();
  THEMIS_CHECK(total > 0) << "cannot normalize empty distribution";
  FreqTable out(attrs_);
  for (const auto& [k, v] : mass_) out.mass_[k] = v / total;
  return out;
}

FreqTable FreqTable::MarginalizeTo(const std::vector<size_t>& keep) const {
  // Positions of kept attributes inside our keys.
  std::vector<size_t> positions;
  positions.reserve(keep.size());
  for (size_t attr : keep) {
    auto it = std::find(attrs_.begin(), attrs_.end(), attr);
    THEMIS_CHECK(it != attrs_.end())
        << "attribute " << attr << " not in this FreqTable";
    positions.push_back(static_cast<size_t>(it - attrs_.begin()));
  }
  FreqTable out(keep);
  data::TupleKey sub(positions.size());
  for (const auto& [key, v] : mass_) {
    for (size_t i = 0; i < positions.size(); ++i) sub[i] = key[positions[i]];
    out.mass_[sub] += v;
  }
  return out;
}

}  // namespace themis::stats
