#include "reweight/incidence.h"

#include <algorithm>
#include <bit>
#include <numeric>
#include <unordered_set>

namespace themis::reweight {

namespace {

/// FNV-1a over the `dim` codes of a key; `code(i)` yields component i.
template <typename CodeAt>
uint64_t HashCodes(size_t dim, CodeAt code) {
  uint64_t h = 1469598103934665603ull;
  for (size_t i = 0; i < dim; ++i) {
    h ^= static_cast<uint32_t>(code(i));
    h *= 1099511628211ull;
  }
  return h;
}

/// Open-addressing index over the pairwise distinct keys of one pass. It
/// finds the group whose key equals a sample tuple's codes by hashing the
/// codes where they lie in the columns, so no tuple builds a TupleKey.
class PassIndex {
 public:
  PassIndex(const aggregate::AggregateSpec& spec, size_t first, size_t count)
      : dim_(spec.dimension()), count_(static_cast<uint32_t>(count)) {
    const size_t capacity = std::bit_ceil(std::max<size_t>(2, 2 * count));
    mask_ = capacity - 1;
    shift_ = 64 - std::countr_zero(capacity);
    slots_.assign(capacity, kEmpty);
    keys_.resize(count * dim_);
    for (uint32_t g = 0; g < count_; ++g) {
      const data::TupleKey& key = spec.groups[first + g].first;
      if (key.size() != dim_) continue;  // malformed: matches no tuple
      std::copy(key.begin(), key.end(), keys_.begin() + g * dim_);
      size_t slot = Slot(HashCodes(dim_, [&](size_t i) { return key[i]; }));
      while (slots_[slot] != kEmpty) slot = (slot + 1) & mask_;
      slots_[slot] = g;
    }
  }

  /// The group whose key is tuple t's codes in `columns` (one column per
  /// key component), or the group count when no group has that key.
  uint32_t Find(const std::vector<const data::ValueCode*>& columns,
                size_t t) const {
    const auto code = [&](size_t i) { return columns[i][t]; };
    for (size_t slot = Slot(HashCodes(dim_, code));;
         slot = (slot + 1) & mask_) {
      const uint32_t g = slots_[slot];
      if (g == kEmpty) return count_;
      const data::ValueCode* key = keys_.data() + g * dim_;
      size_t i = 0;
      while (i < dim_ && key[i] == code(i)) ++i;
      if (i == dim_) return g;
    }
  }

 private:
  static constexpr uint32_t kEmpty = UINT32_MAX;

  size_t Slot(uint64_t hash) const {
    return static_cast<size_t>((hash * 0x9E3779B97F4A7C15ull) >> shift_);
  }

  size_t dim_;
  uint32_t count_;
  size_t mask_;
  int shift_;
  std::vector<uint32_t> slots_;
  std::vector<data::ValueCode> keys_;  // group g's key at [g * dim_, ...)
};

}  // namespace

Result<IncidenceSystem> BuildIncidence(
    const data::Table& sample, const aggregate::AggregateSet& aggregates) {
  const size_t n = sample.num_rows();
  if (n > UINT32_MAX) {
    return Status::InvalidArgument(
        "incidence: the sample has more rows than 32-bit indices address");
  }
  IncidenceSystem sys;
  for (const aggregate::AggregateSpec& spec : aggregates.specs()) {
    if (spec.num_groups() >= INT32_MAX) {
      return Status::InvalidArgument(
          "incidence: an aggregate has 2^31 - 1 groups or more");
    }
    std::vector<const data::ValueCode*> columns;
    for (size_t attr : spec.attrs) columns.push_back(sample.column(attr).data());
    // Groups [first, last) of this aggregate become one pass.
    const size_t base = sys.y.size();
    const auto add_pass = [&](size_t first, size_t last) {
      const PassIndex index(spec, first, last - first);
      IncidencePass& pass = sys.passes.emplace_back();
      pass.first_row = base + first;
      pass.num_groups = last - first;
      pass.group_of.resize(n);
      for (size_t t = 0; t < n; ++t) pass.group_of[t] = index.Find(columns, t);
    };
    std::unordered_set<data::TupleKey, data::TupleKeyHash> keys;
    size_t first = 0;
    for (size_t gi = 0; gi < spec.num_groups(); ++gi) {
      const data::TupleKey& key = spec.groups[gi].first;
      if (keys.insert(key).second) continue;
      add_pass(first, gi);  // a repeated key starts the next pass
      keys = {key};
      first = gi;
    }
    if (spec.num_groups() > first) add_pass(first, spec.num_groups());
    for (const auto& [key, count] : spec.groups) sys.y.push_back(count);
  }

  // Counting sort of the tuples by constraint row: scanning tuples in
  // ascending order leaves every row's list ascending.
  std::vector<size_t> row_ptr(sys.y.size() + 1, 0);
  for (const IncidencePass& pass : sys.passes) {
    for (uint32_t g : pass.group_of) {
      if (g < pass.num_groups) ++row_ptr[pass.first_row + g + 1];
    }
  }
  std::partial_sum(row_ptr.begin(), row_ptr.end(), row_ptr.begin());
  std::vector<uint32_t> col_idx(row_ptr.back());
  std::vector<size_t> fill(row_ptr.begin(), row_ptr.end() - 1);
  for (const IncidencePass& pass : sys.passes) {
    for (uint32_t t = 0; t < n; ++t) {
      const uint32_t g = pass.group_of[t];
      if (g < pass.num_groups) col_idx[fill[pass.first_row + g]++] = t;
    }
  }
  sys.g = linalg::BinaryCsrMatrix(n, std::move(row_ptr), std::move(col_idx));
  return sys;
}

}  // namespace themis::reweight
