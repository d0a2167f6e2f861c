#include "util/random.h"

#include <algorithm>
#include <cmath>

namespace themis {

Mt19937_64::Mt19937_64(result_type seed) {
  state_[0] = seed;
  for (size_t i = 1; i < kStateSize; ++i) {
    const uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ull * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Twist() {
  constexpr size_t kShift = 156;  // the standard's m
  constexpr uint64_t kMatrix = 0xb5026f5aa96619e9ull;
  constexpr uint64_t kUpper = ~uint64_t{0} << 31;
  constexpr uint64_t kLower = ~kUpper;
  const auto mix = [](uint64_t upper, uint64_t lower, uint64_t far) {
    const uint64_t y = (upper & kUpper) | (lower & kLower);
    return far ^ (y >> 1) ^ (kMatrix & (0 - (y & 1)));
  };
  size_t i = 0;
  for (; i < kStateSize - kShift; ++i) {
    state_[i] = mix(state_[i], state_[i + 1], state_[i + kShift]);
  }
  for (; i < kStateSize - 1; ++i) {
    state_[i] =
        mix(state_[i], state_[i + 1], state_[i + kShift - kStateSize]);
  }
  state_[i] = mix(state_[i], state_[0], state_[kShift - 1]);
  next_ = 0;
}

void Mt19937_64::discard(unsigned long long z) {
  while (z > 0) {
    if (next_ == kStateSize) Twist();
    const size_t step = static_cast<size_t>(
        std::min<unsigned long long>(z, kStateSize - next_));
    next_ += step;
    z -= step;
  }
}

int64_t Rng::Zipf(int64_t n, double s) {
  THEMIS_DCHECK(n > 0);
  std::vector<double> weights(static_cast<size_t>(n));
  for (int64_t i = 0; i < n; ++i) {
    weights[static_cast<size_t>(i)] =
        1.0 / std::pow(static_cast<double>(i + 1), s);
  }
  return static_cast<int64_t>(Categorical(weights));
}

size_t Rng::Categorical(const std::vector<double>& weights) {
  THEMIS_DCHECK(!weights.empty());
  double total = 0;
  for (double w : weights) {
    THEMIS_DCHECK(w >= 0);
    total += w;
  }
  THEMIS_DCHECK(total > 0);
  double r = UniformDouble() * total;
  double acc = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (r < acc) return i;
  }
  return weights.size() - 1;
}

CategoricalSampler::CategoricalSampler(const std::vector<double>& weights) {
  THEMIS_CHECK(!weights.empty());
  cdf_.resize(weights.size());
  double total = 0;
  for (size_t i = 0; i < weights.size(); ++i) {
    THEMIS_CHECK(weights[i] >= 0);
    total += weights[i];
    cdf_[i] = total;
  }
  THEMIS_CHECK(total > 0);
  for (double& c : cdf_) c /= total;
  cdf_.back() = 1.0;
}

size_t CategoricalSampler::Sample(Rng& rng) const {
  double r = rng.UniformDouble();
  auto it = std::upper_bound(cdf_.begin(), cdf_.end(), r);
  if (it == cdf_.end()) return cdf_.size() - 1;
  return static_cast<size_t>(it - cdf_.begin());
}

}  // namespace themis
