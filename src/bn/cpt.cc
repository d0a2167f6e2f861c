#include "bn/cpt.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace themis::bn {

Cpt::Cpt(size_t child, size_t child_size, std::vector<size_t> parents,
         std::vector<size_t> parent_sizes)
    : child_(child),
      child_size_(child_size),
      parents_(std::move(parents)),
      parent_sizes_(std::move(parent_sizes)) {
  THEMIS_CHECK(child_size_ > 0);
  THEMIS_CHECK(parents_.size() == parent_sizes_.size());
  num_configs_ = 1;
  for (size_t s : parent_sizes_) {
    THEMIS_CHECK(s > 0);
    num_configs_ *= s;
  }
  probs_.assign(num_configs_ * child_size_, 0.0);
}

size_t Cpt::ConfigIndex(const data::TupleKey& parent_codes) const {
  THEMIS_DCHECK(parent_codes.size() == parents_.size());
  size_t idx = 0;
  for (size_t i = 0; i < parents_.size(); ++i) {
    THEMIS_DCHECK(parent_codes[i] >= 0 &&
                  static_cast<size_t>(parent_codes[i]) < parent_sizes_[i]);
    idx = idx * parent_sizes_[i] + static_cast<size_t>(parent_codes[i]);
  }
  return idx;
}

data::TupleKey Cpt::DecodeConfig(size_t config) const {
  data::TupleKey codes(parents_.size());
  for (size_t ii = 0; ii < parents_.size(); ++ii) {
    const size_t i = parents_.size() - 1 - ii;
    codes[i] = static_cast<data::ValueCode>(config % parent_sizes_[i]);
    config /= parent_sizes_[i];
  }
  return codes;
}

void Cpt::FillUniform() {
  const double p = 1.0 / static_cast<double>(child_size_);
  for (double& v : probs_) v = p;
}

void Cpt::NormalizeRows() {
  for (size_t cfg = 0; cfg < num_configs_; ++cfg) {
    double total = 0;
    for (size_t j = 0; j < child_size_; ++j) {
      total += probs_[cfg * child_size_ + j];
    }
    if (total <= 0) {
      for (size_t j = 0; j < child_size_; ++j) {
        probs_[cfg * child_size_ + j] =
            1.0 / static_cast<double>(child_size_);
      }
    } else {
      for (size_t j = 0; j < child_size_; ++j) {
        probs_[cfg * child_size_ + j] /= total;
      }
    }
  }
}

bool Cpt::RowsAreSimplexes(double tol) const {
  for (size_t cfg = 0; cfg < num_configs_; ++cfg) {
    double total = 0;
    for (size_t j = 0; j < child_size_; ++j) {
      const double p = probs_[cfg * child_size_ + j];
      if (p < -tol || !std::isfinite(p)) return false;
      total += p;
    }
    if (std::abs(total - 1.0) > tol) return false;
  }
  return true;
}

CptSampler::CptSampler(const Cpt& cpt)
    : child_size_(cpt.child_size()),
      cumulative_(cpt.flat().size()),
      guide_(cpt.flat().size()) {
  const size_t n = child_size_;
  for (size_t cfg = 0; cfg < cpt.num_configs(); ++cfg) {
    double* row = cumulative_.data() + cfg * n;
    double acc = 0;
    for (size_t j = 0; j < n; ++j) {
      acc += cpt.flat()[cfg * n + j];
      row[j] = acc;
    }
    // guide[slice]: the first value whose sum exceeds slice / n.
    size_t j = 0;
    for (size_t slice = 0; slice < n; ++slice) {
      const double start =
          static_cast<double>(slice) / static_cast<double>(n);
      while (j < n && row[j] <= start) ++j;
      guide_[cfg * n + slice] = static_cast<uint32_t>(j);
    }
  }
}

}  // namespace themis::bn
