#include "bn/inference_engine.h"

#include <algorithm>
#include <utility>

namespace themis::bn {

namespace {

/// Canonical evidence rendering: "a=v" pairs sorted by attribute index.
void AppendEvidence(const Evidence& evidence, std::string* key) {
  std::vector<std::pair<size_t, data::ValueCode>> sorted(evidence.begin(),
                                                         evidence.end());
  std::sort(sorted.begin(), sorted.end());
  for (const auto& [attr, code] : sorted) {
    key->append(std::to_string(attr));
    key->push_back('=');
    key->append(std::to_string(code));
    key->push_back(',');
  }
}

std::string ProbabilityKey(const Evidence& evidence) {
  std::string key = "P|";
  AppendEvidence(evidence, &key);
  return key;
}

std::string MarginalKey(const std::vector<size_t>& sorted_targets,
                        const Evidence& evidence) {
  std::string key = "M|";
  for (size_t t : sorted_targets) {
    key.append(std::to_string(t));
    key.push_back(',');
  }
  key.push_back('|');
  AppendEvidence(evidence, &key);
  return key;
}

/// Reorders a table computed over sorted targets into the requested
/// target order (values untouched, keys permuted).
stats::FreqTable ReorderTo(const stats::FreqTable& table,
                           const std::vector<size_t>& targets) {
  if (table.attrs() == targets) return table;
  std::vector<size_t> pos(targets.size());
  for (size_t i = 0; i < targets.size(); ++i) {
    pos[i] = static_cast<size_t>(
        std::find(table.attrs().begin(), table.attrs().end(), targets[i]) -
        table.attrs().begin());
  }
  stats::FreqTable out(targets);
  for (const auto& [key, mass] : table.entries()) {
    data::TupleKey reordered(targets.size());
    for (size_t i = 0; i < targets.size(); ++i) reordered[i] = key[pos[i]];
    out.Add(reordered, mass);
  }
  return out;
}

}  // namespace

InferenceEngine::InferenceEngine(const BayesianNetwork* network)
    : InferenceEngine(network, Options()) {}

InferenceEngine::InferenceEngine(const BayesianNetwork* network,
                                 Options options)
    : network_(network),
      ve_(network),
      cache_enabled_(options.enable_cache),
      cache_(options.cache_capacity) {}

bool InferenceEngine::cache_enabled() const {
  return cache_enabled_.load(std::memory_order_relaxed);
}

void InferenceEngine::set_cache_enabled(bool enabled) {
  cache_enabled_.store(enabled, std::memory_order_relaxed);
}

void InferenceEngine::ClearCache() {
  std::lock_guard<std::mutex> lock(mu_);
  cache_.Clear();
  hits_ = 0;
  misses_ = 0;
}

InferenceCacheStats InferenceEngine::cache_stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  InferenceCacheStats stats;
  stats.hits = hits_;
  stats.misses = misses_;
  stats.evictions = cache_.evictions();
  stats.entries = cache_.size();
  return stats;
}

Result<double> InferenceEngine::Probability(const Evidence& evidence) const {
  const bool enabled = cache_enabled();
  std::string key;
  if (enabled) {
    key = ProbabilityKey(evidence);  // pure; built outside the lock
    std::lock_guard<std::mutex> lock(mu_);
    if (auto cached = cache_.Get(key)) {
      ++hits_;
      return cached->probability;
    }
    ++misses_;
  }
  THEMIS_ASSIGN_OR_RETURN(double p, ve_.Probability(evidence));
  if (enabled) {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Put(key, CacheValue{p, nullptr});
  }
  return p;
}

Result<stats::FreqTable> InferenceEngine::Marginal(
    const std::vector<size_t>& targets) const {
  return Marginal(targets, Evidence{});
}

Result<stats::FreqTable> InferenceEngine::Marginal(
    const std::vector<size_t>& targets, const Evidence& evidence) const {
  std::vector<size_t> sorted = targets;
  std::sort(sorted.begin(), sorted.end());

  const bool enabled = cache_enabled();
  std::string key;
  if (enabled) {
    key = MarginalKey(sorted, evidence);
    std::shared_ptr<const stats::FreqTable> hit;
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (auto cached = cache_.Get(key)) {
        ++hits_;
        hit = cached->marginal;
      } else {
        ++misses_;
      }
    }
    // Reorder outside the lock: the entry is immutable once published.
    if (hit != nullptr) return ReorderTo(*hit, targets);
  }
  // Compute over the canonical order even when the cache is off so both
  // configurations take the identical arithmetic path.
  THEMIS_ASSIGN_OR_RETURN(stats::FreqTable table,
                          ve_.Marginal(sorted, evidence));
  if (!enabled) return ReorderTo(table, targets);
  auto shared = std::make_shared<const stats::FreqTable>(std::move(table));
  {
    std::lock_guard<std::mutex> lock(mu_);
    cache_.Put(key, CacheValue{0.0, shared});
  }
  return ReorderTo(*shared, targets);
}

}  // namespace themis::bn
