#ifndef THEMIS_BN_INFERENCE_ENGINE_H_
#define THEMIS_BN_INFERENCE_ENGINE_H_

#include <atomic>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "bn/inference.h"
#include "util/lru_cache.h"

namespace themis::bn {

/// Snapshot of the engine's memoization counters.
struct InferenceCacheStats {
  size_t hits = 0;
  size_t misses = 0;
  size_t evictions = 0;
  size_t entries = 0;

  double HitRate() const {
    const size_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
};

/// The unified inference entry point: wraps VariableElimination with a
/// thread-safe LRU memo table of computed probabilities and marginals,
/// keyed by (sorted target set, canonicalized evidence). Every
/// query-path caller goes through an engine, so repeated and batched
/// queries reuse prior computation across queries — the serving-side
/// analogue of the paper's Table 6 reuse experiment.
///
/// Marginals are always *computed* over the sorted target set and
/// reordered to the requested order on the way out, so answers are
/// bitwise identical whether the cache is enabled or not.
class InferenceEngine {
 public:
  struct Options {
    bool enable_cache = true;
    /// Maximum number of memoized results; 0 means unbounded.
    size_t cache_capacity = 4096;
  };

  explicit InferenceEngine(const BayesianNetwork* network);
  InferenceEngine(const BayesianNetwork* network, Options options);

  const BayesianNetwork* network() const { return network_; }

  /// Pr(evidence): probability that a population tuple takes exactly the
  /// listed values on the listed attributes. Memoized.
  Result<double> Probability(const Evidence& evidence) const;

  /// Normalized joint over `targets`, optionally given `evidence`.
  /// Memoized on the canonical (sorted-target) form.
  Result<stats::FreqTable> Marginal(const std::vector<size_t>& targets) const;
  Result<stats::FreqTable> Marginal(const std::vector<size_t>& targets,
                                    const Evidence& evidence) const;

  bool cache_enabled() const;
  void set_cache_enabled(bool enabled);

  /// Drops every memoized entry and resets the counters.
  void ClearCache();

  InferenceCacheStats cache_stats() const;

 private:
  struct CacheValue {
    double probability = 0;
    std::shared_ptr<const stats::FreqTable> marginal;  // null for P-entries
  };

  const BayesianNetwork* network_;
  VariableElimination ve_;
  /// Atomic so the hot paths snapshot it without taking mu_; a toggle
  /// racing an in-flight call at worst stores into (or skips) the cache
  /// once, which ClearCache() tidies up.
  mutable std::atomic<bool> cache_enabled_;
  mutable std::mutex mu_;
  mutable LruCache<std::string, CacheValue> cache_;
  mutable size_t hits_ = 0;
  mutable size_t misses_ = 0;
};

}  // namespace themis::bn

#endif  // THEMIS_BN_INFERENCE_ENGINE_H_
