#ifndef THEMIS_CORE_MODEL_H_
#define THEMIS_CORE_MODEL_H_

#include <memory>
#include <vector>

#include "aggregate/aggregate.h"
#include "bn/bayes_net.h"
#include "core/options.h"
#include "data/table.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::core {

/// Timing/diagnostic record of a model build, used by the Table 8 / Fig 16
/// benchmarks. Stage seconds are wall-clock spans. Reweighting runs on the
/// building thread while BN learning and sampling run on the pool, so those
/// spans overlap and the stage seconds can sum to more than total_seconds.
struct BuildStats {
  double prune_seconds = 0;
  double reweight_seconds = 0;
  double bn_structure_seconds = 0;
  double bn_parameter_seconds = 0;
  double generate_seconds = 0;
  double total_seconds = 0;
  bool reweight_converged = true;
  int reweight_iterations = 0;
  /// IPF's final max relative constraint violation, and the aggregate
  /// groups no sample tuple participates in with the sum of their targets
  /// (reweight::IpfStats); zero for the other reweighters.
  double reweight_max_violation = 0;
  size_t reweight_empty_constraints = 0;
  double reweight_empty_mass = 0;
  size_t aggregates_used = 0;
};

/// The model M(Γ, S) of Sec 4: a reweighted sample plus a Bayesian-network
/// approximation of the population distribution, built from a biased sample
/// and population aggregates. Queries are answered by the HybridEvaluator.
class ThemisModel {
 public:
  /// Runs the full build pipeline: infer |P| → prune Γ to the budget →
  /// reweight S, and alongside it learn the BN → pre-generate the K BN
  /// sample tables used for GROUP BY answering. The BN work runs on `pool`
  /// (resolved like util::ResolvePool with options.num_threads) while the
  /// calling thread reweights; the result is bitwise identical at any pool
  /// size.
  static Result<ThemisModel> Build(data::Table sample,
                                   aggregate::AggregateSet aggregates,
                                   const ThemisOptions& options = {},
                                   util::ThreadPool* pool = nullptr);

  const ThemisOptions& options() const { return options_; }
  double population_size() const { return population_size_; }

  /// The sample with learned weights (queried via SUM(weight)).
  const data::Table& reweighted_sample() const { return sample_; }

  /// The learned population model; null when options.enable_bn is false.
  const bn::BayesianNetwork* network() const { return network_.get(); }

  /// The K pre-generated, uniformly-scaled BN samples (empty if no BN).
  const std::vector<data::Table>& bn_samples() const { return bn_samples_; }

  /// The aggregates actually used after pruning.
  const aggregate::AggregateSet& aggregates() const { return aggregates_; }

  const BuildStats& build_stats() const { return build_stats_; }

 private:
  ThemisModel(data::Table sample, aggregate::AggregateSet aggregates,
              ThemisOptions options)
      : sample_(std::move(sample)),
        aggregates_(std::move(aggregates)),
        options_(std::move(options)) {}

  data::Table sample_;
  aggregate::AggregateSet aggregates_;
  ThemisOptions options_;
  double population_size_ = 0;
  std::shared_ptr<bn::BayesianNetwork> network_;
  std::vector<data::Table> bn_samples_;
  BuildStats build_stats_;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_MODEL_H_
