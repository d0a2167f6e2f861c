#include "core/model.h"

#include <algorithm>
#include <future>
#include <memory>

#include "aggregate/pruning.h"
#include "reweight/ipf.h"
#include "reweight/linreg.h"
#include "reweight/uniform.h"
#include "util/logging.h"
#include "util/timer.h"

namespace themis::core {

const char* ReweightMethodName(ReweightMethod method) {
  switch (method) {
    case ReweightMethod::kUniform:
      return "AQP";
    case ReweightMethod::kLinReg:
      return "LinReg";
    case ReweightMethod::kIpf:
      return "IPF";
  }
  return "?";
}

namespace {

/// Reweights `sample` in place with the configured method.
Status Reweight(const ThemisOptions& options,
                const aggregate::AggregateSet& aggregates,
                double population_size, data::Table& sample,
                BuildStats& stats) {
  switch (options.reweight) {
    case ReweightMethod::kUniform:
      return reweight::UniformReweighter().Reweight(sample, aggregates,
                                                    population_size);
    case ReweightMethod::kLinReg:
      return reweight::LinRegReweighter().Reweight(sample, aggregates,
                                                   population_size);
    case ReweightMethod::kIpf: {
      reweight::IpfReweighter rw(options.ipf);
      THEMIS_RETURN_IF_ERROR(
          rw.Reweight(sample, aggregates, population_size));
      stats.reweight_converged = rw.stats().converged;
      stats.reweight_iterations = rw.stats().iterations;
      stats.reweight_max_violation = rw.stats().max_violation;
      stats.reweight_empty_constraints = rw.stats().empty_constraints;
      stats.reweight_empty_mass = rw.stats().empty_mass;
      return Status::OK();
    }
  }
  return Status::OK();
}

}  // namespace

Result<ThemisModel> ThemisModel::Build(data::Table sample,
                                       aggregate::AggregateSet aggregates,
                                       const ThemisOptions& options,
                                       util::ThreadPool* pool) {
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("ThemisModel: empty sample");
  }
  Timer total_timer;
  ThemisModel model(std::move(sample), std::move(aggregates), options);

  // Population size: explicit, else the largest aggregate total, else nS
  // (nothing better is known without aggregates).
  model.population_size_ = options.population_size;
  if (model.population_size_ <= 0) {
    for (const auto& spec : model.aggregates_.specs()) {
      model.population_size_ =
          std::max(model.population_size_, spec.TotalCount());
    }
  }
  if (model.population_size_ <= 0) {
    model.population_size_ = static_cast<double>(model.sample_.num_rows());
  }

  // Aggregate pruning (Sec 5.1): keep all 1D aggregates; apply the t-cherry
  // budget to the multi-dimensional candidates.
  if (options.aggregate_budget > 0) {
    Timer prune_timer;
    std::vector<aggregate::AggregateSpec> multi;
    aggregate::AggregateSet pruned(model.aggregates_.schema());
    for (const auto& spec : model.aggregates_.specs()) {
      if (spec.dimension() <= 1) {
        pruned.Add(spec);
      } else {
        multi.push_back(spec);
      }
    }
    for (size_t idx : aggregate::SelectAggregatesTCherry(
             multi, options.aggregate_budget)) {
      pruned.Add(multi[idx]);
    }
    model.aggregates_ = std::move(pruned);
    model.build_stats_.prune_seconds = prune_timer.Seconds();
  }
  model.build_stats_.aggregates_used = model.aggregates_.size();

  // Probabilistic model learning + GROUP BY sample generation. The BN is
  // learned from the *raw* sample (unit weights): Eq. 2 maximizes the
  // likelihood of S itself, not of the reweighted sample. Nothing in it
  // waits for reweighting, so it runs as one pool task while this thread
  // reweights. The task writes only the BN members and stats, which this
  // thread leaves alone until the join below.
  std::unique_ptr<util::ThreadPool> owned_pool;
  std::future<Status> bn_done;
  if (options.enable_bn) {
    pool = util::ResolvePool(pool, options.num_threads, owned_pool);
    data::Table raw_sample = model.sample_.Clone();
    raw_sample.FillWeights(1.0);
    const size_t rows = options.bn_sample_rows > 0 ? options.bn_sample_rows
                                                   : model.sample_.num_rows();
    bn_done = pool->Submit([&model, &options, pool, rows,
                            raw = std::move(raw_sample)] {
      bn::BnLearnStats bn_stats;
      auto network = bn::LearnBayesNet(raw.schema(), &raw,
                                       &model.aggregates_, options.bn,
                                       &bn_stats);
      if (!network.ok()) return network.status();
      model.network_ =
          std::make_shared<bn::BayesianNetwork>(std::move(network).value());
      model.build_stats_.bn_structure_seconds = bn_stats.structure_seconds;
      model.build_stats_.bn_parameter_seconds = bn_stats.parameter_seconds;

      Timer generate_timer;
      model.bn_samples_ = model.network_->SampleTables(
          options.bn_group_by_samples, rows, model.population_size_,
          options.seed, *pool);
      model.build_stats_.generate_seconds = generate_timer.Seconds();
      return Status::OK();
    });
  }

  // The BN task refers to this frame, so it is joined before every exit,
  // an exception from the reweighter included.
  Timer reweight_timer;
  Status reweighted;
  try {
    reweighted = Reweight(options, model.aggregates_, model.population_size_,
                          model.sample_, model.build_stats_);
  } catch (...) {
    if (bn_done.valid()) pool->GetHelping(bn_done);
    throw;
  }
  model.build_stats_.reweight_seconds = reweight_timer.Seconds();
  const Status learned = bn_done.valid() ? pool->GetHelping(bn_done)
                                         : Status::OK();
  THEMIS_RETURN_IF_ERROR(reweighted);
  THEMIS_RETURN_IF_ERROR(learned);
  model.build_stats_.total_seconds = total_timer.Seconds();
  return model;
}

}  // namespace themis::core
