#include "replay.h"

#include <algorithm>
#include <cstring>

#include "aggregate/aggregate_io.h"
#include "aggregate/pruning.h"
#include "bn/inference.h"
#include "bn/learn.h"
#include "data/csv.h"
#include "reweight/ipf.h"
#include "server/wire.h"
#include "sql/parser.h"
#include "util/cancel.h"
#include "util/timer.h"

namespace themis::perfbench {
namespace {

/// Times one call into a layer; a null `totals` turns it into a no-op so
/// the untraced replay runs the identical call sequence.
class ScopedSpan {
 public:
  ScopedSpan(ReplayTotals* totals, Span span)
      : totals_(totals),
        span_(span),
        begin_ns_(totals == nullptr ? 0 : util::SteadyNowNs()) {}
  ~ScopedSpan() { Stop(); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Ends the span early; returns its duration.
  int64_t Stop() {
    if (totals_ == nullptr || begin_ns_ < 0) return 0;
    const int64_t ns = util::SteadyNowNs() - begin_ns_;
    totals_->span_ns[static_cast<size_t>(span_)] += ns;
    begin_ns_ = -1;
    return ns;
  }

 private:
  ReplayTotals* totals_;
  Span span_;
  int64_t begin_ns_;
};

bool IsTopLevel(Span span) {
  switch (span) {
    case Span::kDecode:
    case Span::kCacheProbe:
    case Span::kRoute:
    case Span::kPlan:
    case Span::kExecute:
    case Span::kEncode:
      return true;
    default:
      return false;
  }
}

bool SameBits(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

bool SameTable(const data::Table& a, const data::Table& b) {
  if (a.num_rows() != b.num_rows() ||
      a.num_attributes() != b.num_attributes() ||
      !SameBits(a.weights(), b.weights())) {
    return false;
  }
  for (size_t attr = 0; attr < a.num_attributes(); ++attr) {
    if (a.column(attr) != b.column(attr)) return false;
  }
  return true;
}

bool SameNetwork(const bn::BayesianNetwork& a, const bn::BayesianNetwork& b) {
  if (a.num_nodes() != b.num_nodes()) return false;
  for (size_t node = 0; node < a.num_nodes(); ++node) {
    if (a.dag().Parents(node) != b.dag().Parents(node) ||
        !SameBits(a.cpt(node).flat(), b.cpt(node).flat())) {
      return false;
    }
  }
  return true;
}

}  // namespace

ReplayState::ReplayState(const core::Catalog* catalog, const Dataset* data)
    : catalog_(catalog),
      cache_(std::make_unique<server::ResponseCache>(
          catalog->options().response_cache_bytes)) {
  for (const RelationData& data_relation : data->relations) {
    const std::string& name = data_relation.name;
    const core::ThemisModel* model = catalog_->model(name);
    Relation& relation = relations_[name];
    relation.evaluator = std::make_unique<core::HybridEvaluator>(
        model, name, catalog_->pool(), name);
    relation.sample_executor.RegisterTable(name, &model->reweighted_sample());
    for (const data::Table& table : model->bn_samples()) {
      sql::Executor executor;
      executor.RegisterTable(name, &table);
      relation.bn_executors.push_back(std::move(executor));
    }
  }
}

Result<std::string> ReplayState::Answer(const std::string& line,
                                        ReplayTotals* totals) {
  const bool traced = totals != nullptr;
  const int64_t begin_ns = traced ? util::SteadyNowNs() : 0;
  int64_t top_level_ns = 0;
  auto close = [&](ScopedSpan& span, Span kind) {
    const int64_t ns = span.Stop();
    if (IsTopLevel(kind)) top_level_ns += ns;
    return ns;
  };
  auto finish = [&] {
    if (!traced) return;
    const int64_t ns = util::SteadyNowNs() - begin_ns;
    totals->request_ns += ns;
    totals->unaccounted_ns += ns - top_level_ns;
    ++totals->requests;
  };

  ScopedSpan decode(totals, Span::kDecode);
  auto request = server::ParseRequest(line);
  close(decode, Span::kDecode);
  THEMIS_RETURN_IF_ERROR(request.status());
  const char* mode_name = server::AnswerModeWireName(request->mode);

  ScopedSpan probe(totals, Span::kCacheProbe);
  std::string probe_key = request->relation + '\x1f' + mode_name + '\x1f' +
                          request->sql;
  util::ImmutableBuffer hit = cache_->Lookup(probe_key);
  close(probe, Span::kCacheProbe);
  if (hit) {
    if (traced) ++totals->cache_hits;
    std::string bytes = hit.str();
    finish();
    return bytes;
  }

  ScopedSpan route(totals, Span::kRoute);
  auto routed = catalog_->Route(request->sql);
  close(route, Span::kRoute);
  THEMIS_RETURN_IF_ERROR(routed.status());
  Relation& relation = relations_.at(*routed);
  const core::HybridEvaluator& evaluator = *relation.evaluator;

  const size_t plan_misses = evaluator.planner().cache_misses();
  ScopedSpan plan_span(totals, Span::kPlan);
  auto plan = evaluator.Plan(request->sql);
  close(plan_span, Span::kPlan);
  THEMIS_RETURN_IF_ERROR(plan.status());
  const bool plan_missed = evaluator.planner().cache_misses() != plan_misses;

  ScopedSpan generation_span(totals, Span::kCacheProbe);
  const uint64_t generation = cache_->Generation(*routed);
  close(generation_span, Span::kCacheProbe);
  const std::string& fingerprint = (*plan)->fingerprint;
  const std::string full_key = *routed + '\x1f' + std::to_string(generation) +
                               '\x1f' + mode_name + '\x1f' + fingerprint;

  const core::QueryPlan& p = **plan;
  const core::ThemisModel* model = catalog_->model(*routed);
  const bool has_bn =
      model->network() != nullptr && !model->bn_samples().empty();
  const bool point_rule = p.kind == core::PlanKind::kPoint && has_bn &&
                          request->mode == core::AnswerMode::kHybrid;
  const size_t memo_misses =
      traced ? evaluator.result_memo_stats().misses : 0;

  sql::QueryResult result;
  ScopedSpan execute(totals, Span::kExecute);
  int64_t children_ns = 0;
  if (point_rule) {
    // The Sec 4.3 point rule, called layer by layer exactly as
    // HybridEvaluator::ExecutePlan composes it.
    double estimate = 0;
    if (!p.out_of_domain) {
      ScopedSpan lookup(totals, Span::kSampleLookup);
      if (evaluator.SampleContains(p.point_attrs, p.point_values)) {
        auto mass = evaluator.PointEstimate(p.point_attrs, p.point_values,
                                            core::AnswerMode::kSampleOnly);
        children_ns += lookup.Stop();
        THEMIS_RETURN_IF_ERROR(mass.status());
        estimate = *mass;
      } else {
        children_ns += lookup.Stop();
        ScopedSpan infer(totals, Span::kInfer);
        bn::Evidence evidence;
        for (size_t i = 0; i < p.point_attrs.size(); ++i) {
          evidence[p.point_attrs[i]] = p.point_values[i];
        }
        auto probability =
            evaluator.inference_engine()->Probability(evidence);
        children_ns += infer.Stop();
        THEMIS_RETURN_IF_ERROR(probability.status());
        estimate = model->population_size() * *probability;
        if (traced) ++totals->points_from_bn;
      }
    }
    result.value_names = {"count"};
    result.rows.push_back({{}, {estimate}});
    if (traced) ++totals->points_executed;
  } else {
    auto executed = evaluator.ExecutePlan(p, request->mode);
    THEMIS_RETURN_IF_ERROR(executed.status());
    result = std::move(executed).value();
  }
  const int64_t execute_ns = close(execute, Span::kExecute);
  const bool scanned =
      !point_rule && traced &&
      evaluator.result_memo_stats().misses != memo_misses;

  ScopedSpan encode(totals, Span::kEncode);
  std::string bytes;
  util::ImmutableBuffer cached =
      fingerprint.empty() ? util::ImmutableBuffer() : cache_->LookupFull(full_key);
  if (cached) {
    bytes = cached.str();
  } else {
    server::EncodeResultResponseTo(result, &bytes);
    if (traced) ++totals->encodes;
    if (!fingerprint.empty()) {
      cache_->Admit(probe_key, full_key, *routed, generation,
                    util::ImmutableBuffer(std::string(bytes)));
    }
  }
  close(encode, Span::kEncode);
  finish();
  if (!traced) return bytes;

  // Children measured after the request's clock stopped: the parse a
  // plan-cache miss ran inside Plan, and the scans an executed GROUP BY
  // ran inside ExecutePlan, re-run through identical calls.
  if (plan_missed) {
    ScopedSpan parse(totals, Span::kParse);
    THEMIS_RETURN_IF_ERROR(sql::Parse(request->sql).status());
  }
  if (scanned) {
    const size_t shard_rows = model->options().shard_rows > 0
                                  ? model->options().shard_rows
                                  : sql::ShardRowsEnvOverride();
    util::ThreadPool* pool = catalog_->pool();
    {
      ScopedSpan scan(totals, Span::kScanSample);
      THEMIS_RETURN_IF_ERROR(
          relation.sample_executor.Execute(p.stmt, pool, shard_rows).status());
      children_ns += scan.Stop();
    }
    {
      ScopedSpan scan(totals, Span::kScanBn);
      std::vector<Status> statuses(relation.bn_executors.size());
      pool->ParallelFor(0, relation.bn_executors.size(), [&](size_t k) {
        statuses[k] =
            relation.bn_executors[k].Execute(p.stmt, pool, shard_rows).status();
      });
      for (const Status& status : statuses) THEMIS_RETURN_IF_ERROR(status);
      children_ns += scan.Stop();
    }
  }
  totals->execute_self_ns += execute_ns - children_ns;
  return bytes;
}

Result<BuildReplica> ReplicateBuild(const RelationData& relation,
                                    const core::ThemisModel& model) {
  const core::ThemisOptions& options = model.options();
  BuildReplica replica;
  Timer timer;
  THEMIS_ASSIGN_OR_RETURN(data::Table sample,
                          data::ReadCsv(relation.sample_csv));
  replica.read_csv_s = timer.Seconds();
  replica.rows = sample.num_rows();

  timer.Restart();
  aggregate::AggregateSet published(sample.schema());
  for (const std::string& path : relation.aggregate_csvs) {
    THEMIS_ASSIGN_OR_RETURN(aggregate::AggregateSpec spec,
                            aggregate::ReadAggregateCsv(*sample.schema(), path));
    published.Add(std::move(spec));
  }
  replica.read_aggregates_s = timer.Seconds();

  double population_size = options.population_size;
  if (population_size <= 0) {
    for (const auto& spec : published.specs()) {
      population_size = std::max(population_size, spec.TotalCount());
    }
  }
  if (population_size <= 0) {
    population_size = static_cast<double>(sample.num_rows());
  }

  aggregate::AggregateSet used = published;
  if (options.aggregate_budget > 0) {
    std::vector<aggregate::AggregateSpec> multi;
    aggregate::AggregateSet pruned(published.schema());
    for (const auto& spec : published.specs()) {
      if (spec.dimension() <= 1) {
        pruned.Add(spec);
      } else {
        multi.push_back(spec);
      }
    }
    timer.Restart();
    const std::vector<size_t> selected =
        aggregate::SelectAggregatesTCherry(multi, options.aggregate_budget);
    replica.prune_s = timer.Seconds();
    replica.offered = multi.size();
    replica.kept = selected.size();
    for (size_t index : selected) pruned.Add(multi[index]);
    used = std::move(pruned);
  }

  if (options.reweight != core::ReweightMethod::kIpf || !options.enable_bn) {
    return Status::FailedPrecondition(
        "build replica covers the IPF + BN configuration only");
  }
  timer.Restart();
  reweight::IpfReweighter ipf(options.ipf);
  THEMIS_RETURN_IF_ERROR(ipf.Reweight(sample, used, population_size));
  replica.ipf_s = timer.Seconds();
  replica.ipf_iterations = ipf.stats().iterations;
  replica.ipf_converged = ipf.stats().converged;
  replica.ipf_max_violation = ipf.stats().max_violation;

  data::Table raw_sample = sample.Clone();
  raw_sample.FillWeights(1.0);
  bn::BnLearnStats bn_stats;
  timer.Restart();
  THEMIS_ASSIGN_OR_RETURN(
      bn::BayesianNetwork network,
      bn::LearnBayesNet(sample.schema(), &raw_sample, &used, options.bn,
                        &bn_stats));
  replica.learn_s = timer.Seconds();
  replica.structure_s = bn_stats.structure_seconds;
  replica.parameter_s = bn_stats.parameter_seconds;
  for (size_t node = 0; node < network.num_nodes(); ++node) {
    replica.edges += network.dag().Parents(node).size();
  }

  timer.Restart();
  const size_t rows = options.bn_sample_rows > 0 ? options.bn_sample_rows
                                                 : sample.num_rows();
  Rng rng(options.seed);
  std::vector<data::Table> bn_samples;
  for (size_t k = 0; k < options.bn_group_by_samples; ++k) {
    bn_samples.push_back(network.SampleTable(rows, population_size, rng));
  }
  replica.sample_s = timer.Seconds();

  const std::string who = "build replica of '" + relation.name + "': ";
  if (!SameTable(sample, model.reweighted_sample())) {
    return Status::Internal(who + "weights differ from the catalog model");
  }
  if (model.network() == nullptr || !SameNetwork(network, *model.network())) {
    return Status::Internal(who + "network differs from the catalog model");
  }
  if (bn_samples.size() != model.bn_samples().size()) {
    return Status::Internal(who + "BN sample count differs");
  }
  for (size_t k = 0; k < bn_samples.size(); ++k) {
    if (!SameTable(bn_samples[k], model.bn_samples()[k])) {
      return Status::Internal(who + "BN sample " + std::to_string(k) +
                              " differs from the catalog model");
    }
  }
  const core::BuildStats& stats = model.build_stats();
  if (stats.aggregates_used != used.size() ||
      stats.reweight_iterations != replica.ipf_iterations ||
      stats.reweight_converged != replica.ipf_converged) {
    return Status::Internal(who + "counts differ from core::BuildStats");
  }
  return replica;
}

}  // namespace themis::perfbench
