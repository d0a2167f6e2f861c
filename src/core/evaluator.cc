#include "core/evaluator.h"

#include <string_view>
#include <unordered_set>
#include <utility>

#include "util/logging.h"

namespace themis::core {

HybridEvaluator::HybridEvaluator(const ThemisModel* model,
                                 std::string table_name,
                                 util::ThreadPool* pool,
                                 std::string relation)
    : model_(model),
      table_name_(std::move(table_name)),
      relation_(std::move(relation)) {
  THEMIS_CHECK(model_ != nullptr);
  if (relation_.empty()) relation_ = table_name_;
  const data::Table& sample = model_->reweighted_sample();
  indexes_.reserve(1 + model_->bn_samples().size());
  indexes_.emplace_back(&sample);
  sample_executor_.RegisterTable(table_name_, &sample, &indexes_[0]);
  std::vector<sql::TableSource> worlds;
  for (const data::Table& bn_sample : model_->bn_samples()) {
    // The hybrid union compares sample and BN groups by code, which
    // needs the shared schema ThemisModel::Build gives every BN sample.
    THEMIS_CHECK(bn_sample.schema() == sample.schema());
    indexes_.emplace_back(&bn_sample);
    worlds.push_back({&bn_sample, &indexes_.back()});
  }
  if (!worlds.empty()) {
    bn_executor_.RegisterWorlds(table_name_, std::move(worlds));
  }
  const ThemisOptions& options = model_->options();
  if (model_->network() != nullptr) {
    bn::InferenceEngine::Options engine_options;
    engine_options.enable_cache = options.enable_inference_cache;
    engine_options.cache_capacity = kInferenceCacheCapacity;
    engine_ = std::make_unique<bn::InferenceEngine>(model_->network(),
                                                    engine_options);
  }
  planner_ = std::make_unique<QueryPlanner>(
      model_->reweighted_sample().schema(), has_bn(),
      kPlanCacheCapacity, relation_);
  pool_ = util::ResolvePool(pool, options.num_threads, owned_pool_);
  // The environment override resolves once here so the shard layout
  // (which fixes the float summation order) cannot drift mid-run; a
  // remaining 0 means the executor's cache-aware auto policy picks the
  // size per query — deterministically, from the query and table alone.
  shard_rows_ = options.shard_rows > 0 ? options.shard_rows
                                       : sql::ShardRowsEnvOverride();
  result_memo_enabled_ = options.enable_result_memo;
}

HybridEvaluator::SampleProbe HybridEvaluator::ProbeSample(
    const std::vector<size_t>& attrs, const data::TupleKey& values) const {
  SampleProbe probe;
  if (attrs.empty() || attrs.size() != values.size()) return probe;
  // Walk the shortest of the key's posting lists and check the other
  // attributes row by row. Rows come in ascending order and the mass
  // starts at 0.0 — the summation Table::GroupWeights performs.
  const data::PostingIndex& index = indexes_[0];
  size_t shortest = 0;
  data::PostingList list = index.List(attrs[0], values[0]);
  for (size_t i = 1; i < attrs.size() && list.size() > 0; ++i) {
    const data::PostingList other = index.List(attrs[i], values[i]);
    if (other.size() < list.size()) {
      list = other;
      shortest = i;
    }
  }
  const data::Table& sample = index.table();
  list.ForEachRow([&](uint32_t row) {
    for (size_t i = 0; i < attrs.size(); ++i) {
      if (i != shortest && sample.Get(row, attrs[i]) != values[i]) return;
    }
    probe.present = true;
    probe.mass += sample.weight(row);
  });
  return probe;
}

bool HybridEvaluator::SampleContains(const std::vector<size_t>& attrs,
                                     const data::TupleKey& values) const {
  return ProbeSample(attrs, values).present;
}

Result<double> HybridEvaluator::BnPointEstimate(
    const std::vector<size_t>& attrs, const data::TupleKey& values) const {
  if (engine_ == nullptr) {
    return Status::FailedPrecondition("model has no Bayesian network");
  }
  bn::Evidence evidence;
  for (size_t i = 0; i < attrs.size(); ++i) {
    evidence[attrs[i]] = values[i];
  }
  THEMIS_ASSIGN_OR_RETURN(double p, engine_->Probability(evidence));
  return model_->population_size() * p;
}

Result<double> HybridEvaluator::PointEstimate(
    const std::vector<size_t>& attrs, const data::TupleKey& values,
    AnswerMode mode) const {
  if (attrs.size() != values.size() || attrs.empty()) {
    return Status::InvalidArgument("PointEstimate: attrs/values mismatch");
  }
  switch (mode) {
    case AnswerMode::kSampleOnly:
      return ProbeSample(attrs, values).mass;
    case AnswerMode::kBnOnly:
      return BnPointEstimate(attrs, values);
    case AnswerMode::kHybrid: {
      // Sec 4.3: sample answer when the tuple is present, BN otherwise.
      const SampleProbe probe = ProbeSample(attrs, values);
      if (probe.present || model_->network() == nullptr) return probe.mass;
      return BnPointEstimate(attrs, values);
    }
  }
  return Status::Internal("unreachable");
}

Result<sql::CodedResult> HybridEvaluator::BnGroupBy(
    const sql::SelectStatement& stmt, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  if (model_->bn_samples().empty()) {
    return Status::FailedPrecondition("model has no BN samples");
  }
  // Execute on every generated sample at once; keep groups appearing in
  // all K answers and average the aggregate values (Sec 4.2.4). Each
  // group's sum runs from 0.0 over the samples in index order before the
  // division by K, so the answer is pool-size independent.
  THEMIS_ASSIGN_OR_RETURN(
      sql::CodedResult worlds,
      bn_executor_.ExecuteCoded(stmt, pool_, shard_rows_, cancel, trace));
  const size_t k_total = worlds.num_worlds;
  sql::CodedResult out = worlds.EmptyLike(1);
  std::vector<double> mean(worlds.value_names.size());
  for (size_t g = 0; g < worlds.num_groups(); ++g) {
    bool in_all = true;
    for (size_t k = 0; k < k_total && in_all; ++k) {
      in_all = worlds.present_in(g, k);
    }
    if (!in_all) continue;  // phantom-group suppression
    for (size_t i = 0; i < mean.size(); ++i) {
      double sum = 0.0;
      for (size_t k = 0; k < k_total; ++k) sum += worlds.world_values(g, k)[i];
      mean[i] = sum / static_cast<double>(k_total);
    }
    out.AddGroup(worlds.key(g), mean);
  }
  return out;
}

Result<QueryPlanPtr> HybridEvaluator::Plan(const std::string& sql) const {
  return planner_->Plan(sql);
}

namespace {

/// A group key's codes as bytes, for hashing.
std::string_view KeyBytes(std::span<const data::ValueCode> key) {
  return {reinterpret_cast<const char*>(key.data()),
          key.size() * sizeof(data::ValueCode)};
}

}  // namespace

Result<sql::QueryResult> HybridEvaluator::ExecutePlanUncached(
    const QueryPlan& plan, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  if (plan.kind == PlanKind::kPassthrough || mode == AnswerMode::kSampleOnly ||
      !has_bn()) {
    return sample_executor_.Execute(plan.stmt, pool_, shard_rows_, cancel,
                                    trace);
  }

  if (plan.kind == PlanKind::kPoint) {
    // Pure point queries (d-dimensional COUNT(*) with equality predicates)
    // route through the Sec 4.3 point rule with *exact* BN inference
    // instead of the sampled GROUP BY machinery.
    double estimate = 0;
    if (!plan.out_of_domain) {
      THEMIS_ASSIGN_OR_RETURN(
          estimate, PointEstimate(plan.point_attrs, plan.point_values, mode));
    }
    sql::QueryResult result;
    result.value_names = {"count"};
    result.rows.push_back({{}, {estimate}});
    return result;
  }

  if (mode == AnswerMode::kBnOnly) {
    THEMIS_ASSIGN_OR_RETURN(sql::CodedResult bn,
                            BnGroupBy(plan.stmt, cancel, trace));
    return bn.Decode();
  }

  // Hybrid: sample answer unioned with BN-only groups (Sec 4.3).
  THEMIS_ASSIGN_OR_RETURN(sql::CodedResult sample,
                          sample_executor_.ExecuteCoded(plan.stmt, pool_,
                                                        shard_rows_, cancel,
                                                        trace));
  auto bn = BnGroupBy(plan.stmt, cancel, trace);
  if (!bn.ok()) {
    // A BN failure normally degrades to the sample answer — but a fired
    // cancel token must surface, not be swallowed as a degraded answer.
    if (bn.status().code() == StatusCode::kCancelled ||
        bn.status().code() == StatusCode::kDeadlineExceeded) {
      return bn.status();
    }
    return sample.Decode();
  }
  // Both sides share the sample's domains, so equal codes are equal
  // groups.
  std::unordered_set<std::string_view> sample_keys;
  sample_keys.reserve(sample.num_groups());
  for (size_t g = 0; g < sample.num_groups(); ++g) {
    sample_keys.insert(KeyBytes(sample.key(g)));
  }
  std::vector<size_t> bn_only;
  for (size_t g = 0; g < bn->num_groups(); ++g) {
    if (sample_keys.count(KeyBytes(bn->key(g))) == 0) bn_only.push_back(g);
  }
  for (const size_t g : bn_only) {
    sample.AddGroup(bn->key(g), bn->world_values(g, 0));
  }
  return sample.Decode();
}

Result<sql::QueryResult> HybridEvaluator::ExecutePlan(
    const QueryPlan& plan, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  // Entry poll, before the memo: a request whose deadline has already
  // lapsed answers kDeadlineExceeded even when the plan is memoized —
  // deadline semantics must not depend on cache temperature, or the
  // deterministic deadline tests (and clients' retry logic) would flap.
  THEMIS_RETURN_IF_ERROR(util::CheckCancel(cancel));
  if (trace != nullptr) trace->SetPlanInfo(relation_, plan.fingerprint);
  // The result memo covers every execution that actually scans — GROUP
  // BY, passthrough, and point plans forced onto the sample executor by
  // kSampleOnly / a BN-less model. Point plans answered through the
  // Sec 4.3 point rule bypass it: the inference memo already serves them
  // at the cost of one cache probe.
  const bool point_via_inference = plan.kind == PlanKind::kPoint &&
                                   has_bn() &&
                                   mode != AnswerMode::kSampleOnly;
  const bool memoizable = result_memo_enabled_ && !point_via_inference &&
                          !plan.fingerprint.empty();
  std::string key;
  if (memoizable) {
    obs::ScopedSpan memo_span(trace, obs::Stage::kPlanLookup);
    key = plan.fingerprint;
    key.push_back('\x1f');
    key.push_back(static_cast<char>('0' + static_cast<int>(mode)));
    SharedResult hit;
    {
      std::lock_guard<std::mutex> lock(memo_mu_);
      if (auto cached = result_memo_.Get(key)) {
        ++memo_hits_;
        hit = *cached;
      } else {
        ++memo_misses_;
      }
    }
    if (hit != nullptr) return *hit;
  }
  sql::QueryResult result;
  {
    obs::ScopedSpan execute_span(trace, obs::Stage::kExecute);
    if (uncached_execute_hook_) uncached_execute_hook_();
    THEMIS_ASSIGN_OR_RETURN(result,
                            ExecutePlanUncached(plan, mode, cancel, trace));
  }
  if (!memoizable) return result;
  // Two executions racing the same cold plan both compute and publish the
  // same deterministic answer; the second Put overwrites in place.
  auto shared = std::make_shared<const sql::QueryResult>(std::move(result));
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    result_memo_.Put(key, shared);
  }
  return *shared;
}

sql::ExecutorStats HybridEvaluator::executor_stats() const {
  sql::ExecutorStats total = sample_executor_.stats();
  total += bn_executor_.stats();
  return total;
}

ResultMemoStats HybridEvaluator::result_memo_stats() const {
  ResultMemoStats stats;
  {
    std::lock_guard<std::mutex> lock(memo_mu_);
    stats.hits = memo_hits_;
    stats.misses = memo_misses_;
    stats.entries = result_memo_.size();
    stats.evictions = result_memo_.evictions();
  }
  return stats;
}

void HybridEvaluator::ClearResultMemo() const {
  std::lock_guard<std::mutex> lock(memo_mu_);
  result_memo_.Clear();
  memo_hits_ = 0;
  memo_misses_ = 0;
}

Result<sql::QueryResult> HybridEvaluator::Query(
    const std::string& sql, AnswerMode mode, const util::CancelToken* cancel,
    obs::TraceContext* trace) const {
  QueryPlanPtr plan;
  {
    obs::ScopedSpan plan_span(trace, obs::Stage::kPlanLookup);
    THEMIS_ASSIGN_OR_RETURN(plan, planner_->Plan(sql));
  }
  return ExecutePlan(*plan, mode, cancel, trace);
}

Result<std::vector<sql::QueryResult>> HybridEvaluator::QueryBatch(
    std::span<const std::string> sqls, AnswerMode mode,
    const util::CancelToken* cancel, obs::TraceContext* trace) const {
  std::vector<QueryPlanPtr> plans;
  plans.reserve(sqls.size());
  {
    obs::ScopedSpan plan_span(trace, obs::Stage::kPlanLookup);
    for (const std::string& sql : sqls) {
      THEMIS_ASSIGN_OR_RETURN(QueryPlanPtr plan, planner_->Plan(sql));
      plans.push_back(std::move(plan));
    }
  }
  // Whole plans are pool tasks: distinct queries run concurrently, and
  // each GROUP BY plan's K-world fan-out nests on the same pool.
  std::vector<Result<sql::QueryResult>> results(
      plans.size(), Result<sql::QueryResult>(Status::Internal("not run")));
  pool_->ParallelFor(0, plans.size(), [&](size_t i) {
    results[i] = ExecutePlan(*plans[i], mode, cancel, trace);
  });
  std::vector<sql::QueryResult> out;
  out.reserve(plans.size());
  for (Result<sql::QueryResult>& result : results) {
    // Report the lowest-index failure so batch errors are deterministic.
    if (!result.ok()) return result.status();
    out.push_back(std::move(*result));
  }
  return out;
}

}  // namespace themis::core
