#include "core/catalog.h"

#include <cmath>
#include <utility>

#include "core/query_plan.h"
#include "util/logging.h"

namespace themis::core {

Catalog::Catalog(ThemisOptions options, util::ThreadPool* pool)
    : options_(std::move(options)),
      mutation_listeners_(std::make_unique<MutationListeners>()) {
  pool_ = util::ResolvePool(pool, options_.num_threads, owned_pool_);
}

uint64_t Catalog::AddMutationListener(MutationListener listener) const {
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  const uint64_t id = mutation_listeners_->next_id++;
  mutation_listeners_->listeners.emplace(id, std::move(listener));
  return id;
}

void Catalog::RemoveMutationListener(uint64_t id) const {
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  mutation_listeners_->listeners.erase(id);
}

void Catalog::NotifyMutation(const std::string& relation) const {
  // Listeners run under the registry lock: registration is rare (server
  // start/stop) and mutations never race queries, so contention is moot;
  // holding the lock keeps removal well-ordered against a firing listener.
  std::lock_guard<std::mutex> lock(mutation_listeners_->mu);
  for (const auto& [id, listener] : mutation_listeners_->listeners) {
    listener(relation);
  }
}

Status Catalog::InsertSample(const std::string& name, data::Table sample,
                             RelationConfig config) {
  if (name.empty()) {
    return Status::InvalidArgument("relation name is empty");
  }
  if (relations_.count(name) > 0) {
    return Status::AlreadyExists("relation '" + name + "' already exists");
  }
  if (sample.num_rows() == 0) {
    return Status::InvalidArgument("sample for relation '" + name +
                                   "' is empty");
  }
  const std::string table_name =
      config.table_name.empty() ? name : std::move(config.table_name);
  // FROM-routing resolves relation names, so a table alias that shadows
  // another relation's name (or a name shadowing another's alias) would
  // silently route queries to the wrong relation — reject it up front.
  for (const auto& [existing_name, existing] : relations_) {
    if (table_name != name && table_name == existing_name) {
      return Status::InvalidArgument(
          "table name '" + table_name + "' of relation '" + name +
          "' shadows the relation '" + existing_name + "'");
    }
    if (existing.table_name != existing_name && existing.table_name == name) {
      return Status::InvalidArgument(
          "relation name '" + name + "' shadows the table name of relation '" +
          existing_name + "'");
    }
  }
  Relation relation;
  relation.table_name = table_name;
  relation.options =
      config.options.has_value() ? std::move(*config.options) : options_;
  relation.pending_aggregates =
      std::make_unique<aggregate::AggregateSet>(sample.schema());
  relation.pending_sample =
      std::make_unique<data::Table>(std::move(sample));
  relations_.emplace(name, std::move(relation));
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::InsertAggregate(const std::string& name,
                                aggregate::AggregateSpec aggregate) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  Relation& relation = it->second;
  for (size_t attr : aggregate.attrs) {
    if (attr >= relation.pending_sample->schema()->num_attributes()) {
      return Status::InvalidArgument("aggregate attribute out of range for '" +
                                     name + "'");
    }
  }
  // The same contract the aggregate CSV reader enforces: one value per
  // attribute, each null or a code of the attribute's domain, and a
  // finite, non-negative count.
  const data::Schema& schema = *relation.pending_sample->schema();
  for (const auto& [key, count] : aggregate.groups) {
    if (key.size() != aggregate.attrs.size()) {
      return Status::InvalidArgument(
          "aggregate group key length differs from its attributes for '" +
          name + "'");
    }
    for (size_t i = 0; i < key.size(); ++i) {
      const size_t domain_size = schema.domain(aggregate.attrs[i]).size();
      if (key[i] < data::kNullCode ||
          (key[i] >= 0 && static_cast<size_t>(key[i]) >= domain_size)) {
        return Status::InvalidArgument(
            "aggregate group code outside its attribute's domain for '" +
            name + "'");
      }
    }
    if (!std::isfinite(count) || count < 0) {
      return Status::InvalidArgument(
          "aggregate count must be finite and non-negative for '" + name +
          "'");
    }
  }
  relation.pending_aggregates->Add(std::move(aggregate));
  // New knowledge invalidates this relation's model and with it the
  // relation's inference cache and result memo; other relations keep
  // serving their memoized answers untouched.
  relation.model.reset();
  relation.evaluator.reset();
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::InsertAggregateFrom(
    const std::string& name, const data::Table& population,
    const std::vector<std::string>& attr_names) {
  if (relations_.count(name) == 0) {
    return Status::NotFound("no relation '" + name + "'");
  }
  std::vector<size_t> attrs;
  for (const std::string& attr_name : attr_names) {
    THEMIS_ASSIGN_OR_RETURN(size_t idx,
                            population.schema()->AttributeIndex(attr_name));
    attrs.push_back(idx);
  }
  return InsertAggregate(name,
                         aggregate::ComputeAggregate(population, attrs));
}

Status Catalog::Build(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  Relation& relation = it->second;
  auto model = ThemisModel::Build(relation.pending_sample->Clone(),
                                  *relation.pending_aggregates,
                                  relation.options, pool_);
  if (!model.ok()) return model.status();
  relation.model = std::make_unique<ThemisModel>(std::move(model).value());
  relation.evaluator = std::make_unique<HybridEvaluator>(
      relation.model.get(), relation.table_name, pool_, name);
  NotifyMutation(name);
  return Status::OK();
}

Status Catalog::BuildAll() {
  if (relations_.empty()) {
    return Status::FailedPrecondition("no sample inserted");
  }
  std::vector<std::string> names = RelationNames();
  std::vector<Status> statuses(names.size());
  // Model learning is embarrassingly parallel across relations; each build
  // may further fan out on the same pool (nesting never deadlocks). Only
  // un-built relations learn (inserting aggregates un-builds exactly the
  // touched relation), so already-built neighbors keep their models and
  // warm caches.
  pool_->ParallelFor(0, names.size(), [&](size_t i) {
    if (!built(names[i])) statuses[i] = Build(names[i]);
  });
  for (const Status& status : statuses) {
    if (!status.ok()) return status;
  }
  return Status::OK();
}

Status Catalog::DropRelation(const std::string& name) {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  relations_.erase(it);
  NotifyMutation(name);
  return Status::OK();
}

bool Catalog::Has(const std::string& name) const {
  return relations_.count(name) > 0;
}

bool Catalog::built(const std::string& name) const {
  auto it = relations_.find(name);
  return it != relations_.end() && it->second.evaluator != nullptr;
}

bool Catalog::all_built() const {
  if (relations_.empty()) return false;
  for (const auto& [name, relation] : relations_) {
    if (relation.evaluator == nullptr) return false;
  }
  return true;
}

std::vector<std::string> Catalog::RelationNames() const {
  std::vector<std::string> names;
  names.reserve(relations_.size());
  for (const auto& [name, relation] : relations_) names.push_back(name);
  return names;
}

const ThemisModel* Catalog::model(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.model.get();
}

const HybridEvaluator* Catalog::evaluator(const std::string& name) const {
  auto it = relations_.find(name);
  return it == relations_.end() ? nullptr : it->second.evaluator.get();
}

Result<RelationStats> Catalog::StatsFor(const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  RelationStats stats;
  const HybridEvaluator* evaluator = it->second.evaluator.get();
  if (evaluator == nullptr) return stats;  // registered, not built
  stats.built = true;
  stats.plan_cache_hits = evaluator->planner().cache_hits();
  stats.plan_cache_misses = evaluator->planner().cache_misses();
  if (evaluator->inference_engine() != nullptr) {
    stats.inference_cache = evaluator->inference_engine()->cache_stats();
  }
  stats.result_memo = evaluator->result_memo_stats();
  stats.executor = evaluator->executor_stats();
  return stats;
}

std::map<std::string, RelationStats> Catalog::Stats() const {
  std::map<std::string, RelationStats> out;
  for (const auto& [name, relation] : relations_) {
    out.emplace(name, *StatsFor(name));
  }
  return out;
}

Result<const Catalog::Relation*> Catalog::FindBuilt(
    const std::string& name) const {
  auto it = relations_.find(name);
  if (it == relations_.end()) {
    return Status::NotFound("no relation '" + name + "'");
  }
  if (it->second.evaluator == nullptr) {
    return Status::FailedPrecondition("relation '" + name +
                                      "' is not built; call Build(\"" + name +
                                      "\") first");
  }
  return &it->second;
}

Result<Catalog::ResolvedQuery> Catalog::Resolve(
    const std::string& relation, const std::string& sql,
    obs::TraceContext* trace) const {
  obs::ScopedSpan span(trace, obs::Stage::kPlanLookup);
  std::string routed;
  if (relation.empty()) {
    THEMIS_ASSIGN_OR_RETURN(routed, Route(sql));
  }
  THEMIS_ASSIGN_OR_RETURN(const Relation* entry,
                          FindBuilt(relation.empty() ? routed : relation));
  THEMIS_ASSIGN_OR_RETURN(QueryPlanPtr plan, entry->evaluator->Plan(sql));
  return ResolvedQuery{entry->evaluator.get(), std::move(plan)};
}

Result<sql::QueryResult> Catalog::Query(const std::string& sql,
                                        AnswerMode mode,
                                        const util::CancelToken* cancel,
                                        obs::TraceContext* trace) const {
  return QueryOn("", sql, mode, cancel, trace);
}

Result<sql::QueryResult> Catalog::QueryOn(const std::string& relation,
                                          const std::string& sql,
                                          AnswerMode mode,
                                          const util::CancelToken* cancel,
                                          obs::TraceContext* trace) const {
  THEMIS_ASSIGN_OR_RETURN(ResolvedQuery resolved,
                          Resolve(relation, sql, trace));
  return resolved.evaluator->ExecutePlan(*resolved.plan, mode, cancel,
                                         trace);
}

Result<std::vector<sql::QueryResult>> Catalog::QueryBatch(
    std::span<const std::string> sqls, AnswerMode mode,
    const util::CancelToken* cancel, obs::TraceContext* trace) const {
  // Route + plan everything first: repeated texts share one plan through
  // each relation's plan cache, and routing errors, malformed SQL, or an
  // unbuilt relation fail before any execution starts.
  std::vector<ResolvedQuery> resolved;
  resolved.reserve(sqls.size());
  for (const std::string& sql : sqls) {
    THEMIS_ASSIGN_OR_RETURN(ResolvedQuery query, Resolve("", sql, trace));
    resolved.push_back(std::move(query));
  }
  // Whole plans are pool tasks, interleaved across relations; each GROUP
  // BY plan's K-world fan-out nests on the same pool.
  std::vector<Result<sql::QueryResult>> results(
      resolved.size(), Result<sql::QueryResult>(Status::Internal("not run")));
  pool_->ParallelFor(0, resolved.size(), [&](size_t i) {
    results[i] = resolved[i].evaluator->ExecutePlan(*resolved[i].plan, mode,
                                                    cancel, trace);
  });
  std::vector<sql::QueryResult> out;
  out.reserve(resolved.size());
  for (Result<sql::QueryResult>& result : results) {
    // Report the lowest-index failure so batch errors are deterministic.
    if (!result.ok()) return result.status();
    out.push_back(std::move(*result));
  }
  return out;
}

Result<double> Catalog::PointQuery(
    const std::string& relation,
    const std::vector<std::pair<std::string, std::string>>& equalities,
    AnswerMode mode) const {
  THEMIS_ASSIGN_OR_RETURN(const Relation* entry, FindBuilt(relation));
  const data::SchemaPtr& schema =
      entry->model->reweighted_sample().schema();
  std::vector<size_t> attrs;
  data::TupleKey values;
  for (const auto& [attr_name, value_label] : equalities) {
    THEMIS_ASSIGN_OR_RETURN(size_t idx, schema->AttributeIndex(attr_name));
    auto code = schema->domain(idx).Code(value_label);
    if (!code.ok()) {
      // Value outside the active domain: the open-world estimate is the
      // BN's, but with no domain entry the probability is zero.
      return 0.0;
    }
    attrs.push_back(idx);
    values.push_back(*code);
  }
  return entry->evaluator->PointEstimate(attrs, values, mode);
}

}  // namespace themis::core
