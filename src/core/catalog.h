#ifndef THEMIS_CORE_CATALOG_H_
#define THEMIS_CORE_CATALOG_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/evaluator.h"
#include "core/model.h"
#include "util/lru_cache.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::core {

/// Live cache counters of one catalog relation — the payload of the
/// serving front-end's STATS verb. All counters reset when the relation
/// rebuilds (its evaluator is recreated).
struct RelationStats {
  bool built = false;
  /// Plan-cache counters (normalized-SQL -> logical plan).
  size_t plan_cache_hits = 0;
  size_t plan_cache_misses = 0;
  /// BN marginal/probability memo; zero-valued when the model has no BN.
  bn::InferenceCacheStats inference_cache;
  /// Plan->result memo.
  ResultMemoStats result_memo;
  /// Scan-path counters summed over the relation's sample and BN-sample
  /// executors (rows scanned/passed, groups emitted, join build/probe).
  sql::ExecutorStats executor;
};

/// Per-relation overrides applied at InsertSample time.
struct RelationConfig {
  /// Build options for this relation; the catalog-wide options otherwise.
  /// `num_threads` inside a per-relation override is ignored — the
  /// catalog's single pool runs every relation.
  std::optional<ThemisOptions> options;

  /// The name the sample is registered under for SQL execution; defaults
  /// to the relation name. Distinct relations may share a table name (the
  /// MethodSuite registers four differently-modeled relations all visible
  /// as "sample") — such relations are addressed with QueryOn, since
  /// FROM-routing resolves *relation* names.
  std::string table_name;
};

/// A catalog of independently-modeled relations — the multi-relation core
/// the single-sample ThemisDb fronts. Each entry owns its biased sample,
/// its published aggregates, its learned ThemisModel, and its
/// HybridEvaluator (with per-relation plan cache, inference cache, and
/// plan->result memo, each bounded per relation); every evaluator runs on
/// the catalog's one util::ThreadPool.
///
/// Queries route by the FROM table: `Query`/`QueryBatch` resolve the first
/// FROM identifier against the relation names and dispatch to that
/// relation's evaluator, stamping the relation into every plan fingerprint
/// so memo entries never collide across relations. `QueryBatch` interleaves
/// plans from different relations on the shared pool; each answer is
/// bitwise identical to the same query on a dedicated single-relation
/// instance at any pool size.
///
/// Thread-safe for concurrent const use (Query/QueryBatch/PointQuery);
/// mutations (Insert*/Build*/DropRelation) must not race queries.
class Catalog {
 public:
  explicit Catalog(ThemisOptions options = {},
                   util::ThreadPool* pool = nullptr);

  Catalog(Catalog&&) = default;
  Catalog& operator=(Catalog&&) = default;
  Catalog(const Catalog&) = delete;
  Catalog& operator=(const Catalog&) = delete;

  /// Registers a new relation. AlreadyExists when the name is taken,
  /// InvalidArgument when the sample is empty or when the name/table-name
  /// pair would shadow another relation's and mislead FROM-routing.
  Status InsertSample(const std::string& name, data::Table sample,
                      RelationConfig config = {});

  /// Adds one population aggregate to the named relation. NotFound when no
  /// such relation exists; resets the relation's built model (call
  /// Build(name) again).
  Status InsertAggregate(const std::string& name,
                         aggregate::AggregateSpec aggregate);

  /// Convenience: computes GROUP BY COUNT(*) over `attr_names` on
  /// `population` and inserts it — how a data provider would publish Γ.
  Status InsertAggregateFrom(const std::string& name,
                             const data::Table& population,
                             const std::vector<std::string>& attr_names);

  /// (Re)learns the named relation's model and creates a fresh evaluator,
  /// unconditionally.
  Status Build(const std::string& name);

  /// Builds every relation that is not already built (inserting
  /// aggregates un-builds exactly the touched relation), learning the
  /// models in parallel on the shared pool; built relations keep their
  /// models and warm caches. Returns the first failure in relation-name
  /// order (the other relations still build).
  Status BuildAll();

  /// Removes the relation entirely — sample, aggregates, model, evaluator,
  /// and with them its plan cache, inference cache, and result memo.
  Status DropRelation(const std::string& name);

  bool Has(const std::string& name) const;
  /// False for unknown names as well as registered-but-unbuilt ones.
  bool built(const std::string& name) const;
  /// True when at least one relation exists and every relation is built.
  bool all_built() const;
  size_t num_relations() const { return relations_.size(); }
  /// Registered relation names in sorted order.
  std::vector<std::string> RelationNames() const;

  /// The named relation's model/evaluator; null when unknown or unbuilt.
  const ThemisModel* model(const std::string& name) const;
  const HybridEvaluator* evaluator(const std::string& name) const;

  /// Live cache counters of the named relation (all-zero with
  /// built=false for a registered-but-unbuilt one). NotFound when no such
  /// relation exists.
  Result<RelationStats> StatsFor(const std::string& name) const;

  /// StatsFor every registered relation, keyed by relation name — what
  /// the serving front-end's STATS verb reports.
  std::map<std::string, RelationStats> Stats() const;

  /// Answers SQL against the relation named by its FROM clause.
  /// NotFound("no relation 'x'") for an unknown FROM table,
  /// FailedPrecondition for a registered-but-unbuilt one.
  ///
  /// `cancel` (optional) carries the serving layer's per-request deadline
  /// / disconnect signal into plan execution: it is polled once on entry
  /// and once per shard in the executor loops, and a fired token answers
  /// kDeadlineExceeded / kCancelled instead of finishing the plan. A
  /// token that never fires leaves the answer bitwise identical to
  /// passing nullptr.
  ///
  /// `trace` (optional) is the per-request obs::TraceContext — spans for
  /// plan lookup, single-flight wait, execution, and executor shard loops
  /// record into it; null (the default) costs one pointer check per site.
  Result<sql::QueryResult> Query(const std::string& sql,
                                 AnswerMode mode = AnswerMode::kHybrid,
                                 const util::CancelToken* cancel = nullptr,
                                 obs::TraceContext* trace = nullptr) const;

  /// Answers SQL against an explicitly named relation (bypasses
  /// FROM-routing; required when relations share a SQL table name).
  Result<sql::QueryResult> QueryOn(
      const std::string& relation, const std::string& sql,
      AnswerMode mode = AnswerMode::kHybrid,
      const util::CancelToken* cancel = nullptr,
      obs::TraceContext* trace = nullptr) const;

  /// Batched answering across relations: routes and plans every query
  /// first (malformed SQL or an unknown relation fails before any work
  /// runs), then submits whole plans — interleaved across relations — to
  /// the shared pool. Results line up with the input order and are bitwise
  /// identical to a sequential Query() loop at any pool size. One
  /// `cancel` token covers the whole batch.
  Result<std::vector<sql::QueryResult>> QueryBatch(
      std::span<const std::string> sqls,
      AnswerMode mode = AnswerMode::kHybrid,
      const util::CancelToken* cancel = nullptr,
      obs::TraceContext* trace = nullptr) const;

  /// One request of a QueryMany micro-batch — the server-side analogue of
  /// a QueryBatch entry, with per-item routing, mode, and cancellation.
  struct QueryItem {
    std::string sql;
    /// Explicitly pinned relation (Catalog::QueryOn semantics); empty
    /// routes by the FROM table.
    std::string relation;
    AnswerMode mode = AnswerMode::kHybrid;
    const util::CancelToken* cancel = nullptr;
    /// Per-item trace (nullable, like `cancel`): each micro-batch member
    /// keeps its own span record even though they share one pool task.
    obs::TraceContext* trace = nullptr;
  };

  /// Executes a micro-batch of independent requests with per-item fault
  /// isolation: unlike QueryBatch (one client's batch — all-or-nothing),
  /// each item carries its own route/plan/execution outcome, so one
  /// malformed query or expired deadline never fails its batch-mates.
  /// Plans run as one ParallelFor over the shared pool; each answer is
  /// bitwise identical to the same request through Query/QueryOn. How the
  /// serving layer submits the N>1 requests of one epoll drain pass as a
  /// single pool task.
  std::vector<Result<sql::QueryResult>> QueryMany(
      std::span<const QueryItem> items) const;

  /// The relation name `sql` routes to (its first FROM identifier) —
  /// the public face of the memoized route cache. The serving layer uses
  /// it to key response-cache invalidation by the routed relation even
  /// when the wire request carried no explicit relation.
  Result<std::string> Route(const std::string& sql) const {
    return RouteFor(sql);
  }

  /// A callback fired synchronously from every relation mutation
  /// (InsertSample / InsertAggregate / Build / DropRelation) with the
  /// touched relation's name — how the serving layer's response byte
  /// cache invalidates alongside the result memo. Listeners run on the
  /// mutating thread and must not call back into the catalog.
  using MutationListener = std::function<void(const std::string& relation)>;

  /// Registers a mutation listener, returning an id for removal.
  /// Const-qualified (listener state is heap-held, like the route cache,
  /// keeping the catalog movable) so a server fronting a const catalog
  /// can subscribe.
  uint64_t AddMutationListener(MutationListener listener) const;
  void RemoveMutationListener(uint64_t id) const;

  /// Forwards set_coalescing_enabled to every built relation's evaluator —
  /// the run-time toggle for single-flight query coalescing (answers are
  /// bitwise identical either way; the serving bench measures the
  /// uncoalesced baseline through this).
  void SetCoalescingEnabled(bool enabled) const;

  /// Point-query convenience against a named relation: COUNT(*) WHERE
  /// attr1=v1 AND ... by attribute name.
  Result<double> PointQuery(
      const std::string& relation,
      const std::vector<std::pair<std::string, std::string>>& equalities,
      AnswerMode mode = AnswerMode::kHybrid) const;

  const ThemisOptions& options() const { return options_; }
  util::ThreadPool* pool() const { return pool_; }

 private:
  struct Relation {
    std::string table_name;
    ThemisOptions options;  // the override, else the catalog-wide options
    std::unique_ptr<data::Table> pending_sample;
    std::unique_ptr<aggregate::AggregateSet> pending_aggregates;
    std::unique_ptr<ThemisModel> model;
    std::unique_ptr<HybridEvaluator> evaluator;
  };

  /// The named relation, with precise statuses: NotFound when unknown,
  /// FailedPrecondition when not built.
  Result<const Relation*> FindBuilt(const std::string& name) const;

  /// The relation name `sql` routes to (its first FROM identifier),
  /// memoized by exact text — the route depends only on the text, never
  /// on catalog state, so entries cannot go stale.
  Result<std::string> RouteFor(const std::string& sql) const;

  /// Heap-allocated so the catalog stays movable despite the mutex.
  struct RouteCache {
    std::mutex mu;
    LruCache<std::string, std::string> cache{1024};
  };

  /// Fires every registered mutation listener for `relation`.
  void NotifyMutation(const std::string& relation) const;

  /// Heap-allocated so the catalog stays movable despite the mutex.
  struct MutationListeners {
    std::mutex mu;
    uint64_t next_id = 1;
    std::map<uint64_t, MutationListener> listeners;
  };

  ThemisOptions options_;
  std::unique_ptr<RouteCache> route_cache_;
  std::unique_ptr<MutationListeners> mutation_listeners_;
  std::unique_ptr<util::ThreadPool> owned_pool_;  // when num_threads is set
  util::ThreadPool* pool_ = nullptr;
  /// Ordered so RelationNames/BuildAll walk deterministically.
  std::map<std::string, Relation> relations_;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_CATALOG_H_
