#ifndef THEMIS_CORE_THEMIS_DB_H_
#define THEMIS_CORE_THEMIS_DB_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/catalog.h"
#include "core/evaluator.h"
#include "core/model.h"
#include "util/status.h"

namespace themis::core {

/// The user-facing open-world database facade: insert biased sample
/// relations and the published population aggregates, build, and issue SQL
/// queries that are answered approximately *as if over the population*
/// (OWQP). A thin shell over core::Catalog — many independently-modeled
/// relations coexist in one instance, share one thread pool, and answer
/// concurrently:
///
///   ThemisDb db;
///   db.InsertSample("flights", std::move(biased_flights));
///   db.InsertAggregate("flights", per_state_counts);
///   db.InsertSample("imdb", std::move(biased_imdb));
///   db.InsertAggregate("imdb", per_year_counts);
///   THEMIS_CHECK_OK(db.Build());   // learns both models in parallel
///   auto result = db.Query(
///       "SELECT origin_state, COUNT(*) FROM flights "
///       "GROUP BY origin_state");  // routed by the FROM table
class ThemisDb {
 public:
  explicit ThemisDb(ThemisOptions options = {});

  /// Registers a biased sample as a new relation; its name is the SQL
  /// table name queries route by. AlreadyExists on a duplicate name.
  Status InsertSample(const std::string& name, data::Table sample);

  /// Adds one population aggregate over the named relation's attributes.
  /// NotFound when no such relation exists; InvalidArgument for a
  /// malformed group (see Catalog::InsertAggregate).
  Status InsertAggregate(const std::string& table_name,
                         aggregate::AggregateSpec aggregate);

  /// Convenience: computes GROUP BY COUNT(*) over `attr_names` on
  /// `population` and inserts it — how a data provider would publish Γ.
  Status InsertAggregateFrom(const std::string& table_name,
                             const data::Table& population,
                             const std::vector<std::string>& attr_names);

  /// Learns every relation's model, in parallel on the shared pool. Must
  /// be called after inserts and before queries; call again after adding
  /// aggregates to rebuild (only relations with new aggregates relearn).
  Status Build();

  /// Learns one relation's model, leaving the others untouched.
  Status Build(const std::string& name);

  /// Removes a relation — sample, aggregates, model, and caches.
  Status DropRelation(const std::string& name);

  /// True when at least one relation exists and every relation is built.
  bool built() const { return catalog_.all_built(); }
  bool built(const std::string& name) const { return catalog_.built(name); }

  /// Answers SQL approximately over the population (hybrid by default),
  /// routed to the relation named by the FROM clause. NotFound("no
  /// relation 'x'") for an unknown table, FailedPrecondition for a
  /// registered-but-unbuilt one.
  Result<sql::QueryResult> Query(
      const std::string& sql,
      AnswerMode mode = AnswerMode::kHybrid) const;

  /// Answers a batch of queries, possibly spanning relations: routes and
  /// plans everything first (warming the plan caches and deduplicating
  /// repeated texts), then submits whole plans — interleaved across
  /// relations — to the shared thread pool. Results line up with the
  /// input order and are bitwise identical to a sequential Query() loop
  /// at any pool size.
  Result<std::vector<sql::QueryResult>> QueryBatch(
      std::span<const std::string> sqls,
      AnswerMode mode = AnswerMode::kHybrid) const;

  /// Point-query convenience against the named relation: COUNT(*) WHERE
  /// attr1=v1 AND ... by name.
  Result<double> PointQuery(
      const std::string& relation,
      const std::vector<std::pair<std::string, std::string>>& equalities,
      AnswerMode mode = AnswerMode::kHybrid) const;

  /// Single-relation convenience: as above when exactly one relation is
  /// registered; FailedPrecondition otherwise.
  Result<double> PointQuery(
      const std::vector<std::pair<std::string, std::string>>& equalities,
      AnswerMode mode = AnswerMode::kHybrid) const;

  /// The named relation's model/evaluator (after Build); null when
  /// unknown or unbuilt.
  const ThemisModel* model(const std::string& name) const {
    return catalog_.model(name);
  }
  const HybridEvaluator* evaluator(const std::string& name) const {
    return catalog_.evaluator(name);
  }

  /// Single-relation conveniences: the sole relation's model/evaluator,
  /// null when zero or several relations are registered.
  const ThemisModel* model() const;
  const HybridEvaluator* evaluator() const;

  /// The underlying multi-relation catalog.
  const Catalog& catalog() const { return catalog_; }
  Catalog* mutable_catalog() { return &catalog_; }

 private:
  /// The sole relation's name; FailedPrecondition when there are 0 or >1.
  Result<std::string> SoleRelation() const;

  Catalog catalog_;
};

}  // namespace themis::core

#endif  // THEMIS_CORE_THEMIS_DB_H_
