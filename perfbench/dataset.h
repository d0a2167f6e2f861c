#ifndef THEMIS_PERFBENCH_DATASET_H_
#define THEMIS_PERFBENCH_DATASET_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/catalog.h"
#include "core/options.h"
#include "data/table.h"
#include "sql/executor.h"
#include "util/random.h"
#include "util/status.h"

namespace themis::perfbench {

/// One served relation: the CSV files the benchmark ingests and the
/// generated population they were drawn from (the exact-answer oracle).
struct RelationData {
  RelationData(std::string name, data::Table population)
      : name(std::move(name)), population(std::move(population)) {}

  /// Relation name, which is also its SQL table name.
  std::string name;
  std::string sample_csv;
  /// Published before the first build: every 1D and 2D aggregate over
  /// the covered attributes (the 2D ones are t-cherry pruning input).
  std::vector<std::string> aggregate_csvs;
  /// Published by every rebuild cycle: one 3D aggregate.
  std::string rebuild_csv;
  data::Table population;
  size_t sample_rows = 0;
  /// Attributes a generated GROUP BY may group on (dense ones excluded,
  /// so an answer stays a few hundred groups at most).
  std::vector<size_t> group_attrs;
  /// Executor over `population`, registered under `name`.
  std::unique_ptr<sql::Executor> truth;
};

/// The benchmark's fixed data: a Flights population with its Corners
/// sample and an IMDb population with its R159 sample (the paper's two
/// 100%-biased samples), written once per data directory as CSV files.
/// The data does not depend on the run's seed; the seed drives only the
/// request streams.
struct Dataset {
  double scale = 1;
  std::vector<RelationData> relations;
};

/// Generates both populations at `scale` x the paper-bench default sizes
/// and writes the sample and aggregate CSV files under `dir` unless a
/// previous run already left them there.
Result<Dataset> PrepareDataset(const std::string& dir, double scale);

/// Build options every relation uses: the paper's K = 10, BN samples the
/// size of the input sample, and a t-cherry aggregate budget so pruning
/// runs on every build.
core::ThemisOptions BenchThemisOptions();

/// Ingests one relation into `catalog` (built with BenchThemisOptions):
/// ReadCsv, ReadAggregateCsv for every published aggregate, InsertSample
/// + InsertAggregate, Build. Adds the Build seconds to `build_s`.
Status IngestRelation(const RelationData& relation, core::Catalog* catalog,
                      double* build_s);

/// Reads one aggregate CSV against the relation's sample schema and
/// publishes it (InsertAggregate) — the first half of a rebuild cycle.
Status PublishAggregate(const std::string& relation, const std::string& path,
                        core::Catalog* catalog);

/// One generated request text.
struct QueryText {
  /// Index into Dataset::relations.
  uint32_t relation = 0;
  std::string sql;
  /// The wire request line (no trailing newline).
  std::string line;
};

/// Generates the request mix of the benchmark: point COUNT(*) queries
/// over 2-4 attributes whose values come from a random population row,
/// and 1-2 attribute GROUP BYs with one or two equality filters over a
/// fixed list of shapes, over both relations, all in hybrid mode. Every
/// text it returns is distinct from every earlier one.
class QueryMix {
 public:
  QueryMix(const Dataset* data, uint64_t seed);

  /// A fresh text drawn from the mix.
  QueryText Next();

  /// One fresh text per point attribute set and per GROUP BY shape of
  /// both relations: running these first builds every lazy per-attribute
  /// set index without repeating any later text.
  std::vector<QueryText> CoverEveryShape();

 private:
  struct Shape {
    std::vector<size_t> group;
    std::vector<size_t> filters;
  };
  QueryText MakePoint(uint32_t relation, const std::vector<size_t>& attrs);
  QueryText MakeGroupBy(uint32_t relation, const Shape& shape);
  /// Fills in `line`, returns false when the text was already issued.
  bool Admit(QueryText* text);

  const Dataset* data_;
  Rng rng_;
  /// Per relation: every point attribute set and the GROUP BY shapes.
  std::vector<std::vector<std::vector<size_t>>> point_sets_;
  std::vector<std::vector<Shape>> shapes_;
  std::unordered_set<std::string> issued_;
};

/// Percent difference of a served answer from the population's exact
/// answer (the repository's stats::PercentDifference per value; for a
/// GROUP BY, averaged over the union of groups, a missing or phantom
/// group counting as the maximum difference).
double AnswerErrorPct(const sql::QueryResult& truth,
                      const sql::QueryResult& answer);

}  // namespace themis::perfbench

#endif  // THEMIS_PERFBENCH_DATASET_H_
