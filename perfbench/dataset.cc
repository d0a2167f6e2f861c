#include "dataset.h"

#include <sys/stat.h>

#include <algorithm>
#include <fstream>
#include <map>

#include "aggregate/aggregate_io.h"
#include "data/csv.h"
#include "server/wire.h"
#include "stats/metrics.h"
#include "util/logging.h"
#include "util/timer.h"
#include "workload/experiment.h"
#include "workload/flights.h"
#include "workload/imdb.h"
#include "workload/sampler.h"

namespace themis::perfbench {
namespace {

bool FileExists(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0;
}

std::string AttrTag(const data::Schema& schema,
                    const std::vector<size_t>& attrs) {
  std::string tag;
  for (size_t attr : attrs) {
    if (!tag.empty()) tag += '-';
    tag += schema.attribute_name(attr);
  }
  return tag;
}

/// Writes the relation's sample and aggregate CSVs (unless `write` is
/// false) and records their paths.
Status LayOutFiles(const std::string& dir, const std::vector<size_t>& covered,
                   const data::Table& sample, bool write,
                   RelationData* relation) {
  const data::Table& population = relation->population;
  const data::Schema& schema = *population.schema();
  relation->sample_csv = dir + "/" + relation->name + "_sample.csv";
  if (write) {
    THEMIS_RETURN_IF_ERROR(data::WriteCsv(sample, relation->sample_csv));
  }
  auto add = [&](const std::vector<size_t>& attrs,
                 std::vector<std::string>* paths) -> Status {
    const std::string path =
        dir + "/" + relation->name + "_agg_" + AttrTag(schema, attrs) + ".csv";
    if (write) {
      THEMIS_RETURN_IF_ERROR(aggregate::WriteAggregateCsv(
          aggregate::ComputeAggregate(population, attrs), schema, path));
    }
    paths->push_back(path);
    return Status::OK();
  };
  // Multi-dimensional aggregates first, 1D marginals last (the order the
  // paper benches publish them in).
  for (const auto& attrs : workload::AllSubsets(covered, 2)) {
    THEMIS_RETURN_IF_ERROR(add(attrs, &relation->aggregate_csvs));
  }
  for (size_t attr : covered) {
    THEMIS_RETURN_IF_ERROR(add({attr}, &relation->aggregate_csvs));
  }
  std::vector<std::string> rebuild;
  THEMIS_RETURN_IF_ERROR(
      add(workload::AllSubsets(covered, 3).front(), &rebuild));
  relation->rebuild_csv = rebuild.front();
  return Status::OK();
}

/// Share of point queries in the mix. A third keeps the median request a
/// GROUP BY: with an even split the median would sit in the gap between
/// the fast point answers and the slower scans and jump between them.
constexpr double kPointShare = 1.0 / 3;

std::string Quote(const std::string& label) {
  THEMIS_CHECK(label.find('\'') == std::string::npos) << label;
  return "'" + label + "'";
}

}  // namespace

core::ThemisOptions BenchThemisOptions() {
  core::ThemisOptions options;
  options.bn_group_by_samples = 10;
  options.bn_sample_rows = 0;
  options.aggregate_budget = 4;
  return options;
}

Result<Dataset> PrepareDataset(const std::string& dir, double scale) {
  ::mkdir(dir.c_str(), 0755);
  // The marker is written last, so an interrupted run rewrites every file.
  const std::string marker = dir + "/complete";
  const bool write = !FileExists(marker);

  Dataset dataset;
  dataset.scale = scale;
  dataset.relations.reserve(2);

  RelationData& flights = dataset.relations.emplace_back(
      "flights", workload::GenerateFlights(
                     {static_cast<size_t>(150000 * scale), /*seed=*/1}));
  THEMIS_ASSIGN_OR_RETURN(
      data::Table flights_sample,
      workload::MakeFlightsSample(flights.population, "Corners", 0.1, 8));
  flights.sample_rows = flights_sample.num_rows();
  flights.group_attrs = {0, 1, 2, 3, 4};
  THEMIS_RETURN_IF_ERROR(
      LayOutFiles(dir, {0, 1, 2, 3, 4}, flights_sample, write, &flights));

  RelationData& imdb = dataset.relations.emplace_back(
      "imdb", workload::GenerateImdb(
                  {static_cast<size_t>(80000 * scale), 2000, /*seed=*/2}));
  THEMIS_ASSIGN_OR_RETURN(
      data::Table imdb_sample,
      workload::MakeImdbSample(imdb.population, "R159", 0.1, 9));
  imdb.sample_rows = imdb_sample.num_rows();
  using workload::ImdbAttrs;
  // The actor name (2000 values) may be filtered on but never grouped by.
  imdb.group_attrs = {ImdbAttrs::kMovieYear, ImdbAttrs::kCountry,
                      ImdbAttrs::kGender,    ImdbAttrs::kBirth,
                      ImdbAttrs::kRating,    ImdbAttrs::kTopRank,
                      ImdbAttrs::kRuntime};
  THEMIS_RETURN_IF_ERROR(LayOutFiles(
      dir,
      {ImdbAttrs::kMovieYear, ImdbAttrs::kCountry, ImdbAttrs::kGender,
       ImdbAttrs::kRating, ImdbAttrs::kRuntime},
      imdb_sample, write, &imdb));

  if (write) std::ofstream(marker) << "ok\n";
  for (RelationData& relation : dataset.relations) {
    relation.truth = std::make_unique<sql::Executor>();
    relation.truth->RegisterTable(relation.name, &relation.population);
  }
  return dataset;
}

Status IngestRelation(const RelationData& relation, core::Catalog* catalog,
                      double* build_s) {
  THEMIS_ASSIGN_OR_RETURN(data::Table sample,
                          data::ReadCsv(relation.sample_csv));
  std::vector<aggregate::AggregateSpec> specs;
  for (const std::string& path : relation.aggregate_csvs) {
    THEMIS_ASSIGN_OR_RETURN(
        aggregate::AggregateSpec spec,
        aggregate::ReadAggregateCsv(*sample.schema(), path));
    specs.push_back(std::move(spec));
  }
  THEMIS_RETURN_IF_ERROR(catalog->InsertSample(relation.name,
                                               std::move(sample)));
  for (aggregate::AggregateSpec& spec : specs) {
    THEMIS_RETURN_IF_ERROR(
        catalog->InsertAggregate(relation.name, std::move(spec)));
  }
  Timer timer;
  THEMIS_RETURN_IF_ERROR(catalog->Build(relation.name));
  *build_s += timer.Seconds();
  return Status::OK();
}

Status PublishAggregate(const std::string& relation, const std::string& path,
                        core::Catalog* catalog) {
  const core::ThemisModel* model = catalog->model(relation);
  if (model == nullptr) {
    return Status::FailedPrecondition("relation '" + relation +
                                      "' is not built");
  }
  // The model's sample shares the schema object of the pending sample
  // the next Build reads, so values interned here reach that build.
  THEMIS_ASSIGN_OR_RETURN(
      aggregate::AggregateSpec spec,
      aggregate::ReadAggregateCsv(*model->reweighted_sample().schema(), path));
  return catalog->InsertAggregate(relation, std::move(spec));
}

QueryMix::QueryMix(const Dataset* data, uint64_t seed)
    : data_(data), rng_(seed) {
  // The shape lists are part of the workload definition, so they come
  // from a fixed seed; only the drawn values and the order follow `seed`.
  Rng shape_rng(20200614);
  for (const RelationData& relation : data_->relations) {
    const size_t num_attrs = relation.population.num_attributes();
    std::vector<size_t> all(num_attrs);
    for (size_t i = 0; i < num_attrs; ++i) all[i] = i;
    std::vector<std::vector<size_t>> sets;
    for (size_t d = 2; d <= 4; ++d) {
      for (auto& attrs : workload::AllSubsets(all, d)) {
        sets.push_back(std::move(attrs));
      }
    }
    point_sets_.push_back(std::move(sets));

    std::vector<Shape> shapes;
    for (size_t g = 1; g <= 2; ++g) {
      for (const auto& group : workload::AllSubsets(relation.group_attrs, g)) {
        std::vector<size_t> rest;
        for (size_t attr : all) {
          if (std::find(group.begin(), group.end(), attr) == group.end()) {
            rest.push_back(attr);
          }
        }
        for (size_t f = 1; f <= 2; ++f) {
          for (const auto& filters : workload::AllSubsets(rest, f)) {
            shapes.push_back({group, filters});
          }
        }
      }
    }
    std::shuffle(shapes.begin(), shapes.end(), shape_rng.engine());
    shapes.resize(std::min<size_t>(shapes.size(), 40));
    shapes_.push_back(std::move(shapes));
  }
}

bool QueryMix::Admit(QueryText* text) {
  if (!issued_.insert(text->sql).second) return false;
  server::WireRequest request;
  request.sql = text->sql;
  request.mode = core::AnswerMode::kHybrid;
  request.has_mode = true;
  text->line = server::EncodeRequest(request);
  return true;
}

QueryText QueryMix::MakePoint(uint32_t relation,
                              const std::vector<size_t>& attrs) {
  const RelationData& data = data_->relations[relation];
  const data::Table& population = data.population;
  const data::Schema& schema = *population.schema();
  const size_t row = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(population.num_rows()) - 1));
  QueryText text;
  text.relation = relation;
  text.sql = "SELECT COUNT(*) FROM " + data.name + " WHERE ";
  for (size_t i = 0; i < attrs.size(); ++i) {
    if (i > 0) text.sql += " AND ";
    text.sql += schema.attribute_name(attrs[i]) + " = " +
                Quote(schema.domain(attrs[i]).Label(
                    population.Get(row, attrs[i])));
  }
  return text;
}

QueryText QueryMix::MakeGroupBy(uint32_t relation, const Shape& shape) {
  const RelationData& data = data_->relations[relation];
  const data::Table& population = data.population;
  const data::Schema& schema = *population.schema();
  const size_t row = static_cast<size_t>(
      rng_.UniformInt(0, static_cast<int64_t>(population.num_rows()) - 1));
  std::string group;
  for (size_t attr : shape.group) {
    if (!group.empty()) group += ", ";
    group += schema.attribute_name(attr);
  }
  QueryText text;
  text.relation = relation;
  text.sql = "SELECT " + group + ", COUNT(*) FROM " + data.name + " WHERE ";
  for (size_t i = 0; i < shape.filters.size(); ++i) {
    const size_t attr = shape.filters[i];
    if (i > 0) text.sql += " AND ";
    text.sql += schema.attribute_name(attr) + " = " +
                Quote(schema.domain(attr).Label(population.Get(row, attr)));
  }
  text.sql += " GROUP BY " + group;
  return text;
}

QueryText QueryMix::Next() {
  for (int attempt = 0; attempt < 100000; ++attempt) {
    const uint32_t relation = static_cast<uint32_t>(rng_.UniformInt(0, 1));
    QueryText text;
    if (rng_.UniformDouble() < kPointShare) {
      const auto& sets = point_sets_[relation];
      text = MakePoint(relation, sets[static_cast<size_t>(rng_.UniformInt(
                                     0, static_cast<int64_t>(sets.size()) - 1))]);
    } else {
      const auto& shapes = shapes_[relation];
      text = MakeGroupBy(
          relation, shapes[static_cast<size_t>(rng_.UniformInt(
                        0, static_cast<int64_t>(shapes.size()) - 1))]);
    }
    if (Admit(&text)) return text;
  }
  THEMIS_CHECK(false) << "query mix exhausted: no fresh text in 100000 draws";
  return {};
}

std::vector<QueryText> QueryMix::CoverEveryShape() {
  std::vector<QueryText> texts;
  for (uint32_t relation = 0; relation < point_sets_.size(); ++relation) {
    for (const auto& attrs : point_sets_[relation]) {
      for (;;) {
        QueryText text = MakePoint(relation, attrs);
        if (Admit(&text)) {
          texts.push_back(std::move(text));
          break;
        }
      }
    }
    for (const Shape& shape : shapes_[relation]) {
      for (;;) {
        QueryText text = MakeGroupBy(relation, shape);
        if (Admit(&text)) {
          texts.push_back(std::move(text));
          break;
        }
      }
    }
  }
  return texts;
}

double AnswerErrorPct(const sql::QueryResult& truth,
                      const sql::QueryResult& answer) {
  std::map<std::vector<std::string>, double> exact;
  for (const sql::ResultRow& row : truth.rows) exact[row.group] = row.values[0];
  if (exact.empty() && answer.rows.empty()) return 0.0;
  double total = 0;
  size_t count = 0;
  for (const sql::ResultRow& row : answer.rows) {
    auto it = exact.find(row.group);
    total += it == exact.end()
                 ? stats::kMaxPercentDifference
                 : stats::PercentDifference(it->second, row.values[0]);
    ++count;
    if (it != exact.end()) exact.erase(it);
  }
  // Groups the answer missed.
  total += stats::kMaxPercentDifference * static_cast<double>(exact.size());
  count += exact.size();
  return total / static_cast<double>(count);
}

}  // namespace themis::perfbench
