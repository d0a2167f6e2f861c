#include "aggregate/aggregate_io.h"

#include <algorithm>
#include <fstream>

#include "data/csv.h"
#include "util/string_util.h"

namespace themis::aggregate {

Status WriteAggregateCsv(const AggregateSpec& spec,
                         const data::Schema& schema,
                         const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  for (size_t attr : spec.attrs) {
    out << CsvEscape(schema.attribute_name(attr)) << ",";
  }
  out << "count\n";
  for (const auto& [key, count] : spec.groups) {
    for (size_t i = 0; i < spec.attrs.size(); ++i) {
      out << CsvEscape(schema.domain(spec.attrs[i]).Label(key[i])) << ",";
    }
    out << count << "\n";
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<AggregateSpec> ReadAggregateCsv(data::Schema& schema,
                                       const std::string& path) {
  THEMIS_ASSIGN_OR_RETURN(data::CsvParser csv, data::CsvParser::Open(path));
  if (!csv.Next(/*skip_blank=*/false)) {
    THEMIS_RETURN_IF_ERROR(csv.status());
    return Status::ParseError("empty aggregate file '" + path + "'");
  }
  const std::vector<std::string_view> header = csv.fields();
  if (header.size() < 2 || Trim(header.back()) != "count") {
    return Status::ParseError(
        "aggregate CSV header must be attr[,attr...],count");
  }
  AggregateSpec spec;
  std::vector<size_t> file_attrs;  // attrs in file column order
  for (size_t i = 0; i + 1 < header.size(); ++i) {
    THEMIS_ASSIGN_OR_RETURN(
        size_t idx, schema.AttributeIndex(std::string(Trim(header[i]))));
    file_attrs.push_back(idx);
  }
  // Keys must follow sorted-attr order (AggregateSpec invariant).
  std::vector<size_t> sorted = file_attrs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> positions(file_attrs.size());
  for (size_t i = 0; i < file_attrs.size(); ++i) {
    positions[i] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), file_attrs[i]) -
        sorted.begin());
  }
  spec.attrs = sorted;

  while (csv.Next()) {
    const std::vector<std::string_view>& fields = csv.fields();
    if (fields.size() != header.size()) {
      return Status::ParseError(
          StrFormat("'%s' line %zu: expected %zu fields, got %zu",
                    path.c_str(), csv.line(), header.size(), fields.size()));
    }
    data::TupleKey key(file_attrs.size());
    for (size_t i = 0; i < file_attrs.size(); ++i) {
      key[positions[i]] = schema.domain(file_attrs[i]).Intern(Trim(fields[i]));
    }
    double count = 0;
    if (!data::ParseCsvNumber(fields.back(), &count) || count < 0) {
      return Status::ParseError(StrFormat("'%s' line %zu: bad count '%s'",
                                          path.c_str(), csv.line(),
                                          std::string(fields.back()).c_str()));
    }
    spec.groups.emplace_back(std::move(key), count);
  }
  THEMIS_RETURN_IF_ERROR(csv.status());
  std::sort(spec.groups.begin(), spec.groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return spec;
}

}  // namespace themis::aggregate
