#ifndef THEMIS_DATA_CSV_H_
#define THEMIS_DATA_CSV_H_

#include <string>
#include <string_view>
#include <vector>

#include "data/table.h"
#include "util/status.h"

namespace themis::data {

/// Writes `table` to `path` as CSV: header row of attribute names plus a
/// trailing "weight" column; one row per tuple using display labels.
Status WriteCsv(const Table& table, const std::string& path);

/// Reads a CSV produced by WriteCsv (or any header-first CSV whose final
/// column may optionally be named "weight"). Labels are interned into a
/// fresh schema. A weight must be a finite number.
Result<Table> ReadCsv(const std::string& path);

/// The record parser under ReadCsv and aggregate::ReadAggregateCsv: one
/// pass over the whole file's bytes. Fields follow SplitCsvLine's rules (a
/// double quote toggles quoting anywhere in a field, "" inside quotes is a
/// literal quote, \r is an ordinary byte), and a newline inside quotes
/// belongs to the field. Fields are views into the parser's buffer; a
/// quoted field is unescaped in place, once.
///
///   THEMIS_ASSIGN_OR_RETURN(CsvParser csv, CsvParser::Open(path));
///   while (csv.Next()) Use(csv.fields(), csv.line());
///   THEMIS_RETURN_IF_ERROR(csv.status());
class CsvParser {
 public:
  /// Reads all of `path` into memory; IoError when it cannot be opened or
  /// read.
  static Result<CsvParser> Open(const std::string& path);

  /// Parses the next record into fields(). With `skip_blank`, physical
  /// lines holding only whitespace are skipped first. Returns false at the
  /// end of the input, or on a parse error (see status()).
  bool Next(bool skip_blank = true);

  /// The fields of the last record Next returned. A view stays valid until
  /// the parser is moved or destroyed; the vector is reused by the next
  /// call.
  const std::vector<std::string_view>& fields() const { return fields_; }

  /// Physical line (1-based) on which the last record began.
  size_t line() const { return line_; }

  /// ParseError when a quoted field is still open at the end of the file.
  const Status& status() const { return status_; }

 private:
  explicit CsvParser(std::string path) : path_(std::move(path)) {}

  std::string path_;
  std::string buffer_;  // the file's bytes, unescaped in place
  size_t pos_ = 0;
  size_t line_ = 0;
  size_t next_line_ = 1;
  std::vector<std::string_view> fields_;
  Status status_;
};

/// Parses a numeric CSV field the way std::strtod reads it (leading
/// whitespace and trailing bytes after the number are ignored). False when
/// the field starts with no number or the number is not finite.
bool ParseCsvNumber(std::string_view field, double* value);

}  // namespace themis::data

#endif  // THEMIS_DATA_CSV_H_
