#include "data/csv.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cctype>
#include <cmath>
#include <cstdlib>
#include <fstream>

#include "util/string_util.h"

namespace themis::data {

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out) return Status::IoError("cannot open '" + path + "' for write");
  const Schema& schema = *table.schema();
  for (size_t a = 0; a < schema.num_attributes(); ++a) {
    out << CsvEscape(schema.attribute_name(a)) << ",";
  }
  out << "weight\n";
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t a = 0; a < schema.num_attributes(); ++a) {
      out << CsvEscape(schema.domain(a).Label(table.Get(r, a))) << ",";
    }
    out << table.weight(r) << "\n";
  }
  if (!out) return Status::IoError("write to '" + path + "' failed");
  return Status::OK();
}

Result<CsvParser> CsvParser::Open(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Status::IoError("cannot open '" + path + "' for read");
  CsvParser csv(path);
  struct stat st;
  if (::fstat(fd, &st) == 0 && S_ISREG(st.st_mode)) {
    csv.buffer_.reserve(static_cast<size_t>(st.st_size));
  }
  char chunk[1 << 16];
  ssize_t got;
  while ((got = ::read(fd, chunk, sizeof(chunk))) > 0) {
    csv.buffer_.append(chunk, static_cast<size_t>(got));
  }
  ::close(fd);
  if (got < 0) return Status::IoError("read from '" + path + "' failed");
  return csv;
}

bool CsvParser::Next(bool skip_blank) {
  fields_.clear();
  char* const data = buffer_.data();
  const size_t size = buffer_.size();
  // A physical line of whitespace only is blank, as Trim sees it.
  while (skip_blank && pos_ < size) {
    size_t p = pos_;
    while (p < size && data[p] != '\n' &&
           std::isspace(static_cast<unsigned char>(data[p]))) {
      ++p;
    }
    if (p < size && data[p] != '\n') break;
    pos_ = p < size ? p + 1 : size;
    ++next_line_;
  }
  if (pos_ >= size || !status_.ok()) return false;

  line_ = next_line_;
  size_t p = pos_;
  while (true) {
    const size_t start = p;
    while (p < size && data[p] != ',' && data[p] != '\n' && data[p] != '"') {
      ++p;
    }
    size_t end = p;
    if (p < size && data[p] == '"') {
      // Unescape in place: the write cursor never passes the read cursor.
      bool quoted = false;
      while (p < size) {
        const char c = data[p];
        if (quoted) {
          if (c == '"') {
            if (p + 1 < size && data[p + 1] == '"') {
              data[end++] = '"';
              p += 2;
            } else {
              quoted = false;
              ++p;
            }
            continue;
          }
          if (c == '\n') ++next_line_;
        } else if (c == '"') {
          quoted = true;
          ++p;
          continue;
        } else if (c == ',' || c == '\n') {
          break;
        }
        data[end++] = c;
        ++p;
      }
      if (quoted) {
        status_ = Status::ParseError(
            StrFormat("CSV '%s' line %zu: unterminated quoted field",
                      path_.c_str(), line_));
        pos_ = size;
        fields_.clear();
        return false;
      }
    }
    fields_.emplace_back(data + start, end - start);
    if (p < size && data[p] == ',') {
      ++p;
      continue;
    }
    if (p < size) {  // the record's newline
      ++p;
      ++next_line_;
    }
    pos_ = p;
    return true;
  }
}

bool ParseCsvNumber(std::string_view field, double* value) {
  // strtod needs a terminated string; the copy also stops it at an
  // embedded NUL, as it stopped on a std::string field before.
  const std::string text(field);
  char* end = nullptr;
  *value = std::strtod(text.c_str(), &end);
  return end != text.c_str() && std::isfinite(*value);
}

Result<Table> ReadCsv(const std::string& path) {
  THEMIS_ASSIGN_OR_RETURN(CsvParser csv, CsvParser::Open(path));
  if (!csv.Next(/*skip_blank=*/false)) {
    THEMIS_RETURN_IF_ERROR(csv.status());
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  const std::vector<std::string_view> header = csv.fields();
  const bool has_weight = !header.empty() && header.back() == "weight";
  const size_t num_attrs = has_weight ? header.size() - 1 : header.size();
  if (num_attrs == 0) {
    return Status::ParseError("CSV '" + path + "' has no attribute columns");
  }
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < num_attrs; ++a) {
    schema->AddAttribute(std::string(Trim(header[a])));
  }
  Table table(schema);
  std::vector<ValueCode> codes(num_attrs);
  while (csv.Next()) {
    const std::vector<std::string_view>& fields = csv.fields();
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat(
          "CSV '%s' line %zu: expected %zu fields, got %zu", path.c_str(),
          csv.line(), header.size(), fields.size()));
    }
    for (size_t a = 0; a < num_attrs; ++a) {
      codes[a] = schema->domain(a).Intern(fields[a]);
    }
    table.AppendRow(codes);
    if (has_weight) {
      double w = 0;
      if (!ParseCsvNumber(fields.back(), &w)) {
        return Status::ParseError(StrFormat(
            "CSV '%s' line %zu: bad weight '%s'", path.c_str(), csv.line(),
            std::string(fields.back()).c_str()));
      }
      table.set_weight(table.num_rows() - 1, w);
    }
  }
  THEMIS_RETURN_IF_ERROR(csv.status());
  return table;
}

}  // namespace themis::data
