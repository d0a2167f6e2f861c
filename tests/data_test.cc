#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <random>
#include <thread>
#include <unordered_map>
#include <vector>

#include "aggregate/aggregate.h"
#include "aggregate/aggregate_io.h"
#include "data/bucketize.h"
#include "data/csv.h"
#include "data/domain.h"
#include "data/posting_index.h"
#include "data/schema.h"
#include "data/table.h"
#include "util/string_util.h"

namespace themis::data {
namespace {

TEST(DomainTest, InternAssignsSequentialCodes) {
  Domain d("state");
  EXPECT_EQ(d.Intern("CA"), 0);
  EXPECT_EQ(d.Intern("NY"), 1);
  EXPECT_EQ(d.Intern("CA"), 0);  // idempotent
  EXPECT_EQ(d.size(), 2u);
}

TEST(DomainTest, FixedDomainLookup) {
  Domain d("m", {"01", "02", "03"});
  EXPECT_EQ(d.size(), 3u);
  auto code = d.Code("02");
  ASSERT_TRUE(code.ok());
  EXPECT_EQ(*code, 1);
  EXPECT_FALSE(d.Code("04").ok());
  EXPECT_TRUE(d.Contains("03"));
  EXPECT_FALSE(d.Contains("x"));
  EXPECT_EQ(d.Label(2), "03");
}

TEST(SchemaTest, AttributeIndexing) {
  Schema s;
  EXPECT_EQ(s.AddAttribute("a"), 0u);
  EXPECT_EQ(s.AddAttribute("b", {"x", "y"}), 1u);
  EXPECT_EQ(s.num_attributes(), 2u);
  auto idx = s.AttributeIndex("b");
  ASSERT_TRUE(idx.ok());
  EXPECT_EQ(*idx, 1u);
  EXPECT_FALSE(s.AttributeIndex("zzz").ok());
  EXPECT_EQ(s.AttributeNames(), (std::vector<std::string>{"a", "b"}));
}

SchemaPtr TwoAttrSchema() {
  auto schema = std::make_shared<Schema>();
  schema->AddAttribute("x", {"a", "b", "c"});
  schema->AddAttribute("y", {"0", "1"});
  return schema;
}

TEST(TableTest, AppendAndGet) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 1});
  t.AppendRowLabels({"c", "0"});
  EXPECT_EQ(t.num_rows(), 2u);
  EXPECT_EQ(t.Get(0, 0), 0);
  EXPECT_EQ(t.Get(1, 0), 2);
  EXPECT_EQ(t.Get(1, 1), 0);
}

TEST(TableTest, WeightsDefaultToOne) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 1});
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 2.0);
  t.set_weight(0, 5.0);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 6.0);
  t.FillWeights(2.0);
  EXPECT_DOUBLE_EQ(t.TotalWeight(), 4.0);
}

TEST(TableTest, GroupWeightsSumsEachKey) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({0, 1});
  t.AppendRow({0, 0});
  t.set_weight(2, 3.0);
  auto weights = t.GroupWeights({0, 1});
  EXPECT_EQ(weights.size(), 2u);
  EXPECT_DOUBLE_EQ((weights[{0, 0}]), 4.0);
  EXPECT_DOUBLE_EQ((weights[{0, 1}]), 1.0);
}

TEST(TableTest, GroupBySubsetOfAttrs) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 0});
  t.AppendRow({0, 1});
  auto groups = t.GroupWeights({1});
  EXPECT_DOUBLE_EQ(groups[{0}], 2.0);
  EXPECT_DOUBLE_EQ(groups[{1}], 1.0);
}

using GroupMap = std::unordered_map<TupleKey, double, TupleKeyHash>;

/// The group-by as one key probe per row, ascending: the oracle
/// Table::GroupWeights' dense count must reproduce.
GroupMap GroupWeightsByRow(const Table& table,
                           const std::vector<size_t>& attrs) {
  GroupMap groups;
  for (size_t r = 0; r < table.num_rows(); ++r) {
    groups[table.KeyFor(r, attrs)] += table.weight(r);
  }
  return groups;
}

/// Same size, bucket count and iteration sequence, values bitwise.
void ExpectSameGroups(const GroupMap& got, const GroupMap& want) {
  ASSERT_EQ(got.size(), want.size());
  EXPECT_EQ(got.bucket_count(), want.bucket_count());
  auto g = got.begin();
  for (auto w = want.begin(); w != want.end(); ++w, ++g) {
    ASSERT_EQ(g->first, w->first);
    EXPECT_EQ(std::bit_cast<uint64_t>(g->second),
              std::bit_cast<uint64_t>(w->second));
  }
}

/// `rows` rows over attributes with codes in [0, sizes[a]), a `null_share`
/// of them null, and non-unit weights spanning several magnitudes.
Table RandomCodeTable(const std::vector<size_t>& sizes, size_t rows,
                      double null_share, std::mt19937_64& rng) {
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < sizes.size(); ++a) {
    schema->AddAttribute("a" + std::to_string(a));
  }
  Table table(schema);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::vector<ValueCode> codes(sizes.size());
  for (size_t r = 0; r < rows; ++r) {
    for (size_t a = 0; a < sizes.size(); ++a) {
      codes[a] = unit(rng) < null_share
                     ? kNullCode
                     : static_cast<ValueCode>(rng() % sizes[a]);
    }
    table.AppendRow(codes);
    table.set_weight(r, unit(rng) * std::pow(10.0, (rng() % 9) - 4.0));
  }
  return table;
}

TEST(GroupWeightsDifferentialTest, MatchesTheRowLoopBitwise) {
  std::mt19937_64 rng(20200614);
  const size_t kSizes[] = {1, 2, 3, 7, 20, 300};
  for (int trial = 0; trial < 60; ++trial) {
    std::vector<size_t> sizes(4);
    for (size_t& n : sizes) n = kSizes[rng() % std::size(kSizes)];
    const Table table = RandomCodeTable(sizes, rng() % 3000,
                                        trial % 2 == 0 ? 0.0 : 0.1, rng);
    // 1-4 distinct attributes in a random order.
    std::vector<size_t> attrs = {0, 1, 2, 3};
    std::shuffle(attrs.begin(), attrs.end(), rng);
    attrs.resize(1 + rng() % 4);
    SCOPED_TRACE("trial " + std::to_string(trial));
    ExpectSameGroups(table.GroupWeights(attrs),
                     GroupWeightsByRow(table, attrs));
  }
}

TEST(GroupWeightsDifferentialTest, EveryCountingPathMatches) {
  std::mt19937_64 rng(7);
  // 70,001^2 cells exceed max(kDenseGroupCells, 4 * rows) and 70,001^4
  // exceeds 64 bits: both take the key-at-a-time loop.
  const Table sparse = RandomCodeTable({70000, 70000, 70000, 70000}, 900,
                                       0.05, rng);
  ASSERT_GT(70001ull * 70001ull, Table::kDenseGroupCells);
  for (const std::vector<size_t>& attrs :
       {std::vector<size_t>{0}, {0, 1}, {3, 1, 2}, {0, 1, 2, 3}}) {
    ExpectSameGroups(sparse.GroupWeights(attrs),
                     GroupWeightsByRow(sparse, attrs));
  }
  // No attributes: one group with the empty key. No rows: no groups.
  Table table = RandomCodeTable({3, 5}, 400, 0.1, rng);
  ExpectSameGroups(table.GroupWeights({}), GroupWeightsByRow(table, {}));
  const Table empty = RandomCodeTable({3, 5}, 0, 0.0, rng);
  EXPECT_TRUE(empty.GroupWeights({0, 1}).empty());
  // A code below kNullCode also takes the key-at-a-time loop.
  table.Set(17, 1, -5);
  ExpectSameGroups(table.GroupWeights({0, 1}),
                   GroupWeightsByRow(table, {0, 1}));
}

TEST(TableTest, FilterPreservesWeights) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  t.AppendRow({1, 1});
  t.set_weight(1, 7.0);
  Table f = t.Filter({false, true});
  EXPECT_EQ(f.num_rows(), 1u);
  EXPECT_EQ(f.Get(0, 0), 1);
  EXPECT_DOUBLE_EQ(f.weight(0), 7.0);
}

TEST(TableTest, CloneIsIndependent) {
  Table t(TwoAttrSchema());
  t.AppendRow({0, 0});
  Table c = t.Clone();
  c.set_weight(0, 9.0);
  EXPECT_DOUBLE_EQ(t.weight(0), 1.0);
  EXPECT_DOUBLE_EQ(c.weight(0), 9.0);
}

TEST(BucketizerTest, BucketsAndClamping) {
  EquiWidthBucketizer b(0, 100, 10);
  EXPECT_EQ(b.Bucket(0), 0u);
  EXPECT_EQ(b.Bucket(5), 0u);
  EXPECT_EQ(b.Bucket(10), 1u);
  EXPECT_EQ(b.Bucket(99.9), 9u);
  EXPECT_EQ(b.Bucket(100), 9u);   // clamped
  EXPECT_EQ(b.Bucket(-5), 0u);    // clamped
  EXPECT_EQ(b.Bucket(1e9), 9u);   // clamped
}

TEST(BucketizerTest, LabelsAndMidpoints) {
  EquiWidthBucketizer b(0, 30, 3);
  EXPECT_EQ(b.Label(0), "[0,10)");
  EXPECT_EQ(b.Label(2), "[20,30)");
  EXPECT_DOUBLE_EQ(b.Midpoint(1), 15.0);
  EXPECT_EQ(b.Labels().size(), 3u);
}

TEST(CsvTest, RoundTrip) {
  Table t(TwoAttrSchema());
  t.AppendRowLabels({"a", "1"});
  t.AppendRowLabels({"b", "0"});
  t.set_weight(0, 2.5);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_test.csv";
  ASSERT_TRUE(WriteCsv(t, path).ok());
  auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->num_rows(), 2u);
  EXPECT_EQ(loaded->schema()->num_attributes(), 2u);
  EXPECT_EQ(loaded->schema()->domain(0).Label(loaded->Get(0, 0)), "a");
  EXPECT_DOUBLE_EQ(loaded->weight(0), 2.5);
  EXPECT_DOUBLE_EQ(loaded->weight(1), 1.0);
  std::remove(path.c_str());
}

TEST(CsvTest, MissingFileFails) {
  EXPECT_FALSE(ReadCsv("/nonexistent/path.csv").ok());
}

TEST(CsvTest, RaggedRowFails) {
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_bad.csv";
  {
    std::FILE* f = std::fopen(path.c_str(), "w");
    std::fputs("a,b,weight\n1,2,1\n1\n", f);
    std::fclose(f);
  }
  EXPECT_FALSE(ReadCsv(path).ok());
  std::remove(path.c_str());
}

/// Writes `contents` verbatim to a temp file named `name`; returns its path.
std::string TempFile(const std::string& name, const std::string& contents) {
  const std::string path = std::filesystem::temp_directory_path() / name;
  std::ofstream(path, std::ios::binary) << contents;
  return path;
}

TEST(CsvTest, NonFiniteWeightFails) {
  for (const char* weight : {"nan", "NaN", "inf", "-inf", "1e999"}) {
    SCOPED_TRACE(weight);
    const std::string path =
        TempFile("themis_csv_nonfinite.csv",
                 std::string("a,weight\nx,1\ny,") + weight + "\n");
    const auto table = ReadCsv(path);
    ASSERT_FALSE(table.ok());
    EXPECT_EQ(table.status().code(), StatusCode::kParseError);
    EXPECT_NE(table.status().message().find(path), std::string::npos);
    EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
    std::remove(path.c_str());
  }
}

TEST(CsvTest, UnterminatedQuoteFails) {
  const std::string path =
      TempFile("themis_csv_unterminated.csv", "a,weight\n\"x,1\ny,2\n");
  const auto table = ReadCsv(path);
  ASSERT_FALSE(table.ok());
  EXPECT_EQ(table.status().code(), StatusCode::kParseError);
  EXPECT_NE(table.status().message().find("line 2"), std::string::npos);
  std::remove(path.c_str());
}

TEST(CsvTest, QuotedNewlineRoundTrips) {
  auto schema = std::make_shared<Schema>();
  schema->AddAttribute("x", {"one\nline", "plain", "two\n\"quoted\"\nlines"});
  schema->AddAttribute("y", {"0", "1,\n2"});
  Table table(schema);
  table.AppendRow({0, 1});
  table.AppendRow({2, 0});
  table.AppendRow({1, 1});
  table.set_weight(1, 2.5);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_newline.csv";
  ASSERT_TRUE(WriteCsv(table, path).ok());
  const auto loaded = ReadCsv(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ASSERT_EQ(loaded->num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    for (size_t a = 0; a < 2; ++a) {
      EXPECT_EQ(loaded->schema()->domain(a).Label(loaded->Get(r, a)),
                schema->domain(a).Label(table.Get(r, a)));
    }
    EXPECT_EQ(loaded->weight(r), table.weight(r));
  }
  std::remove(path.c_str());

  aggregate::AggregateSpec spec;
  spec.attrs = {0, 1};
  spec.groups = {{{0, 0}, 4}, {{0, 1}, 1}, {{2, 1}, 7}};
  const std::string agg_path = std::filesystem::temp_directory_path() /
                               "themis_csv_newline_agg.csv";
  ASSERT_TRUE(aggregate::WriteAggregateCsv(spec, *schema, agg_path).ok());
  auto fresh = std::make_shared<Schema>();
  fresh->AddAttribute("x");
  fresh->AddAttribute("y");
  const auto read = aggregate::ReadAggregateCsv(*fresh, agg_path);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  ASSERT_EQ(read->groups.size(), spec.groups.size());
  for (size_t g = 0; g < spec.groups.size(); ++g) {
    for (size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(fresh->domain(i).Label(read->groups[g].first[i]),
                schema->domain(i).Label(spec.groups[g].first[i]));
    }
    EXPECT_EQ(read->groups[g].second, spec.groups[g].second);
  }
  std::remove(agg_path.c_str());

  // Error lines count physical lines, quoted newlines included.
  const std::string ragged =
      TempFile("themis_csv_newline_bad.csv", "a,weight\n\"x\ny\",1\nz\n");
  const auto bad = ReadCsv(ragged);
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().message().find("line 4: expected 2 fields, got 1"),
            std::string::npos)
      << bad.status().message();
  std::remove(ragged.c_str());
}

/// One record: its physical line and its fields.
using Record = std::pair<size_t, std::vector<std::string>>;

/// The records getline + SplitCsvLine read: the first line as the
/// header, then every line that is not whitespace only.
std::vector<Record> LineRecords(const std::string& path) {
  std::ifstream in(path);
  std::vector<Record> records;
  std::string line;
  for (size_t line_no = 1; std::getline(in, line); ++line_no) {
    if (line_no > 1 && Trim(line).empty()) continue;
    records.emplace_back(line_no, SplitCsvLine(line));
  }
  return records;
}

std::vector<Record> ParserRecords(const std::string& path) {
  auto csv = CsvParser::Open(path);
  EXPECT_TRUE(csv.ok());
  std::vector<Record> records;
  for (bool header = true; csv->Next(/*skip_blank=*/!header); header = false) {
    records.emplace_back(csv->line(), std::vector<std::string>(
                                          csv->fields().begin(),
                                          csv->fields().end()));
  }
  EXPECT_TRUE(csv->status().ok());
  return records;
}

/// ReadCsv as getline + SplitCsvLine implemented it: the oracle of the
/// record parser's ReadCsv on files without quoted newlines.
Result<Table> LineReadCsv(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty CSV file '" + path + "'");
  }
  std::vector<std::string> header = SplitCsvLine(line);
  bool has_weight = !header.empty() && header.back() == "weight";
  size_t num_attrs = has_weight ? header.size() - 1 : header.size();
  if (num_attrs == 0) {
    return Status::ParseError("CSV '" + path + "' has no attribute columns");
  }
  auto schema = std::make_shared<Schema>();
  for (size_t a = 0; a < num_attrs; ++a) {
    schema->AddAttribute(std::string(Trim(header[a])));
  }
  Table table(schema);
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return Status::ParseError(StrFormat(
          "CSV '%s' line %zu: expected %zu fields, got %zu", path.c_str(),
          line_no, header.size(), fields.size()));
    }
    std::vector<std::string> labels(fields.begin(),
                                    fields.begin() + num_attrs);
    table.AppendRowLabels(labels);
    if (has_weight) {
      char* end = nullptr;
      double w = std::strtod(fields.back().c_str(), &end);
      if (end == fields.back().c_str()) {
        return Status::ParseError(
            StrFormat("CSV '%s' line %zu: bad weight '%s'", path.c_str(),
                      line_no, fields.back().c_str()));
      }
      table.set_weight(table.num_rows() - 1, w);
    }
  }
  return table;
}

/// ReadAggregateCsv as getline + SplitCsvLine implemented it.
Result<aggregate::AggregateSpec> LineReadAggregateCsv(Schema& schema,
                                                      const std::string& path) {
  std::ifstream in(path);
  std::string line;
  if (!std::getline(in, line)) {
    return Status::ParseError("empty aggregate file '" + path + "'");
  }
  std::vector<std::string> header = SplitCsvLine(line);
  if (header.size() < 2 || Trim(header.back()) != "count") {
    return Status::ParseError(
        "aggregate CSV header must be attr[,attr...],count");
  }
  aggregate::AggregateSpec spec;
  std::vector<size_t> file_attrs;
  for (size_t i = 0; i + 1 < header.size(); ++i) {
    THEMIS_ASSIGN_OR_RETURN(
        size_t idx, schema.AttributeIndex(std::string(Trim(header[i]))));
    file_attrs.push_back(idx);
  }
  std::vector<size_t> sorted = file_attrs;
  std::sort(sorted.begin(), sorted.end());
  std::vector<size_t> positions(file_attrs.size());
  for (size_t i = 0; i < file_attrs.size(); ++i) {
    positions[i] = static_cast<size_t>(
        std::lower_bound(sorted.begin(), sorted.end(), file_attrs[i]) -
        sorted.begin());
  }
  spec.attrs = sorted;
  size_t line_no = 1;
  while (std::getline(in, line)) {
    ++line_no;
    if (Trim(line).empty()) continue;
    std::vector<std::string> fields = SplitCsvLine(line);
    if (fields.size() != header.size()) {
      return Status::ParseError(
          StrFormat("'%s' line %zu: expected %zu fields, got %zu",
                    path.c_str(), line_no, header.size(), fields.size()));
    }
    TupleKey key(file_attrs.size());
    for (size_t i = 0; i < file_attrs.size(); ++i) {
      key[positions[i]] = schema.domain(file_attrs[i])
                              .Intern(std::string(Trim(fields[i])));
    }
    char* end = nullptr;
    const double count = std::strtod(fields.back().c_str(), &end);
    if (end == fields.back().c_str() || count < 0) {
      return Status::ParseError(StrFormat("'%s' line %zu: bad count '%s'",
                                          path.c_str(), line_no,
                                          fields.back().c_str()));
    }
    spec.groups.emplace_back(std::move(key), count);
  }
  std::sort(spec.groups.begin(), spec.groups.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  return spec;
}

/// A random field with balanced quotes: plain text with spaces, tabs and
/// \r, a quoted field holding commas and doubled quotes, quotes opening
/// mid-field, empty fields, and numbers (sometimes malformed).
std::string RandomField(std::mt19937_64& rng) {
  static const char kChars[] = "abxyz019 .\t-";
  auto token = [&](size_t max_len) {
    std::string t;
    for (size_t i = rng() % (max_len + 1); i > 0; --i) {
      t += kChars[rng() % (sizeof(kChars) - 1)];
    }
    return t;
  };
  switch (rng() % 8) {
    case 0:
      return "";
    case 1:
      return "\"" + token(3) + ",\"\"" + token(2) + "\"";
    case 2:
      return token(2) + "\"" + token(2) + ",\"" + token(2);
    case 3:
      return "\"\"";
    case 4:
      return token(2) + "\r" + token(1);
    case 5:
      return std::to_string(rng() % 50) + "." + std::to_string(rng() % 10);
    case 6:
      return rng() % 4 == 0 ? "-3" : " 1e2x";
    default:
      return token(5);
  }
}

/// A random CSV file: `header` first, then rows of mostly `arity` fields
/// (sometimes one more or fewer) whose last field is mostly a number, blank and whitespace-only lines, mixed
/// \n and \r\n endings, and sometimes no final newline.
std::string RandomCsv(const std::string& header, size_t arity,
                      std::mt19937_64& rng) {
  auto ending = [&] { return rng() % 3 == 0 ? "\r\n" : "\n"; };
  std::string out = header + ending();
  const size_t rows = rng() % 40;
  for (size_t r = 0; r < rows; ++r) {
    switch (rng() % 12) {
      case 0:
        out += ending();
        continue;
      case 1:
        out += std::string(" \t \r").substr(0, 1 + rng() % 3) + ending();
        continue;
      default:
        break;
    }
    size_t fields = arity;
    if (rng() % 25 == 0) fields += rng() % 2 == 0 ? 1 : -1;
    for (size_t f = 0; f < fields; ++f) {
      if (f > 0) out += ',';
      // The weight or count column holds a number most of the time.
      out += f + 1 == fields && rng() % 8 != 0
                 ? std::to_string(rng() % 1000) + "." +
                       std::to_string(rng() % 100)
                 : RandomField(rng);
    }
    if (r + 1 < rows || rng() % 2 == 0) out += ending();
  }
  return out;
}

void ExpectSameStatus(const Status& got, const Status& want) {
  EXPECT_EQ(got.code(), want.code());
  EXPECT_EQ(got.message(), want.message());
}

TEST(CsvDifferentialTest, RecordsMatchLineSplitting) {
  std::mt19937_64 rng(4180);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_diff_records.csv";
  for (int trial = 0; trial < 300; ++trial) {
    std::ofstream(path, std::ios::binary)
        << RandomCsv("a,\"b,c\",weight", 3, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    EXPECT_EQ(ParserRecords(path), LineRecords(path));
  }
  std::remove(path.c_str());
}

TEST(CsvDifferentialTest, ReadCsvMatchesTheLineReader) {
  std::mt19937_64 rng(1994);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_diff_sample.csv";
  const char* kHeaders[] = {"a, b ,weight", "a,b,c", "\"a\",b,weight\r", ""};
  size_t accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const char* header = kHeaders[rng() % std::size(kHeaders)];
    std::ofstream(path, std::ios::binary) << RandomCsv(header, 3, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    const auto got = ReadCsv(path);
    const auto want = LineReadCsv(path);
    ExpectSameStatus(got.status(), want.status());
    if (!got.ok() || !want.ok()) continue;
    ++accepted;
    const Schema& gs = *got->schema();
    const Schema& ws = *want->schema();
    ASSERT_EQ(gs.AttributeNames(), ws.AttributeNames());
    ASSERT_EQ(got->num_rows(), want->num_rows());
    for (size_t a = 0; a < gs.num_attributes(); ++a) {
      EXPECT_EQ(gs.domain(a).labels(), ws.domain(a).labels());
      EXPECT_EQ(got->column(a), want->column(a));
    }
    for (size_t r = 0; r < got->num_rows(); ++r) {
      EXPECT_EQ(std::bit_cast<uint64_t>(got->weight(r)),
                std::bit_cast<uint64_t>(want->weight(r)));
    }
  }
  EXPECT_GT(accepted, 20u);  // the comparison covers parsed tables too
  std::remove(path.c_str());
}

TEST(CsvDifferentialTest, ReadAggregateCsvMatchesTheLineReader) {
  std::mt19937_64 rng(2020);
  const std::string path = std::filesystem::temp_directory_path() /
                           "themis_csv_diff_aggregate.csv";
  const char* kHeaders[] = {"b, a ,count", "c,count\r", "a,b,c,count",
                            "a,d,count", "count"};
  size_t accepted = 0;
  for (int trial = 0; trial < 300; ++trial) {
    const std::string header = kHeaders[rng() % std::size(kHeaders)];
    const size_t arity = Split(header, ',').size();
    std::ofstream(path, std::ios::binary) << RandomCsv(header, arity, rng);
    SCOPED_TRACE("trial " + std::to_string(trial));
    auto make_schema = [] {
      Schema schema;
      for (const char* name : {"a", "b", "c"}) schema.AddAttribute(name);
      return schema;
    };
    Schema got_schema = make_schema();
    Schema want_schema = make_schema();
    const auto got = aggregate::ReadAggregateCsv(got_schema, path);
    const auto want = LineReadAggregateCsv(want_schema, path);
    ExpectSameStatus(got.status(), want.status());
    if (!got.ok() || !want.ok()) continue;
    ++accepted;
    EXPECT_EQ(got->attrs, want->attrs);
    ASSERT_EQ(got->groups.size(), want->groups.size());
    for (size_t g = 0; g < got->groups.size(); ++g) {
      EXPECT_EQ(got->groups[g].first, want->groups[g].first);
      EXPECT_EQ(std::bit_cast<uint64_t>(got->groups[g].second),
                std::bit_cast<uint64_t>(want->groups[g].second));
    }
    for (size_t a = 0; a < 3; ++a) {
      EXPECT_EQ(got_schema.domain(a).labels(),
                want_schema.domain(a).labels());
    }
  }
  EXPECT_GT(accepted, 20u);
  std::remove(path.c_str());
}

/// A table over two attributes (7 and 300 codes) with more rows than
/// two posting blocks, so lists span three uint16 blocks.
Table MakeIndexedTable(size_t rows) {
  auto schema = std::make_shared<Schema>();
  std::vector<std::string> small;
  std::vector<std::string> large;
  for (int i = 0; i < 7; ++i) small.push_back("s" + std::to_string(i));
  for (int i = 0; i < 300; ++i) large.push_back("l" + std::to_string(i));
  schema->AddAttribute("small", small);
  schema->AddAttribute("large", large);
  Table table(schema);
  table.Reserve(rows);
  std::mt19937_64 rng(7);
  for (size_t r = 0; r < rows; ++r) {
    table.AppendRow({static_cast<ValueCode>(rng() % 7),
                     static_cast<ValueCode>(rng() % 300)});
  }
  return table;
}

/// The rows of `table` holding `code` in `attr` within [lo, hi), by scan.
std::vector<uint32_t> ScanRows(const Table& table, size_t attr,
                               ValueCode code, size_t lo, size_t hi) {
  std::vector<uint32_t> rows;
  for (size_t r = lo; r < hi; ++r) {
    if (table.Get(r, attr) == code) rows.push_back(static_cast<uint32_t>(r));
  }
  return rows;
}

TEST(PostingIndexTest, ListsEqualAColumnScan) {
  const Table table = MakeIndexedTable(2 * PostingList::kBlockRows + 4321);
  const PostingIndex index(&table);
  for (size_t attr = 0; attr < 2; ++attr) {
    const size_t codes = table.schema()->domain(attr).size();
    size_t total = 0;
    for (size_t c = 0; c < codes; ++c) {
      const ValueCode code = static_cast<ValueCode>(c);
      const PostingList list = index.List(attr, code);
      std::vector<uint32_t> rows;
      list.ForEachRow([&](uint32_t r) { rows.push_back(r); });
      EXPECT_EQ(rows, ScanRows(table, attr, code, 0, table.num_rows()));
      EXPECT_EQ(list.size(), rows.size());
      total += list.size();
    }
    EXPECT_EQ(total, table.num_rows());
  }
}

TEST(PostingIndexTest, RowsInCutsAtAnyRangeAcrossBlocks) {
  const Table table = MakeIndexedTable(2 * PostingList::kBlockRows + 4321);
  const PostingIndex index(&table);
  const uint32_t block = PostingList::kBlockRows;
  const uint32_t n = static_cast<uint32_t>(table.num_rows());
  const std::vector<std::pair<uint32_t, uint32_t>> ranges = {
      {0, n},
      {0, block},
      {block, 2 * block},
      {block - 5, block + 5},          // straddles a block boundary
      {block - 1000, 2 * block + 17},  // spans a whole block
      {2 * block, n},                  // the partial last block
      {12345, 12346},
      {777, 777},                      // empty range
      {n - 3, n}};
  // Every row holds one of the 7 codes, so each range bound that is a
  // row lands in exactly one list.
  for (ValueCode code = 0; code < 7; ++code) {
    const PostingList list = index.List(0, code);
    for (const auto& [lo, hi] : ranges) {
      std::vector<uint32_t> out(list.size());
      out.resize(list.RowsIn(lo, hi, out.data()));
      EXPECT_EQ(out, ScanRows(table, 0, code, lo, hi))
          << "code " << code << " [" << lo << ", " << hi << ")";
    }
  }
}

TEST(PostingIndexTest, CodesOutsideTheDomainListNothing) {
  const Table table = MakeIndexedTable(1000);
  const PostingIndex index(&table);
  EXPECT_EQ(index.List(0, kNullCode).size(), 0u);
  EXPECT_EQ(index.List(0, 7).size(), 0u);
  EXPECT_EQ(index.List(1, 1 << 30).size(), 0u);
  uint32_t out[1];
  EXPECT_EQ(index.List(0, 7).RowsIn(0, 1000, out), 0u);

  const Table empty(table.schema());
  const PostingIndex empty_index(&empty);
  EXPECT_EQ(empty_index.List(1, 5).size(), 0u);
}

/// Several threads make the first List() call on the same attribute at
/// once: exactly one build runs, every caller sees the published lists,
/// and TSan sees the once-flag publication as race-free.
TEST(PostingIndexTest, ConcurrentFirstUseBuildsOnce) {
  const Table table = MakeIndexedTable(PostingList::kBlockRows + 999);
  const PostingIndex index(&table);
  constexpr size_t kThreads = 8;
  std::atomic<size_t> arrived{0};
  std::vector<std::vector<uint32_t>> seen(kThreads);
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      arrived.fetch_add(1);
      while (arrived.load() < kThreads) std::this_thread::yield();
      const PostingList list =
          index.List(1, static_cast<ValueCode>(t * 37 % 300));
      list.ForEachRow([&](uint32_t r) { seen[t].push_back(r); });
    });
  }
  for (std::thread& thread : threads) thread.join();
  for (size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(seen[t], ScanRows(table, 1, static_cast<ValueCode>(t * 37 % 300),
                                0, table.num_rows()));
  }
}

}  // namespace
}  // namespace themis::data
