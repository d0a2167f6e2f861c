#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <filesystem>
#include <random>
#include <thread>
#include <vector>

#include "data/bucketize.h"
#include "data/csv.h"
#include "data/domain.h"
#include "data/posting_index.h"
#include "data/schema.h"
#include "data/table.h"

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
