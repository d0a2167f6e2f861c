#include "sql/executor.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <numeric>
#include <optional>
#include <sstream>
#include <utility>

#include "simd/simd.h"
#include "sql/parser.h"
#include "util/cpu_topology.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace themis::sql {

namespace {

/// A column reference resolved to (table position, attribute index).
struct BoundColumn {
  size_t table = 0;
  size_t attr = 0;
};

/// A FROM-list entry: world 0's table (binding and the reference path
/// use it) and the table of every world at this position.
struct BoundTable {
  const data::Table* table = nullptr;
  std::string alias;
  std::vector<TableSource> worlds;
};

/// A non-join predicate compiled to a per-domain-code match mask, so row
/// evaluation is a single array lookup.
struct Filter {
  BoundColumn column;
  std::vector<char> code_matches;  // indexed by value code
  /// `=` and one-literal IN: the one code that passes, or kNullCode when
  /// the literal is outside the domain — a code index can then select
  /// the filter's rows directly. False for every other predicate.
  bool is_point = false;
  data::ValueCode point_code = data::kNullCode;
};

struct AggItem {
  AggFunc func = AggFunc::kCount;
  BoundColumn column;  // unused for COUNT(*)
};

/// A SELECT statement bound against the registered tables: resolved
/// tables and columns, compiled filters, join pairs, and per-code numeric
/// caches — everything both execution paths (vectorized and reference)
/// need before touching a row.
struct BoundQuery {
  std::vector<BoundTable> tables;
  std::vector<Filter> filters;
  std::vector<std::pair<BoundColumn, BoundColumn>> joins;
  std::vector<BoundColumn> group_columns;
  std::vector<AggItem> agg_items;
  /// Per agg item: NumericValueOfLabel per domain code (empty for COUNT).
  std::vector<std::vector<double>> numeric_cache;
  std::vector<std::string> group_names;
  std::vector<std::string> value_names;
};

/// Default rows per scan shard when the caller gives no column
/// information. Never derived from the pool size, so the shard layout —
/// and with it the float summation order — depends only on the table and
/// the (fixed) shard size, keeping sharded results bitwise identical
/// across pool sizes.
constexpr size_t kDefaultShardRows = 8192;
/// Auto shard policy: row-count clamp bounds around the cache-probed
/// working-set target (AutoShardTargetBytes).
constexpr size_t kMinAutoShardRows = 1024;
constexpr size_t kMaxAutoShardRows = 262144;
/// Worlds run as pool tasks only when their selections together start
/// from at least this many rows: below it, waking pool workers costs more
/// than the scans (on a 4-vCPU host, 10 BN samples of 40k-75k rows: a
/// fan-out over fewer than ~10k posting rows ran at 2-3x the sequential
/// time, above it the fan-out won in nearly every query). Either way
/// each world runs into its own group table, so the answer is the same.
constexpr size_t kMinFanOutRows = 10000;

Result<BoundQuery> Bind(
    const SelectStatement& stmt,
    const std::unordered_map<std::string, std::vector<TableSource>>&
        catalog) {
  BoundQuery q;
  // --- Bind tables. ---
  if (stmt.tables.empty() || stmt.tables.size() > 2) {
    return Status::Unimplemented("only 1- and 2-table queries supported");
  }
  for (const TableRef& ref : stmt.tables) {
    auto it = catalog.find(ref.name);
    if (it == catalog.end()) {
      return Status::NotFound("no relation '" + ref.name + "' registered");
    }
    if (!q.tables.empty() &&
        it->second.size() != q.tables.front().worlds.size()) {
      return Status::InvalidArgument(
          "relations in one query must have the same number of worlds");
    }
    q.tables.push_back({it->second.front().table, ref.alias, it->second});
  }

  // --- Bind columns. ---
  auto bind = [&](const ColumnRef& ref) -> Result<BoundColumn> {
    BoundColumn bound;
    bool found = false;
    for (size_t t = 0; t < q.tables.size(); ++t) {
      if (!ref.table_alias.empty() &&
          !EqualsIgnoreCase(ref.table_alias, q.tables[t].alias)) {
        continue;
      }
      auto idx = q.tables[t].table->schema()->AttributeIndex(ref.column);
      if (idx.ok()) {
        if (found) {
          return Result<BoundColumn>(Status::InvalidArgument(
              "ambiguous column '" + ref.ToString() + "'"));
        }
        bound = {t, *idx};
        found = true;
      }
    }
    if (!found) {
      return Result<BoundColumn>(
          Status::NotFound("column '" + ref.ToString() + "' not found"));
    }
    return bound;
  };

  // --- Split predicates into per-table filters and join conditions. ---
  for (const Predicate& pred : stmt.where) {
    THEMIS_ASSIGN_OR_RETURN(BoundColumn lhs, bind(pred.lhs));
    if (pred.is_join) {
      THEMIS_ASSIGN_OR_RETURN(BoundColumn rhs, bind(pred.rhs_column));
      if (lhs.table == rhs.table) {
        return Status::Unimplemented(
            "same-table column equality not supported");
      }
      if (lhs.table > rhs.table) std::swap(lhs, rhs);
      q.joins.emplace_back(lhs, rhs);
      continue;
    }
    const data::Domain& domain =
        q.tables[lhs.table].table->schema()->domain(lhs.attr);
    Filter filter;
    filter.column = lhs;
    filter.code_matches.assign(domain.size(), 0);
    switch (pred.op) {
      case CompareOp::kEq:
      case CompareOp::kNe:
      case CompareOp::kIn: {
        std::vector<char>& m = filter.code_matches;
        for (const Literal& lit : pred.literals) {
          auto code = domain.Code(lit.text);
          if (code.ok()) m[static_cast<size_t>(*code)] = 1;
        }
        if (pred.op == CompareOp::kNe) {
          for (char& c : m) c = !c;
        }
        if (pred.op != CompareOp::kNe && pred.literals.size() == 1) {
          filter.is_point = true;
          auto code = domain.Code(pred.literals[0].text);
          filter.point_code = code.ok() ? *code : data::kNullCode;
        }
        break;
      }
      default: {
        if (pred.literals.size() != 1) {
          return Status::InvalidArgument("ordered comparison needs 1 literal");
        }
        const Literal& lit = pred.literals[0];
        const double target = lit.is_number
                                  ? lit.number
                                  : NumericValueOfLabel(lit.text);
        if (std::isnan(target)) {
          return Status::InvalidArgument(
              "non-numeric literal in ordered comparison");
        }
        for (size_t code = 0; code < domain.size(); ++code) {
          const double v = NumericValueOfLabel(
              domain.Label(static_cast<data::ValueCode>(code)));
          if (std::isnan(v)) continue;  // unmatched
          bool ok = false;
          switch (pred.op) {
            case CompareOp::kLt: ok = v < target; break;
            case CompareOp::kLe: ok = v <= target; break;
            case CompareOp::kGt: ok = v > target; break;
            case CompareOp::kGe: ok = v >= target; break;
            default: break;
          }
          filter.code_matches[code] = ok ? 1 : 0;
        }
        break;
      }
    }
    q.filters.push_back(std::move(filter));
  }

  // --- Bind SELECT / GROUP BY columns. ---
  for (const ColumnRef& ref : stmt.group_by) {
    THEMIS_ASSIGN_OR_RETURN(BoundColumn bc, bind(ref));
    q.group_columns.push_back(bc);
    q.group_names.push_back(ref.ToString());
  }
  for (const SelectItem& item : stmt.items) {
    if (item.func == AggFunc::kNone) continue;  // plain group column
    AggItem agg;
    agg.func = item.func;
    if (item.func != AggFunc::kCount) {
      THEMIS_ASSIGN_OR_RETURN(agg.column, bind(item.column));
    }
    q.agg_items.push_back(agg);
    std::string name = !item.alias.empty() ? item.alias
                       : item.func == AggFunc::kCount
                           ? "count"
                           : (item.func == AggFunc::kSum ? "sum_" : "avg_") +
                                 item.column.ToString();
    q.value_names.push_back(std::move(name));
  }

  // Numeric per-code caches for SUM/AVG columns.
  q.numeric_cache.resize(q.agg_items.size());
  for (size_t i = 0; i < q.agg_items.size(); ++i) {
    if (q.agg_items[i].func == AggFunc::kCount) continue;
    const BoundColumn& bc = q.agg_items[i].column;
    const data::Domain& domain =
        q.tables[bc.table].table->schema()->domain(bc.attr);
    std::vector<double> values(domain.size());
    for (size_t code = 0; code < domain.size(); ++code) {
      values[code] = NumericValueOfLabel(
          domain.Label(static_cast<data::ValueCode>(code)));
    }
    q.numeric_cache[i] = std::move(values);
  }

  // The seed executor surfaced this at execution time, after all column
  // binding — keep that error precedence.
  if (q.tables.size() == 2 && q.joins.empty()) {
    return Status::Unimplemented(
        "cross joins without join predicates are not supported");
  }
  return q;
}

/// Shard size for `q`: explicit request, else the executor's
/// construction-time THEMIS_SHARD_ROWS snapshot (`env_override`), else
/// the cache-aware auto size derived from the scanned-column working set
/// of the sharded table (the probe side for joins). Depends only on the
/// query and table — never the pool — so the shard layout is pool-size
/// independent.
/// The cache-aware auto size: ~AutoShardTargetBytes() of scanned data per
/// shard, clamped to sane bounds.
size_t AutoShardRows(size_t bytes_per_row) {
  return std::clamp(AutoShardTargetBytes() / bytes_per_row, kMinAutoShardRows,
                    kMaxAutoShardRows);
}

size_t ResolvedShardRowsFor(const BoundQuery& q, size_t requested,
                            size_t env_override) {
  if (requested > 0) return requested;
  if (env_override > 0) return env_override;
  const size_t t = q.tables.size() == 1 ? 0 : 1;
  std::vector<size_t> attrs;
  for (const Filter& f : q.filters) {
    if (f.column.table == t) attrs.push_back(f.column.attr);
  }
  for (const BoundColumn& gc : q.group_columns) {
    if (gc.table == t) attrs.push_back(gc.attr);
  }
  for (const AggItem& item : q.agg_items) {
    if (item.func != AggFunc::kCount && item.column.table == t) {
      attrs.push_back(item.column.attr);
    }
  }
  for (const auto& [lhs, rhs] : q.joins) {
    attrs.push_back(t == 0 ? lhs.attr : rhs.attr);
  }
  std::sort(attrs.begin(), attrs.end());
  attrs.erase(std::unique(attrs.begin(), attrs.end()), attrs.end());
  return AutoShardRows(data::Table::ScanBytesPerRow(attrs.size()));
}

// ---------------------------------------------------------------------
// Reference path: the pre-vectorization executor, retained verbatim as
// the bitwise oracle for differential tests and bench_executor. Label
// strings key an ordered map; every row allocates temporaries.
// ---------------------------------------------------------------------

/// Per-row aggregate accumulators for one group (reference path).
struct Accumulator {
  double count_weight = 0;                 // Σ w (COUNT(*))
  std::vector<double> weighted_sums;       // Σ w·v per SUM/AVG item
  std::vector<double> weight_totals;       // Σ w per SUM/AVG item
};

using GroupMap = std::map<std::vector<std::string>, Accumulator>;

QueryResult ExecuteRowAtATime(const BoundQuery& q, util::ThreadPool* pool,
                              size_t kShardRows) {
  const auto& tables = q.tables;
  const auto& filters = q.filters;
  const auto& joins = q.joins;
  const auto& group_columns = q.group_columns;
  const auto& agg_items = q.agg_items;
  const auto& numeric_cache = q.numeric_cache;

  QueryResult result;
  result.group_names = q.group_names;
  result.value_names = q.value_names;

  auto passes = [&](size_t t, size_t row) {
    for (const Filter& f : filters) {
      if (f.column.table != t) continue;
      const data::ValueCode code = tables[t].table->Get(row, f.column.attr);
      if (code < 0 || static_cast<size_t>(code) >= f.code_matches.size() ||
          !f.code_matches[static_cast<size_t>(code)]) {
        return false;
      }
    }
    return true;
  };

  GroupMap groups;
  // Lazily sizes a group's per-item vectors on first touch (shared by the
  // row path and the shard-merge path).
  auto group_slot = [&](GroupMap& into,
                        const std::vector<std::string>& key) -> Accumulator& {
    Accumulator& acc = into[key];
    if (acc.weighted_sums.empty()) {
      acc.weighted_sums.assign(agg_items.size(), 0.0);
      acc.weight_totals.assign(agg_items.size(), 0.0);
    }
    return acc;
  };
  auto accumulate = [&](GroupMap& into, const std::vector<size_t>& rows,
                        double weight) {
    // `rows[t]` is the current row of table t.
    std::vector<std::string> key;
    key.reserve(group_columns.size());
    for (const BoundColumn& gc : group_columns) {
      const data::ValueCode code =
          tables[gc.table].table->Get(rows[gc.table], gc.attr);
      key.push_back(
          tables[gc.table].table->schema()->domain(gc.attr).Label(code));
    }
    Accumulator& acc = group_slot(into, key);
    acc.count_weight += weight;
    for (size_t i = 0; i < agg_items.size(); ++i) {
      if (agg_items[i].func == AggFunc::kCount) continue;
      const BoundColumn& bc = agg_items[i].column;
      const data::ValueCode code =
          tables[bc.table].table->Get(rows[bc.table], bc.attr);
      const double v = numeric_cache[i][static_cast<size_t>(code)];
      if (std::isnan(v)) continue;
      acc.weighted_sums[i] += weight * v;
      acc.weight_totals[i] += weight;
    }
  };

  // Folds per-shard partial aggregates into `groups` in shard-index
  // order — deterministic regardless of which worker ran which shard.
  auto merge_shards = [&](std::vector<GroupMap>& shard_groups) {
    for (GroupMap& shard : shard_groups) {
      for (auto& [key, partial] : shard) {
        Accumulator& acc = group_slot(groups, key);
        acc.count_weight += partial.count_weight;
        for (size_t i = 0; i < agg_items.size(); ++i) {
          acc.weighted_sums[i] += partial.weighted_sums[i];
          acc.weight_totals[i] += partial.weight_totals[i];
        }
      }
    }
  };

  if (tables.size() == 1) {
    const data::Table& t0 = *tables[0].table;
    const size_t num_rows = t0.num_rows();
    if (pool != nullptr && num_rows >= 2 * kShardRows) {
      // Sharded scan: each shard folds its row range into a private group
      // map (only const reads of shared state), then shards merge in index
      // order.
      const size_t num_shards = (num_rows + kShardRows - 1) / kShardRows;
      std::vector<GroupMap> shard_groups(num_shards);
      pool->ParallelFor(0, num_shards, [&](size_t s) {
        const size_t lo = s * kShardRows;
        const size_t hi = std::min(num_rows, lo + kShardRows);
        for (size_t r = lo; r < hi; ++r) {
          if (!passes(0, r)) continue;
          accumulate(shard_groups[s], {r}, t0.weight(r));
        }
      });
      merge_shards(shard_groups);
    } else {
      for (size_t r = 0; r < num_rows; ++r) {
        if (!passes(0, r)) continue;
        accumulate(groups, {r}, t0.weight(r));
      }
    }
  } else {
    // Hash join: build on table 0, probe with table 1. Keys are label
    // strings so tables with different schemas still join correctly.
    const data::Table& t0 = *tables[0].table;
    const data::Table& t1 = *tables[1].table;
    std::unordered_map<std::string, std::vector<size_t>> build;
    for (size_t r = 0; r < t0.num_rows(); ++r) {
      if (!passes(0, r)) continue;
      std::string key;
      for (const auto& [lhs, rhs] : joins) {
        key += t0.schema()->domain(lhs.attr).Label(t0.Get(r, lhs.attr));
        key += '\x1f';
      }
      build[key].push_back(r);
    }
    // Probe with table 1. The build side stays sequential (its map is
    // shared read-only by every prober); the probe side shards by fixed
    // row ranges like the single-table scan — each shard probes into a
    // private group map over const state, then shards merge in index
    // order, so the answer is bitwise identical at any pool size.
    auto probe_range = [&](GroupMap& into, size_t lo, size_t hi) {
      for (size_t r1 = lo; r1 < hi; ++r1) {
        if (!passes(1, r1)) continue;
        std::string key;
        for (const auto& [lhs, rhs] : joins) {
          key += t1.schema()->domain(rhs.attr).Label(t1.Get(r1, rhs.attr));
          key += '\x1f';
        }
        auto it = build.find(key);
        if (it == build.end()) continue;
        for (size_t r0 : it->second) {
          accumulate(into, {r0, r1}, t0.weight(r0) * t1.weight(r1));
        }
      }
    };
    const size_t probe_rows = t1.num_rows();
    if (pool != nullptr && probe_rows >= 2 * kShardRows) {
      const size_t num_shards = (probe_rows + kShardRows - 1) / kShardRows;
      std::vector<GroupMap> shard_groups(num_shards);
      pool->ParallelFor(0, num_shards, [&](size_t s) {
        const size_t lo = s * kShardRows;
        probe_range(shard_groups[s], lo,
                    std::min(probe_rows, lo + kShardRows));
      });
      merge_shards(shard_groups);
    } else {
      probe_range(groups, 0, probe_rows);
    }
  }

  // Global aggregates (no GROUP BY) always yield exactly one row, even
  // when no input rows qualify.
  if (group_columns.empty() && groups.empty()) {
    Accumulator zero;
    zero.weighted_sums.assign(agg_items.size(), 0.0);
    zero.weight_totals.assign(agg_items.size(), 0.0);
    groups.emplace(std::vector<std::string>{}, std::move(zero));
  }

  // --- Materialize rows (std::map keeps them sorted by group key). ---
  for (auto& [key, acc] : groups) {
    ResultRow row;
    row.group = key;
    for (size_t i = 0; i < agg_items.size(); ++i) {
      switch (agg_items[i].func) {
        case AggFunc::kCount:
          row.values.push_back(acc.count_weight);
          break;
        case AggFunc::kSum:
          row.values.push_back(acc.weighted_sums[i]);
          break;
        case AggFunc::kAvg:
          row.values.push_back(acc.weight_totals[i] > 0
                                   ? acc.weighted_sums[i] / acc.weight_totals[i]
                                   : 0.0);
          break;
        case AggFunc::kNone:
          break;
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

// ---------------------------------------------------------------------
// Vectorized path: selection vectors, packed code keys, flat aggregation.
//
// Bitwise identity with the reference path holds because per-group float
// sums depend only on (a) row iteration order within a shard, (b) the
// shard layout, and (c) the shard-index merge order — never on how the
// group container orders its keys, since distinct groups accumulate into
// disjoint slots. All three are identical here, and groups sort by their
// decoded labels at materialization, matching the reference's ordered
// map. Codes must be valid for their domains (Domain::Label's CHECK
// precondition, same as the reference).
// ---------------------------------------------------------------------

/// splitmix64 finalizer — mixes packed keys before open addressing.
inline uint64_t MixKey(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Flat per-group accumulators keyed by a packed uint64 group key: open
/// addressing with linear probing over (key, group-index) slot arrays,
/// accumulator blocks of `stride` doubles appended in first-touch order.
/// No per-row or per-group heap allocation beyond the amortized array
/// growth.
class PackedGroupTable {
 public:
  explicit PackedGroupTable(size_t stride) : stride_(stride) { Rehash(16); }

  void Reserve(size_t groups) {
    keys_.reserve(groups);
    acc_.reserve(groups * stride_);
    size_t cap = 16;
    while (cap * 7 < groups * 10) cap <<= 1;
    if (cap > slot_keys_.size()) Rehash(cap);
  }

  /// The group's accumulator block, zero-initialized on first touch.
  double* Slot(uint64_t key) {
    const size_t g = Group(key);  // may grow acc_: read data() after
    return acc_.data() + g * stride_;
  }

  /// The group's index (first-touch order), adding it when absent.
  size_t Group(uint64_t key) {
    size_t i = MixKey(key) & mask_;
    while (true) {
      const uint32_t g = slot_groups_[i];
      if (g == kEmpty) break;
      if (slot_keys_[i] == key) return g;
      i = (i + 1) & mask_;
    }
    if ((keys_.size() + 1) * 10 > slot_keys_.size() * 7) {
      Rehash(slot_keys_.size() * 2);
      i = MixKey(key) & mask_;
      while (slot_groups_[i] != kEmpty) i = (i + 1) & mask_;
    }
    const uint32_t g = static_cast<uint32_t>(keys_.size());
    slot_keys_[i] = key;
    slot_groups_[i] = g;
    keys_.push_back(key);
    acc_.resize(acc_.size() + stride_, 0.0);
    return g;
  }

  size_t num_groups() const { return keys_.size(); }
  uint64_t key(size_t g) const { return keys_[g]; }
  const double* acc(size_t g) const { return acc_.data() + g * stride_; }

  /// Adds `other`'s partials group-by-group (in its first-touch order;
  /// per-group arithmetic is order-independent across groups).
  void MergeFrom(const PackedGroupTable& other) {
    for (size_t g = 0; g < other.num_groups(); ++g) {
      double* dst = Slot(other.key(g));
      const double* src = other.acc(g);
      for (size_t k = 0; k < stride_; ++k) dst[k] += src[k];
    }
  }

 private:
  static constexpr uint32_t kEmpty = std::numeric_limits<uint32_t>::max();

  void Rehash(size_t capacity) {
    slot_keys_.assign(capacity, 0);
    slot_groups_.assign(capacity, kEmpty);
    mask_ = capacity - 1;
    for (size_t g = 0; g < keys_.size(); ++g) {
      size_t i = MixKey(keys_[g]) & mask_;
      while (slot_groups_[i] != kEmpty) i = (i + 1) & mask_;
      slot_keys_[i] = keys_[g];
      slot_groups_[i] = static_cast<uint32_t>(g);
    }
  }

  size_t stride_;
  size_t mask_ = 0;
  std::vector<uint64_t> slot_keys_;
  std::vector<uint32_t> slot_groups_;
  std::vector<uint64_t> keys_;  // first-touch order
  std::vector<double> acc_;     // num_groups() * stride_
};

/// Small-array fallback when the group key widths exceed 64 bits: the
/// same flat accumulator blocks, indexed by TupleKey.
class WideGroupTable {
 public:
  explicit WideGroupTable(size_t stride) : stride_(stride) {}

  double* Slot(const data::TupleKey& key) {
    const size_t g = Group(key);  // may grow acc_: read data() after
    return acc_.data() + g * stride_;
  }

  size_t Group(const data::TupleKey& key) {
    auto [it, inserted] =
        index_.try_emplace(key, static_cast<uint32_t>(keys_.size()));
    if (inserted) {
      keys_.push_back(key);
      acc_.resize(acc_.size() + stride_, 0.0);
    }
    return it->second;
  }

  size_t num_groups() const { return keys_.size(); }
  const data::TupleKey& key(size_t g) const { return keys_[g]; }
  const double* acc(size_t g) const { return acc_.data() + g * stride_; }

  void MergeFrom(const WideGroupTable& other) {
    for (size_t g = 0; g < other.num_groups(); ++g) {
      double* dst = Slot(other.key(g));
      const double* src = other.acc(g);
      for (size_t k = 0; k < stride_; ++k) dst[k] += src[k];
    }
  }

 private:
  size_t stride_;
  std::unordered_map<data::TupleKey, uint32_t, data::TupleKeyHash> index_;
  std::vector<data::TupleKey> keys_;  // first-touch order
  std::vector<double> acc_;
};

/// A filter compiled for the SIMD kernels: raw code column plus the match
/// table re-encoded as uint8 and padded by simd::kMatchPadBytes (the AVX2
/// path gathers 32-bit lanes from it). The reference path keeps the
/// original unpadded Filter::code_matches untouched.
struct VecFilter {
  const data::ValueCode* col = nullptr;
  const uint8_t* match = nullptr;  // CompiledQuery::matches, shared by worlds
  uint32_t domain_size = 0;
};

/// The world-independent part of a vectorized execution, compiled once
/// per query and shared by every world: padded match tables, the group
/// and join key codecs, join-domain code translations, and the flat
/// accumulator layout [count, sum_0, total_0, ...].
struct CompiledQuery {
  const BoundQuery* q = nullptr;
  const simd::Kernels* kernels = nullptr;
  size_t stride = 1;
  std::vector<std::vector<uint8_t>> matches;  // per q->filters entry
  data::PackedKeyCodec gcodec;
  std::vector<const data::Domain*> gdomains;
  size_t group_reserve = 1;
  data::PackedKeyCodec jcodec;
  std::vector<std::vector<data::ValueCode>> translations;  // per join pair
};

/// One world's vectorized context: the compiled query bound to that
/// world's raw column pointers, per-table filters, and posting lists.
struct VecContext {
  const simd::Kernels* kernels = nullptr;
  size_t stride = 1;
  std::vector<VecFilter> filters[2];  // indexed by table position
  /// Per table position: the shortest posting list among the point
  /// filters on an indexed table. `filters` then holds only the others.
  bool has_posting[2] = {false, false};
  data::PostingList posting[2];
  data::PackedKeyCodec gcodec;
  std::vector<const data::ValueCode*> gcols;
  std::vector<uint8_t> gtables;
  std::vector<const data::Domain*> gdomains;

  struct AggCol {
    const data::ValueCode* col = nullptr;
    const double* numeric = nullptr;
    uint32_t domain_size = 0;
    uint8_t table = 0;
    bool is_count = true;
  };
  std::vector<AggCol> aggs;

  /// One row's contribution; rows[t] is table t's current row. The add
  /// order per slot matches the reference Accumulator exactly. Codes must
  /// be valid for their domains — the reference path crashes loudly on a
  /// stray code (Domain::Label's CHECK); here the asserts give debug
  /// builds the same crash parity at zero release cost.
  void Update(double* acc, const size_t* rows, double w) const {
    acc[0] += w;
    for (size_t i = 0; i < aggs.size(); ++i) {
      const AggCol& a = aggs[i];
      if (a.is_count) continue;
      const uint32_t code = static_cast<uint32_t>(a.col[rows[a.table]]);
      assert(code < a.domain_size);
      const double v = a.numeric[code];
      if (std::isnan(v)) continue;
      acc[2 * i + 1] += w * v;
      acc[2 * i + 2] += w;
    }
  }

  uint64_t PackedKeyOf(const size_t* rows) const {
    uint64_t key = 0;
    for (size_t j = 0; j < gcols.size(); ++j) {
      const uint32_t code =
          static_cast<uint32_t>(gcols[j][rows[gtables[j]]]);
      assert(code < gdomains[j]->size());
      key |= static_cast<uint64_t>(code) << gcodec.shift(j);
    }
    return key;
  }

  void WideKeyOf(const size_t* rows, data::TupleKey& buf) const {
    buf.clear();
    for (size_t j = 0; j < gcols.size(); ++j) {
      const data::ValueCode code = gcols[j][rows[gtables[j]]];
      assert(code >= 0 &&
             static_cast<size_t>(code) < gdomains[j]->size());
      buf.push_back(code);
    }
  }
};

/// Binds `cq` to world `world`'s tables. Picks, per table position, the
/// shortest posting list among the point filters when the world's table
/// there has an index (building that attribute's lists on first use).
VecContext MakeContext(const CompiledQuery& cq, size_t world) {
  const BoundQuery& q = *cq.q;
  auto table = [&](size_t t) -> const data::Table& {
    return *q.tables[t].worlds[world].table;
  };
  VecContext ctx;
  ctx.kernels = cq.kernels;
  ctx.stride = cq.stride;
  ctx.gcodec = cq.gcodec;
  ctx.gdomains = cq.gdomains;
  constexpr size_t kNone = std::numeric_limits<size_t>::max();
  size_t chosen[2] = {kNone, kNone};
  for (size_t t = 0; t < q.tables.size(); ++t) {
    const data::PostingIndex* index = q.tables[t].worlds[world].index;
    if (index == nullptr) continue;
    for (size_t i = 0; i < q.filters.size(); ++i) {
      const Filter& f = q.filters[i];
      if (f.column.table != t || !f.is_point) continue;
      const data::PostingList list = index->List(f.column.attr, f.point_code);
      if (chosen[t] == kNone || list.size() < ctx.posting[t].size()) {
        chosen[t] = i;
        ctx.posting[t] = list;
      }
    }
    ctx.has_posting[t] = chosen[t] != kNone;
  }
  for (size_t i = 0; i < q.filters.size(); ++i) {
    const Filter& f = q.filters[i];
    if (i == chosen[f.column.table]) continue;
    VecFilter vf;
    vf.col = table(f.column.table).column(f.column.attr).data();
    vf.match = cq.matches[i].data();
    vf.domain_size = static_cast<uint32_t>(f.code_matches.size());
    ctx.filters[f.column.table].push_back(vf);
  }
  ctx.aggs.resize(q.agg_items.size());
  for (size_t i = 0; i < q.agg_items.size(); ++i) {
    VecContext::AggCol& a = ctx.aggs[i];
    a.is_count = q.agg_items[i].func == AggFunc::kCount;
    if (!a.is_count) {
      const BoundColumn& bc = q.agg_items[i].column;
      a.col = table(bc.table).column(bc.attr).data();
      a.numeric = q.numeric_cache[i].data();
      a.domain_size = static_cast<uint32_t>(q.numeric_cache[i].size());
      a.table = static_cast<uint8_t>(bc.table);
    }
  }
  for (const BoundColumn& gc : q.group_columns) {
    ctx.gcols.push_back(table(gc.table).column(gc.attr).data());
    ctx.gtables.push_back(static_cast<uint8_t>(gc.table));
  }
  return ctx;
}

/// Adapters giving the scan/join kernels one Slot(rows) shape for both
/// group-key representations.
struct PackedGroups {
  using Table = PackedGroupTable;
  const VecContext* ctx;
  PackedGroupTable table;
  PackedGroups(const VecContext& c, size_t reserve)
      : ctx(&c), table(c.stride) {
    if (reserve > 0) table.Reserve(reserve);
  }
  double* Slot(const size_t* rows) {
    return table.Slot(ctx->PackedKeyOf(rows));
  }
  void MergeFrom(const PackedGroups& o) { table.MergeFrom(o.table); }
  size_t num_groups() const { return table.num_groups(); }
  const double* acc(size_t g) const { return table.acc(g); }
  void AppendCodes(size_t g, std::vector<data::ValueCode>& out) const {
    const uint64_t key = table.key(g);
    for (size_t j = 0; j < ctx->gdomains.size(); ++j) {
      out.push_back(ctx->gcodec.Component(key, j));
    }
  }
};

struct WideGroups {
  using Table = WideGroupTable;
  const VecContext* ctx;
  WideGroupTable table;
  data::TupleKey buf;
  WideGroups(const VecContext& c, size_t /*reserve*/)
      : ctx(&c), table(c.stride) {}
  double* Slot(const size_t* rows) {
    ctx->WideKeyOf(rows, buf);
    return table.Slot(buf);
  }
  void MergeFrom(const WideGroups& o) { table.MergeFrom(o.table); }
  size_t num_groups() const { return table.num_groups(); }
  const double* acc(size_t g) const { return table.acc(g); }
  void AppendCodes(size_t g, std::vector<data::ValueCode>& out) const {
    const data::TupleKey& key = table.key(g);
    out.insert(out.end(), key.begin(), key.end());
  }
};

/// Selects the rows of table `t` in [lo, hi) that pass every filter on
/// it, into `sel` (ascending row ids). With a posting list the selection
/// starts as that list cut to [lo, hi); otherwise the first filter scans
/// its code column with the FilterScan kernel. Each further filter then
/// compacts the survivors in place with FilterCompact — one pass per
/// filter instead of a filter-list walk per row. Counts the rows it
/// starts from as scanned, and the rows each kernel evaluates.
void BuildSelection(const VecContext& ctx, size_t t, size_t lo, size_t hi,
                    std::vector<uint32_t>& sel, ExecutorStats& stats) {
  const std::vector<VecFilter>& filters = ctx.filters[t];
  size_t n = 0;
  size_t next = 0;
  if (ctx.has_posting[t]) {
    const data::PostingList& list = ctx.posting[t];
    sel.resize(std::min(list.size(), hi - lo));
    n = list.RowsIn(static_cast<uint32_t>(lo), static_cast<uint32_t>(hi),
                    sel.data());
    stats.rows_scanned += n;
  } else if (filters.empty()) {  // no filters on this table: all rows pass
    sel.resize(hi - lo);
    std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(lo));
    stats.rows_scanned += hi - lo;
    return;
  } else {
    sel.resize(hi - lo);  // FilterScan needs full range capacity
    const VecFilter& f0 = filters[0];
    n = ctx.kernels->FilterScan(f0.col, static_cast<uint32_t>(lo),
                                static_cast<uint32_t>(hi), f0.match,
                                f0.domain_size, sel.data());
    stats.rows_scanned += hi - lo;
    stats.filter_kernel_rows += hi - lo;
    next = 1;
  }
  for (size_t i = next; i < filters.size(); ++i) {
    const VecFilter& f = filters[i];
    stats.filter_kernel_rows += n;
    n = ctx.kernels->FilterCompact(f.col, f.match, f.domain_size, sel.data(),
                                   n);
  }
  sel.resize(n);
}

/// Reusable per-shard gather buffers for the batched accumulate.
struct VecScratch {
  std::vector<uint64_t> keys;
  std::vector<double> weights;
  std::vector<std::vector<double>> values;  // per agg item (count: unused)
};

/// Batched accumulate for packed group keys: pack every selected row's
/// group key (GatherPack per column), gather the weights and each SUM/AVG
/// column's numeric values, then fold rows into their group slots in
/// ascending row order with exactly the reference Accumulator's add
/// sequence — the gathers move bits, never arithmetic, so this is
/// bitwise identical to the per-row path. Returns rows batched through
/// the gather kernels.
size_t AccumulateRows(const VecContext& ctx, PackedGroups& groups,
                      const uint32_t* sel, size_t n, const double* weights,
                      VecScratch& scratch) {
  const simd::Kernels& k = *ctx.kernels;
  scratch.keys.resize(n);
  if (ctx.gcols.empty()) {
    std::fill(scratch.keys.begin(), scratch.keys.end(), 0);
  } else {
    for (size_t j = 0; j < ctx.gcols.size(); ++j) {
      k.GatherPack(ctx.gcols[j], sel, n, ctx.gcodec.shift(j),
                   scratch.keys.data(), j == 0);
    }
  }
  scratch.weights.resize(n);
  k.GatherDoubles(weights, sel, n, scratch.weights.data());
  scratch.values.resize(ctx.aggs.size());
  for (size_t a = 0; a < ctx.aggs.size(); ++a) {
    if (ctx.aggs[a].is_count) continue;
    scratch.values[a].resize(n);
    k.GatherNumeric(ctx.aggs[a].col, sel, ctx.aggs[a].numeric, n,
                    scratch.values[a].data());
  }
  for (size_t i = 0; i < n; ++i) {
    double* acc = groups.table.Slot(scratch.keys[i]);
    const double w = scratch.weights[i];
    acc[0] += w;
    for (size_t a = 0; a < ctx.aggs.size(); ++a) {
      if (ctx.aggs[a].is_count) continue;
      const double v = scratch.values[a][i];
      if (std::isnan(v)) continue;
      acc[2 * a + 1] += w * v;
      acc[2 * a + 2] += w;
    }
  }
  return n;
}

/// Wide-key (TupleKey) fallback: per-row accumulate, no gather batching.
size_t AccumulateRows(const VecContext& ctx, WideGroups& groups,
                      const uint32_t* sel, size_t n, const double* weights,
                      VecScratch& /*scratch*/) {
  for (size_t i = 0; i < n; ++i) {
    const size_t rows[2] = {sel[i], 0};
    ctx.Update(groups.Slot(rows), rows, weights[sel[i]]);
  }
  return 0;
}

/// Shared cancellation state of one execution: the per-shard poll point
/// of cooperative cancellation. Shards call Admit() before doing work —
/// the first shard to observe a fired token records its status (under a
/// mutex, so TSan-clean) and flips the relaxed fast-path flag; every
/// later shard then skips its body without re-polling the clock. A null
/// token makes Admit() a single relaxed load.
struct CancelScope {
  const util::CancelToken* token = nullptr;
  std::atomic<bool> fired{false};
  std::mutex mu;
  Status status = Status::OK();

  bool Admit() {
    if (token == nullptr) return true;
    if (fired.load(std::memory_order_relaxed)) return false;
    Status now = token->Check();
    if (now.ok()) return true;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (status.ok()) status = std::move(now);
    }
    fired.store(true, std::memory_order_relaxed);
    return false;
  }

  /// The recorded failure, once every shard has retired (no concurrent
  /// Admit racing the read).
  Status TakeStatus() {
    std::lock_guard<std::mutex> lock(mu);
    return status;
  }
};

/// Single-table GROUP BY scan. Sequential execution (pool-less or small
/// table) chunks rows only to bound the selection buffer — accumulation
/// stays in global row order into `out`, exactly like the reference's
/// row loop. Pooled execution on >= 2 shards gives each shard a private
/// group table and merges them in shard-index order, reproducing the
/// reference's summation tree.
template <typename GroupsT>
void ScanSingleTable(const VecContext& ctx, const data::Table& t0,
                     util::ThreadPool* pool, size_t kShardRows,
                     size_t group_reserve, GroupsT& out,
                     ExecutorStats& stats, CancelScope& cancel) {
  const size_t num_rows = t0.num_rows();
  const double* weights = t0.weights().data();
  if (pool != nullptr && num_rows >= 2 * kShardRows) {
    const size_t num_shards = (num_rows + kShardRows - 1) / kShardRows;
    const size_t shard_reserve = std::min(group_reserve, kShardRows);
    std::vector<GroupsT> shard_groups;
    shard_groups.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shard_groups.emplace_back(ctx, shard_reserve);
    }
    std::vector<ExecutorStats> shard_stats(num_shards);
    pool->ParallelFor(0, num_shards, [&](size_t s) {
      if (!cancel.Admit()) return;
      const size_t lo = s * kShardRows;
      const size_t hi = std::min(num_rows, lo + kShardRows);
      std::vector<uint32_t> sel;
      VecScratch scratch;
      ExecutorStats& local = shard_stats[s];
      local.shards_executed += 1;
      BuildSelection(ctx, 0, lo, hi, sel, local);
      local.rows_passed += sel.size();
      local.gather_kernel_rows += AccumulateRows(
          ctx, shard_groups[s], sel.data(), sel.size(), weights, scratch);
    });
    for (const GroupsT& shard : shard_groups) out.MergeFrom(shard);
    for (const ExecutorStats& s : shard_stats) stats += s;
  } else {
    std::vector<uint32_t> sel;
    VecScratch scratch;
    for (size_t lo = 0; lo < num_rows; lo += kShardRows) {
      if (!cancel.Admit()) return;
      const size_t hi = std::min(num_rows, lo + kShardRows);
      stats.shards_executed += 1;
      BuildSelection(ctx, 0, lo, hi, sel, stats);
      stats.rows_passed += sel.size();
      stats.gather_kernel_rows +=
          AccumulateRows(ctx, out, sel.data(), sel.size(), weights, scratch);
    }
  }
}

/// Per-join-column probe codes, gathered (and domain-translated) for one
/// selection batch; -1 marks a probe label with no build-side code.
using ProbeCodes = std::vector<std::vector<data::ValueCode>>;

/// Gathers the probe codes of the selected rows, translating each column
/// into the build side's code space where the domains differ (an empty
/// translation means the same Domain object: codes already agree).
void GatherProbeCodes(const simd::Kernels& k,
                      const std::vector<const data::ValueCode*>& probe_cols,
                      const std::vector<std::vector<data::ValueCode>>&
                          translations,
                      const uint32_t* sel, size_t n, ProbeCodes& codes) {
  codes.resize(probe_cols.size());
  for (size_t j = 0; j < probe_cols.size(); ++j) {
    codes[j].resize(n);
    k.GatherCodes(probe_cols[j], sel, n, codes[j].data());
    if (!translations[j].empty()) {
      k.TranslateCodes(codes[j].data(), translations[j].data(), n,
                       codes[j].data());
    }
  }
}

/// Code-native join-key maker backed by a packed uint64. `translations`
/// (CompiledQuery::translations) bridge probe codes into the build side's
/// code space when the two domains differ.
struct PackedJoinKey {
  using Key = uint64_t;
  using Map = std::unordered_map<uint64_t, std::vector<uint32_t>>;
  const data::PackedKeyCodec* codec;
  std::vector<const data::ValueCode*> build_cols;
  std::vector<const data::ValueCode*> probe_cols;
  const std::vector<std::vector<data::ValueCode>>* translations;

  /// Batched build insert: GatherPack the selected rows' keys (one kernel
  /// pass per join column), then append each row to its key's list in
  /// selection order. Returns rows batched through the gather kernels.
  size_t InsertBuildRows(const simd::Kernels& k, const uint32_t* sel,
                         size_t n, std::vector<uint64_t>& keybuf,
                         Map& map) const {
    keybuf.resize(n);
    for (size_t j = 0; j < build_cols.size(); ++j) {
      k.GatherPack(build_cols[j], sel, n, codec->shift(j), keybuf.data(),
                   j == 0);
    }
    for (size_t i = 0; i < n; ++i) map[keybuf[i]].push_back(sel[i]);
    return n;
  }

  void GatherProbe(const simd::Kernels& k, const uint32_t* sel, size_t n,
                   ProbeCodes& codes) const {
    GatherProbeCodes(k, probe_cols, *translations, sel, n, codes);
  }

  /// Assembles row i's probe key from the gathered codes; false when a
  /// probe label has no code on the build side (no match).
  bool ProbeKeyAt(const ProbeCodes& codes, size_t i, Key& key) const {
    key = 0;
    for (size_t j = 0; j < codes.size(); ++j) {
      const data::ValueCode c = codes[j][i];
      if (c < 0) return false;
      key |= static_cast<uint64_t>(static_cast<uint32_t>(c))
             << codec->shift(j);
    }
    return true;
  }
};

/// TupleKey fallback for join keys wider than 64 bits. Probe codes still
/// gather/translate through the kernels; key assembly and build inserts
/// stay per-row.
struct WideJoinKey {
  using Key = data::TupleKey;
  using Map =
      std::unordered_map<data::TupleKey, std::vector<uint32_t>,
                         data::TupleKeyHash>;
  std::vector<const data::ValueCode*> build_cols;
  std::vector<const data::ValueCode*> probe_cols;
  const std::vector<std::vector<data::ValueCode>>* translations;

  size_t InsertBuildRows(const simd::Kernels& /*k*/, const uint32_t* sel,
                         size_t n, std::vector<uint64_t>& /*keybuf*/,
                         Map& map) const {
    Key key;
    for (size_t i = 0; i < n; ++i) {
      key.clear();
      for (size_t j = 0; j < build_cols.size(); ++j) {
        key.push_back(build_cols[j][sel[i]]);
      }
      map[key].push_back(sel[i]);
    }
    return 0;
  }

  void GatherProbe(const simd::Kernels& k, const uint32_t* sel, size_t n,
                   ProbeCodes& codes) const {
    GatherProbeCodes(k, probe_cols, *translations, sel, n, codes);
  }

  bool ProbeKeyAt(const ProbeCodes& codes, size_t i, Key& key) const {
    key.clear();
    for (size_t j = 0; j < codes.size(); ++j) {
      const data::ValueCode c = codes[j][i];
      if (c < 0) return false;
      key.push_back(c);
    }
    return true;
  }
};

/// Hash join on code-native keys. Large build sides shard across the
/// pool: shard maps merge by appending row lists in shard-index order, so
/// every key's rows stay in ascending row order — the build table's
/// content (and with it the probe-side accumulation order) is identical
/// to a sequential build at any pool size. The probe side shards by row
/// range like the single-table scan.
template <typename JoinT, typename GroupsT>
void JoinTables(const VecContext& ctx, const data::Table& t0,
                const data::Table& t1, const JoinT& join,
                util::ThreadPool* pool, size_t kShardRows,
                size_t group_reserve, GroupsT& out, ExecutorStats& stats,
                CancelScope& cancel) {
  const double* w0 = t0.weights().data();
  const double* w1 = t1.weights().data();

  // --- Build side. ---
  const size_t build_rows = t0.num_rows();
  typename JoinT::Map build;
  if (pool != nullptr && build_rows >= 2 * kShardRows) {
    const size_t num_shards = (build_rows + kShardRows - 1) / kShardRows;
    std::vector<typename JoinT::Map> shard_maps(num_shards);
    std::vector<ExecutorStats> shard_stats(num_shards);
    pool->ParallelFor(0, num_shards, [&](size_t s) {
      if (!cancel.Admit()) return;
      const size_t lo = s * kShardRows;
      const size_t hi = std::min(build_rows, lo + kShardRows);
      std::vector<uint32_t> sel;
      std::vector<uint64_t> keybuf;
      ExecutorStats& local = shard_stats[s];
      local.shards_executed += 1;
      BuildSelection(ctx, 0, lo, hi, sel, local);
      local.rows_passed += sel.size();
      local.join_build_rows += sel.size();
      local.gather_kernel_rows += join.InsertBuildRows(
          *ctx.kernels, sel.data(), sel.size(), keybuf, shard_maps[s]);
    });
    for (typename JoinT::Map& shard : shard_maps) {
      for (auto& [key, rows] : shard) {
        auto& dst = build[key];
        dst.insert(dst.end(), rows.begin(), rows.end());
      }
    }
    for (const ExecutorStats& s : shard_stats) stats += s;
  } else {
    std::vector<uint32_t> sel;
    std::vector<uint64_t> keybuf;
    for (size_t lo = 0; lo < build_rows; lo += kShardRows) {
      if (!cancel.Admit()) return;
      const size_t hi = std::min(build_rows, lo + kShardRows);
      stats.shards_executed += 1;
      BuildSelection(ctx, 0, lo, hi, sel, stats);
      stats.rows_passed += sel.size();
      stats.join_build_rows += sel.size();
      stats.gather_kernel_rows += join.InsertBuildRows(
          *ctx.kernels, sel.data(), sel.size(), keybuf, build);
    }
  }

  // --- Probe side. ---
  const size_t probe_rows = t1.num_rows();
  auto probe_range = [&](GroupsT& groups, size_t lo, size_t hi,
                         ExecutorStats& local) {
    std::vector<uint32_t> sel;
    ProbeCodes codes;
    BuildSelection(ctx, 1, lo, hi, sel, local);
    local.rows_passed += sel.size();
    local.join_probe_rows += sel.size();
    join.GatherProbe(*ctx.kernels, sel.data(), sel.size(), codes);
    local.gather_kernel_rows += sel.size();
    typename JoinT::Key key{};
    for (size_t i = 0; i < sel.size(); ++i) {
      if (!join.ProbeKeyAt(codes, i, key)) continue;
      auto it = build.find(key);
      if (it == build.end()) continue;
      const uint32_t r1 = sel[i];
      const double weight1 = w1[r1];
      for (const uint32_t r0 : it->second) {
        const size_t rows[2] = {r0, r1};
        ctx.Update(groups.Slot(rows), rows, w0[r0] * weight1);
      }
    }
  };
  if (pool != nullptr && probe_rows >= 2 * kShardRows) {
    const size_t num_shards = (probe_rows + kShardRows - 1) / kShardRows;
    const size_t shard_reserve = std::min(group_reserve, kShardRows);
    std::vector<GroupsT> shard_groups;
    shard_groups.reserve(num_shards);
    for (size_t s = 0; s < num_shards; ++s) {
      shard_groups.emplace_back(ctx, shard_reserve);
    }
    std::vector<ExecutorStats> shard_stats(num_shards);
    pool->ParallelFor(0, num_shards, [&](size_t s) {
      if (!cancel.Admit()) return;
      const size_t lo = s * kShardRows;
      shard_stats[s].shards_executed += 1;
      probe_range(shard_groups[s], lo, std::min(probe_rows, lo + kShardRows),
                  shard_stats[s]);
    });
    for (const GroupsT& shard : shard_groups) out.MergeFrom(shard);
    for (const ExecutorStats& s : shard_stats) stats += s;
  } else {
    for (size_t lo = 0; lo < probe_rows; lo += kShardRows) {
      if (!cancel.Admit()) return;
      stats.shards_executed += 1;
      probe_range(out, lo, std::min(probe_rows, lo + kShardRows), stats);
    }
  }
}

/// One world's whole execution — scan or join — into `groups`.
template <typename GroupsT>
void RunWorld(const CompiledQuery& cq, const VecContext& ctx, size_t world,
              util::ThreadPool* pool, size_t kShardRows, GroupsT& groups,
              ExecutorStats& stats, CancelScope& cancel) {
  const BoundQuery& q = *cq.q;
  const data::Table& t0 = *q.tables[0].worlds[world].table;
  if (q.tables.size() == 1) {
    ScanSingleTable(ctx, t0, pool, kShardRows, cq.group_reserve, groups,
                    stats, cancel);
    return;
  }
  const data::Table& t1 = *q.tables[1].worlds[world].table;
  std::vector<const data::ValueCode*> build_cols;
  std::vector<const data::ValueCode*> probe_cols;
  for (const auto& [lhs, rhs] : q.joins) {
    build_cols.push_back(t0.column(lhs.attr).data());
    probe_cols.push_back(t1.column(rhs.attr).data());
  }
  if (cq.jcodec.packable()) {
    JoinTables(ctx, t0, t1,
               PackedJoinKey{&cq.jcodec, std::move(build_cols),
                             std::move(probe_cols), &cq.translations},
               pool, kShardRows, cq.group_reserve, groups, stats, cancel);
  } else {
    JoinTables(ctx, t0, t1,
               WideJoinKey{std::move(build_cols), std::move(probe_cols),
                           &cq.translations},
               pool, kShardRows, cq.group_reserve, groups, stats, cancel);
  }
}

/// One group's finalized values from its accumulator block.
void FinalizeValues(const double* acc, const std::vector<AggItem>& items,
                    double* out) {
  for (size_t i = 0; i < items.size(); ++i) {
    switch (items[i].func) {
      case AggFunc::kCount:
        out[i] = acc[0];
        break;
      case AggFunc::kSum:
        out[i] = acc[2 * i + 1];
        break;
      case AggFunc::kAvg:
        out[i] = acc[2 * i + 2] > 0 ? acc[2 * i + 1] / acc[2 * i + 2] : 0.0;
        break;
      case AggFunc::kNone:
        break;
    }
  }
}

/// Runs every world — as pool tasks when there are several — each into
/// its own group table, then fuses them in world order into one
/// code-keyed CodedResult. A world's values are finalized from its own
/// table, so they are bitwise those of a one-world execution.
template <typename GroupsT>
CodedResult ExecuteWorlds(const CompiledQuery& cq, util::ThreadPool* pool,
                          size_t kShardRows, ExecutorStats& stats,
                          CancelScope& cancel) {
  const BoundQuery& q = *cq.q;
  const size_t num_worlds = q.tables[0].worlds.size();
  std::vector<VecContext> ctxs;
  ctxs.reserve(num_worlds);
  size_t start_rows = 0;  // rows the worlds' selections start from
  for (size_t k = 0; k < num_worlds; ++k) {
    ctxs.push_back(MakeContext(cq, k));
    for (size_t t = 0; t < q.tables.size(); ++t) {
      start_rows += ctxs[k].has_posting[t]
                        ? ctxs[k].posting[t].size()
                        : q.tables[t].worlds[k].table->num_rows();
    }
  }
  std::vector<std::optional<GroupsT>> groups(num_worlds);
  std::vector<ExecutorStats> world_stats(num_worlds);
  auto run = [&](size_t k) {
    groups[k].emplace(ctxs[k], cq.group_reserve);
    RunWorld(cq, ctxs[k], k, pool, kShardRows, *groups[k], world_stats[k],
             cancel);
  };
  if (pool != nullptr && num_worlds > 1 && start_rows >= kMinFanOutRows) {
    pool->ParallelFor(0, num_worlds, run);
  } else {
    for (size_t k = 0; k < num_worlds; ++k) run(k);
  }
  for (const ExecutorStats& s : world_stats) stats += s;

  CodedResult out;
  out.group_names = q.group_names;
  out.value_names = q.value_names;
  out.group_domains = cq.gdomains;
  out.num_worlds = num_worlds;
  const size_t nv = q.agg_items.size();
  typename GroupsT::Table fused(0);  // key -> fused group, no accumulators
  for (size_t k = 0; k < num_worlds; ++k) {
    const GroupsT& world = *groups[k];
    for (size_t g = 0; g < world.num_groups(); ++g) {
      const size_t f = fused.Group(world.table.key(g));
      if (f == out.num_groups()) {
        world.AppendCodes(g, out.codes);
        out.values.resize(out.values.size() + num_worlds * nv, 0.0);
        out.present.resize(out.present.size() + num_worlds, 0);
      }
      FinalizeValues(world.acc(g), q.agg_items,
                     out.values.data() + (f * num_worlds + k) * nv);
      out.present[f * num_worlds + k] = 1;
    }
  }
  // A global aggregate answers one row in every world, zeros where no
  // row qualified.
  if (q.group_columns.empty()) {
    out.values.resize(num_worlds * nv, 0.0);
    out.present.assign(num_worlds, 1);
  }
  return out;
}

CodedResult ExecuteVectorized(const BoundQuery& q, const simd::Kernels& k,
                              util::ThreadPool* pool, size_t kShardRows,
                              ExecutorStats& stats, CancelScope& cancel) {
  CompiledQuery cq;
  cq.q = &q;
  cq.kernels = &k;
  cq.stride = 1 + 2 * q.agg_items.size();
  // Compile the filters for the kernels: uint8 match tables padded by
  // kMatchPadBytes (the bound Filter stays unpadded for the reference
  // path).
  for (const Filter& f : q.filters) {
    std::vector<uint8_t> match;
    match.reserve(f.code_matches.size() + simd::kMatchPadBytes);
    match.assign(f.code_matches.begin(), f.code_matches.end());
    match.resize(f.code_matches.size() + simd::kMatchPadBytes, 0);
    cq.matches.push_back(std::move(match));
  }
  std::vector<size_t> gsizes;
  for (const BoundColumn& gc : q.group_columns) {
    const data::Domain& domain =
        q.tables[gc.table].table->schema()->domain(gc.attr);
    cq.gdomains.push_back(&domain);
    gsizes.push_back(domain.size());
  }
  cq.gcodec = data::PackedKeyCodec(gsizes);

  // Reserve the group table from the domain cardinality product where
  // that is cheap to know and small enough to be worth pre-sizing.
  if (cq.gcodec.packable()) {
    for (const data::Domain* d : cq.gdomains) {
      cq.group_reserve *= std::max<size_t>(1, d->size());
      if (cq.group_reserve > (1u << 16)) {
        cq.group_reserve = 1u << 16;
        break;
      }
    }
  }

  // Join key columns' codec and domain translations.
  if (q.tables.size() == 2) {
    const data::Table& t0 = *q.tables[0].table;
    const data::Table& t1 = *q.tables[1].table;
    std::vector<size_t> jsizes;
    for (const auto& [lhs, rhs] : q.joins) {
      const data::Domain& d0 = t0.schema()->domain(lhs.attr);
      const data::Domain& d1 = t1.schema()->domain(rhs.attr);
      jsizes.push_back(d0.size());
      // Same Domain object (e.g. a self-join): codes already agree.
      cq.translations.push_back(&d0 == &d1 ? std::vector<data::ValueCode>{}
                                           : d1.TranslateTo(d0));
    }
    cq.jcodec = data::PackedKeyCodec(jsizes);
  }

  if (cq.gcodec.packable()) {
    return ExecuteWorlds<PackedGroups>(cq, pool, kShardRows, stats, cancel);
  }
  return ExecuteWorlds<WideGroups>(cq, pool, kShardRows, stats, cancel);
}

}  // namespace

size_t AutoShardTargetBytes() {
  return util::CpuTopology::Host().ShardTargetBytes();
}

size_t ShardRowsEnvOverride() {
  if (const char* env = std::getenv("THEMIS_SHARD_ROWS")) {
    const unsigned long v = std::strtoul(env, nullptr, 10);
    if (v > 0) return static_cast<size_t>(v);
  }
  return 0;
}

size_t ResolveShardRows(size_t requested, size_t bytes_per_row) {
  if (requested > 0) return requested;
  if (const size_t env = ShardRowsEnvOverride(); env > 0) return env;
  if (bytes_per_row == 0) return kDefaultShardRows;
  return AutoShardRows(bytes_per_row);
}

double NumericValueOfLabel(const std::string& label) {
  if (label.size() >= 2 && label.front() == '[' && label.back() == ')') {
    // Equi-width bucket label "[lo,hi)": midpoint.
    const size_t comma = label.find(',');
    if (comma != std::string::npos) {
      const double lo = std::strtod(label.c_str() + 1, nullptr);
      const double hi = std::strtod(label.c_str() + comma + 1, nullptr);
      return (lo + hi) / 2.0;
    }
  }
  char* end = nullptr;
  const double v = std::strtod(label.c_str(), &end);
  if (end == label.c_str() || end != label.c_str() + label.size()) {
    return std::numeric_limits<double>::quiet_NaN();
  }
  return v;
}

std::map<std::string, double> QueryResult::ValueMap(
    size_t value_index) const {
  std::map<std::string, double> out;
  for (const ResultRow& row : rows) {
    std::string key = Join(row.group, "|");
    if (value_index < row.values.size()) {
      out[key] = row.values[value_index];
    }
  }
  return out;
}

std::string QueryResult::ToString() const {
  std::ostringstream out;
  for (const auto& name : group_names) out << name << "\t";
  for (const auto& name : value_names) out << name << "\t";
  out << "\n";
  for (const ResultRow& row : rows) {
    for (const auto& g : row.group) out << g << "\t";
    for (double v : row.values) out << StrFormat("%.3f", v) << "\t";
    out << "\n";
  }
  return out.str();
}

CodedResult CodedResult::EmptyLike(size_t worlds) const {
  CodedResult out;
  out.group_names = group_names;
  out.value_names = value_names;
  out.group_domains = group_domains;
  out.num_worlds = worlds;
  return out;
}

void CodedResult::AddGroup(std::span<const data::ValueCode> group_key,
                           std::span<const double> world_values) {
  THEMIS_CHECK(group_key.size() == group_domains.size() &&
               world_values.size() == num_worlds * value_names.size());
  codes.insert(codes.end(), group_key.begin(), group_key.end());
  values.insert(values.end(), world_values.begin(), world_values.end());
  present.insert(present.end(), num_worlds, 1);
}

QueryResult CodedResult::Decode() const {
  THEMIS_CHECK(num_worlds == 1) << "Decode needs a one-world result";
  QueryResult result;
  result.group_names = group_names;
  result.value_names = value_names;
  // Sorting the decoded label vectors reproduces the reference's
  // std::map<vector<string>> order exactly (labels are unique per
  // domain, so code order != label order is corrected here and only
  // here).
  std::vector<std::pair<std::vector<std::string>, size_t>> order;
  order.reserve(num_groups());
  for (size_t g = 0; g < num_groups(); ++g) {
    std::vector<std::string> labels;
    labels.reserve(group_domains.size());
    const std::span<const data::ValueCode> group = key(g);
    for (size_t j = 0; j < group_domains.size(); ++j) {
      labels.push_back(group_domains[j]->Label(group[j]));
    }
    order.emplace_back(std::move(labels), g);
  }
  std::sort(order.begin(), order.end());  // keys are distinct: total order
  result.rows.reserve(order.size());
  for (auto& [labels, g] : order) {
    const std::span<const double> v = world_values(g, 0);
    result.rows.push_back({std::move(labels), {v.begin(), v.end()}});
  }
  return result;
}

Executor::Executor()
    : counters_(std::make_unique<StatCounters>()),
      env_shard_rows_(ShardRowsEnvOverride()),
      kernels_(&simd::KernelsFor(simd::FromEnv())) {}

void Executor::RegisterTable(const std::string& name,
                             const data::Table* table,
                             const data::PostingIndex* index) {
  RegisterWorlds(name, {{table, index}});
}

void Executor::RegisterWorlds(const std::string& name,
                              std::vector<TableSource> worlds) {
  THEMIS_CHECK(!worlds.empty()) << "relation '" << name << "' has no worlds";
  for (const TableSource& world : worlds) {
    THEMIS_CHECK(world.table != nullptr &&
                 world.table->schema() == worlds.front().table->schema())
        << "the worlds of '" << name << "' must share one schema";
    THEMIS_CHECK(world.index == nullptr ||
                 &world.index->table() == world.table)
        << "index of '" << name << "' covers another table";
  }
  catalog_[name] = std::move(worlds);
}

Result<QueryResult> Executor::Query(const std::string& sql,
                                    util::ThreadPool* pool,
                                    size_t shard_rows,
                                    const util::CancelToken* cancel,
                                    obs::TraceContext* trace) const {
  THEMIS_ASSIGN_OR_RETURN(SelectStatement stmt, Parse(sql));
  return Execute(stmt, pool, shard_rows, cancel, trace);
}

Result<QueryResult> Executor::Execute(const SelectStatement& stmt,
                                      util::ThreadPool* pool,
                                      size_t shard_rows,
                                      const util::CancelToken* cancel,
                                      obs::TraceContext* trace) const {
  THEMIS_ASSIGN_OR_RETURN(CodedResult coded,
                          ExecuteCoded(stmt, pool, shard_rows, cancel, trace));
  if (coded.num_worlds != 1) {
    return Status::InvalidArgument(
        "Execute needs one-world relations; use ExecuteCoded");
  }
  return coded.Decode();
}

Result<CodedResult> Executor::ExecuteCoded(const SelectStatement& stmt,
                                           util::ThreadPool* pool,
                                           size_t shard_rows,
                                           const util::CancelToken* cancel,
                                           obs::TraceContext* trace) const {
  // Entry poll: an already-expired deadline (or a disconnected client)
  // unwinds before any shard runs, so small unsharded queries still honor
  // cancellation deterministically.
  {
    Status admit = util::CheckCancel(cancel);
    if (!admit.ok()) {
      counters_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
      return admit;
    }
  }
  THEMIS_ASSIGN_OR_RETURN(BoundQuery q, Bind(stmt, catalog_));
  const size_t kShardRows =
      ResolvedShardRowsFor(q, shard_rows, env_shard_rows_);
  // Row ids travel as uint32 through selection vectors and build tables,
  // and the AVX2 gathers index with *signed* 32-bit lanes, so rows must
  // stay below 2^31 (not reachable with in-memory samples).
  for (const BoundTable& bt : q.tables) {
    for (const TableSource& world : bt.worlds) {
      if (world.table->num_rows() >
          static_cast<size_t>(std::numeric_limits<int32_t>::max())) {
        return Status::Unimplemented("tables are limited to 2^31 rows");
      }
    }
  }
  ExecutorStats local;
  CancelScope scope;
  scope.token = cancel;
  CodedResult result = [&] {
    // The shard-loop span: everything from the first filter kernel to the
    // fused code-keyed answer, the executor's share of a request's
    // end-to-end latency in METRICS' stage histograms.
    obs::ScopedSpan span(trace, obs::Stage::kExecutorScan);
    return ExecuteVectorized(q, *kernels_, pool, kShardRows, local, scope);
  }();
  local.groups_emitted = static_cast<uint64_t>(
      std::count(result.present.begin(), result.present.end(), 1));
  counters_->rows_scanned.fetch_add(local.rows_scanned,
                                    std::memory_order_relaxed);
  counters_->rows_passed.fetch_add(local.rows_passed,
                                   std::memory_order_relaxed);
  counters_->groups_emitted.fetch_add(local.groups_emitted,
                                      std::memory_order_relaxed);
  counters_->join_build_rows.fetch_add(local.join_build_rows,
                                       std::memory_order_relaxed);
  counters_->join_probe_rows.fetch_add(local.join_probe_rows,
                                       std::memory_order_relaxed);
  counters_->filter_kernel_rows.fetch_add(local.filter_kernel_rows,
                                          std::memory_order_relaxed);
  counters_->gather_kernel_rows.fetch_add(local.gather_kernel_rows,
                                          std::memory_order_relaxed);
  counters_->shards_executed.fetch_add(local.shards_executed,
                                       std::memory_order_relaxed);
  if (scope.fired.load(std::memory_order_relaxed)) {
    // Partial aggregates from the shards that did run are discarded — a
    // cancelled query answers with its status, never an incomplete table.
    counters_->queries_cancelled.fetch_add(1, std::memory_order_relaxed);
    return scope.TakeStatus();
  }
  return result;
}

Result<QueryResult> Executor::ExecuteReference(const SelectStatement& stmt,
                                               util::ThreadPool* pool,
                                               size_t shard_rows) const {
  THEMIS_ASSIGN_OR_RETURN(BoundQuery q, Bind(stmt, catalog_));
  if (q.tables.front().worlds.size() != 1) {
    return Status::InvalidArgument(
        "ExecuteReference needs one-world relations");
  }
  // Same shard layout as Execute, so the two paths' pooled answers are
  // directly comparable bit for bit.
  return ExecuteRowAtATime(
      q, pool, ResolvedShardRowsFor(q, shard_rows, env_shard_rows_));
}

ExecutorStats Executor::stats() const {
  ExecutorStats s;
  s.simd_backend = simd::BackendName(kernels_->backend);
  s.rows_scanned = counters_->rows_scanned.load(std::memory_order_relaxed);
  s.rows_passed = counters_->rows_passed.load(std::memory_order_relaxed);
  s.groups_emitted =
      counters_->groups_emitted.load(std::memory_order_relaxed);
  s.join_build_rows =
      counters_->join_build_rows.load(std::memory_order_relaxed);
  s.join_probe_rows =
      counters_->join_probe_rows.load(std::memory_order_relaxed);
  s.filter_kernel_rows =
      counters_->filter_kernel_rows.load(std::memory_order_relaxed);
  s.gather_kernel_rows =
      counters_->gather_kernel_rows.load(std::memory_order_relaxed);
  s.shards_executed =
      counters_->shards_executed.load(std::memory_order_relaxed);
  s.queries_cancelled =
      counters_->queries_cancelled.load(std::memory_order_relaxed);
  return s;
}

}  // namespace themis::sql
