#include "server/wire.h"

#include <sys/socket.h>

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string_view>
#include <utility>

#include "util/string_util.h"

namespace themis::server {

namespace {

// --- JSON parsing -----------------------------------------------------

/// Recursive-descent JSON parser over a fixed buffer. Depth-limited so a
/// hostile client cannot blow the stack with "[[[[...".
class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Result<JsonValue> Parse() {
    THEMIS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipWhitespace();
    if (pos_ != text_.size()) return Error("trailing characters");
    return value;
  }

 private:
  static constexpr size_t kMaxDepth = 64;

  Status Error(const std::string& what) const {
    return Status::ParseError("json: " + what + " at offset " +
                              std::to_string(pos_));
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(const char* word) {
    const size_t len = std::string_view(word).size();
    if (text_.compare(pos_, len, word) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Result<JsonValue> ParseValue(size_t depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipWhitespace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    if (c == '{') return ParseObject(depth);
    if (c == '[') return ParseArray(depth);
    if (c == '"') {
      THEMIS_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (ConsumeWord("true")) return JsonValue::Bool(true);
    if (ConsumeWord("false")) return JsonValue::Bool(false);
    if (ConsumeWord("null")) return JsonValue::Null();
    return ParseNumber();
  }

  Result<JsonValue> ParseObject(size_t depth) {
    Consume('{');
    JsonValue object = JsonValue::Object();
    SkipWhitespace();
    if (Consume('}')) return object;
    for (;;) {
      SkipWhitespace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      THEMIS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWhitespace();
      if (!Consume(':')) return Error("expected ':'");
      THEMIS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(key, std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume('}')) return object;
      return Error("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray(size_t depth) {
    Consume('[');
    JsonValue array = JsonValue::Array();
    SkipWhitespace();
    if (Consume(']')) return array;
    for (;;) {
      THEMIS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      array.Append(std::move(value));
      SkipWhitespace();
      if (Consume(',')) continue;
      if (Consume(']')) return array;
      return Error("expected ',' or ']'");
    }
  }

  Result<std::string> ParseString() {
    Consume('"');
    std::string out;
    for (;;) {
      if (pos_ >= text_.size()) return Error("unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("raw control character in string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) return Error("unterminated escape");
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out.push_back('"'); break;
        case '\\': out.push_back('\\'); break;
        case '/': out.push_back('/'); break;
        case 'b': out.push_back('\b'); break;
        case 'f': out.push_back('\f'); break;
        case 'n': out.push_back('\n'); break;
        case 'r': out.push_back('\r'); break;
        case 't': out.push_back('\t'); break;
        case 'u': {
          THEMIS_ASSIGN_OR_RETURN(unsigned code, ParseHex4());
          // Surrogate pair: a high surrogate must be followed by \uDC00..
          if (code >= 0xD800 && code <= 0xDBFF) {
            if (!ConsumeWord("\\u")) return Error("lone high surrogate");
            THEMIS_ASSIGN_OR_RETURN(unsigned low, ParseHex4());
            if (low < 0xDC00 || low > 0xDFFF) {
              return Error("invalid low surrogate");
            }
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
          } else if (code >= 0xDC00 && code <= 0xDFFF) {
            return Error("lone low surrogate");
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  Result<unsigned> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    unsigned code = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_++];
      code <<= 4;
      if (c >= '0' && c <= '9') code |= static_cast<unsigned>(c - '0');
      else if (c >= 'a' && c <= 'f') code |= static_cast<unsigned>(c - 'a' + 10);
      else if (c >= 'A' && c <= 'F') code |= static_cast<unsigned>(c - 'A' + 10);
      else return Error("bad hex digit in \\u escape");
    }
    return code;
  }

  static void AppendUtf8(unsigned code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xE0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xF0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }

  Result<JsonValue> ParseNumber() {
    const size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Error("unexpected character");
    const std::string token = text_.substr(start, pos_ - start);
    char* end = nullptr;
    const double v = std::strtod(token.c_str(), &end);
    if (end != token.c_str() + token.size()) return Error("bad number");
    return JsonValue::Number(v);
  }

  const std::string& text_;
  size_t pos_ = 0;
};

// --- JSON dumping -----------------------------------------------------

void AppendEscaped(const std::string& s, std::string* out) {
  out->push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out->append("\\\""); break;
      case '\\': out->append("\\\\"); break;
      case '\n': out->append("\\n"); break;
      case '\r': out->append("\\r"); break;
      case '\t': out->append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out->append(StrFormat("\\u%04x", c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void DumpTo(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      out->append("null");
      break;
    case JsonValue::Kind::kBool:
      out->append(value.bool_value() ? "true" : "false");
      break;
    case JsonValue::Kind::kNumber: {
      const double v = value.number_value();
      // JSON has no NaN/Infinity literal; non-finite values dump as null
      // and decode back to NaN.
      if (!std::isfinite(v)) {
        out->append("null");
      } else {
        out->append(StrFormat("%.17g", v));
      }
      break;
    }
    case JsonValue::Kind::kString:
      AppendEscaped(value.string_value(), out);
      break;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) out->push_back(',');
        first = false;
        DumpTo(item, out);
      }
      out->push_back(']');
      break;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [key, member] : value.members()) {
        if (!first) out->push_back(',');
        first = false;
        AppendEscaped(key, out);
        out->push_back(':');
        DumpTo(member, out);
      }
      out->push_back('}');
      break;
    }
  }
}

// --- QueryResult <-> JSON ---------------------------------------------

JsonValue NamesToJson(const std::vector<std::string>& names) {
  JsonValue array = JsonValue::Array();
  for (const std::string& name : names) {
    array.Append(JsonValue::String(name));
  }
  return array;
}

JsonValue ResultToJson(const sql::QueryResult& result) {
  JsonValue object = JsonValue::Object();
  object.Set("group_names", NamesToJson(result.group_names));
  object.Set("value_names", NamesToJson(result.value_names));
  JsonValue rows = JsonValue::Array();
  for (const sql::ResultRow& row : result.rows) {
    JsonValue row_json = JsonValue::Object();
    row_json.Set("group", NamesToJson(row.group));
    JsonValue values = JsonValue::Array();
    for (const double v : row.values) values.Append(JsonValue::Number(v));
    row_json.Set("values", std::move(values));
    rows.Append(std::move(row_json));
  }
  object.Set("rows", std::move(rows));
  return object;
}

Result<std::vector<std::string>> NamesFromJson(const JsonValue* array,
                                               const char* what) {
  if (array == nullptr || !array->is_array()) {
    return Status::ParseError(std::string("response missing array '") + what +
                              "'");
  }
  std::vector<std::string> names;
  names.reserve(array->items().size());
  for (const JsonValue& item : array->items()) {
    if (!item.is_string()) {
      return Status::ParseError(std::string("non-string entry in '") + what +
                                "'");
    }
    names.push_back(item.string_value());
  }
  return names;
}

Result<sql::QueryResult> ResultFromJson(const JsonValue& json) {
  if (!json.is_object()) return Status::ParseError("result is not an object");
  sql::QueryResult result;
  THEMIS_ASSIGN_OR_RETURN(result.group_names,
                          NamesFromJson(json.Find("group_names"),
                                        "group_names"));
  THEMIS_ASSIGN_OR_RETURN(result.value_names,
                          NamesFromJson(json.Find("value_names"),
                                        "value_names"));
  const JsonValue* rows = json.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::ParseError("result missing 'rows'");
  }
  for (const JsonValue& row_json : rows->items()) {
    sql::ResultRow row;
    THEMIS_ASSIGN_OR_RETURN(row.group,
                            NamesFromJson(row_json.Find("group"), "group"));
    const JsonValue* values = row_json.Find("values");
    if (values == nullptr || !values->is_array()) {
      return Status::ParseError("row missing 'values'");
    }
    for (const JsonValue& v : values->items()) {
      if (v.is_null()) {
        row.values.push_back(std::numeric_limits<double>::quiet_NaN());
      } else if (v.is_number()) {
        row.values.push_back(v.number_value());
      } else {
        return Status::ParseError("non-numeric row value");
      }
    }
    result.rows.push_back(std::move(row));
  }
  return result;
}

// --- Stats <-> JSON ---------------------------------------------------

JsonValue CountersToJson(const ServerCounters& counters) {
  JsonValue object = JsonValue::Object();
  auto set = [&object](const char* key, size_t v) {
    object.Set(key, JsonValue::Number(static_cast<double>(v)));
  };
  set("accepted_connections", counters.accepted_connections);
  set("active_connections", counters.active_connections);
  set("admitted", counters.admitted);
  set("served_ok", counters.served_ok);
  set("served_error", counters.served_error);
  set("served_deadline_exceeded", counters.served_deadline_exceeded);
  set("served_cancelled", counters.served_cancelled);
  set("rejected_overload", counters.rejected_overload);
  set("inflight", counters.inflight);
  set("max_inflight", counters.max_inflight);
  set("io_threads", counters.io_threads);
  set("responses_encoded", counters.responses_encoded);
  set("response_cache_hits", counters.response_cache_hits);
  set("response_cache_misses", counters.response_cache_misses);
  set("response_cache_evictions", counters.response_cache_evictions);
  set("response_cache_rejections", counters.response_cache_rejections);
  set("response_cache_entries", counters.response_cache_entries);
  set("response_cache_bytes", counters.response_cache_bytes);
  set("response_cache_capacity", counters.response_cache_capacity);
  return object;
}

size_t CounterFrom(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_number()
             ? static_cast<size_t>(v->number_value())
             : 0;
}

std::string StringFrom(const JsonValue& object, const char* key) {
  const JsonValue* v = object.Find(key);
  return v != nullptr && v->is_string() ? v->string_value() : "";
}

JsonValue HostStatsToJson(const HostStats& host) {
  JsonValue object = JsonValue::Object();
  auto set = [&object](const char* key, size_t v) {
    object.Set(key, JsonValue::Number(static_cast<double>(v)));
  };
  set("num_cpus", host.num_cpus);
  set("l1d_bytes", host.l1d_bytes);
  set("l2_bytes", host.l2_bytes);
  set("l3_bytes", host.l3_bytes);
  set("cache_line_bytes", host.cache_line_bytes);
  object.Set("cache_probed", JsonValue::Bool(host.cache_probed));
  object.Set("simd_backend", JsonValue::String(host.simd_backend));
  set("shard_target_bytes", host.shard_target_bytes);
  return object;
}

HostStats HostStatsFromJson(const JsonValue& json) {
  HostStats host;
  host.num_cpus = CounterFrom(json, "num_cpus");
  host.l1d_bytes = CounterFrom(json, "l1d_bytes");
  host.l2_bytes = CounterFrom(json, "l2_bytes");
  host.l3_bytes = CounterFrom(json, "l3_bytes");
  host.cache_line_bytes = CounterFrom(json, "cache_line_bytes");
  const JsonValue* probed = json.Find("cache_probed");
  host.cache_probed =
      probed != nullptr && probed->is_bool() && probed->bool_value();
  host.simd_backend = StringFrom(json, "simd_backend");
  host.shard_target_bytes = CounterFrom(json, "shard_target_bytes");
  return host;
}

JsonValue CacheCountersToJson(size_t hits, size_t misses, size_t evictions,
                              size_t entries) {
  JsonValue object = JsonValue::Object();
  object.Set("hits", JsonValue::Number(static_cast<double>(hits)));
  object.Set("misses", JsonValue::Number(static_cast<double>(misses)));
  object.Set("evictions", JsonValue::Number(static_cast<double>(evictions)));
  object.Set("entries", JsonValue::Number(static_cast<double>(entries)));
  return object;
}

JsonValue RelationStatsToJson(const core::RelationStats& stats) {
  JsonValue object = JsonValue::Object();
  object.Set("built", JsonValue::Bool(stats.built));
  JsonValue plan = JsonValue::Object();
  plan.Set("hits",
           JsonValue::Number(static_cast<double>(stats.plan_cache_hits)));
  plan.Set("misses",
           JsonValue::Number(static_cast<double>(stats.plan_cache_misses)));
  object.Set("plan_cache", std::move(plan));
  const bn::InferenceCacheStats& inference = stats.inference_cache;
  object.Set("inference_cache",
             CacheCountersToJson(inference.hits, inference.misses,
                                 inference.evictions, inference.entries));
  const core::ResultMemoStats& memo = stats.result_memo;
  object.Set("result_memo",
             CacheCountersToJson(memo.hits, memo.misses, memo.evictions,
                                 memo.entries));
  const sql::ExecutorStats& executor = stats.executor;
  JsonValue exec = JsonValue::Object();
  auto set_counter = [&exec](const char* key, uint64_t v) {
    exec.Set(key, JsonValue::Number(static_cast<double>(v)));
  };
  set_counter("rows_scanned", executor.rows_scanned);
  set_counter("rows_passed", executor.rows_passed);
  set_counter("groups_emitted", executor.groups_emitted);
  set_counter("join_build_rows", executor.join_build_rows);
  set_counter("join_probe_rows", executor.join_probe_rows);
  set_counter("filter_kernel_rows", executor.filter_kernel_rows);
  set_counter("gather_kernel_rows", executor.gather_kernel_rows);
  set_counter("shards_executed", executor.shards_executed);
  set_counter("queries_cancelled", executor.queries_cancelled);
  exec.Set("simd_backend", JsonValue::String(executor.simd_backend));
  object.Set("executor", std::move(exec));
  return object;
}

core::RelationStats RelationStatsFromJson(const JsonValue& json) {
  core::RelationStats stats;
  const JsonValue* built = json.Find("built");
  stats.built = built != nullptr && built->is_bool() && built->bool_value();
  if (const JsonValue* plan = json.Find("plan_cache")) {
    stats.plan_cache_hits = CounterFrom(*plan, "hits");
    stats.plan_cache_misses = CounterFrom(*plan, "misses");
  }
  if (const JsonValue* inference = json.Find("inference_cache")) {
    stats.inference_cache.hits = CounterFrom(*inference, "hits");
    stats.inference_cache.misses = CounterFrom(*inference, "misses");
    stats.inference_cache.evictions = CounterFrom(*inference, "evictions");
    stats.inference_cache.entries = CounterFrom(*inference, "entries");
  }
  if (const JsonValue* memo = json.Find("result_memo")) {
    stats.result_memo.hits = CounterFrom(*memo, "hits");
    stats.result_memo.misses = CounterFrom(*memo, "misses");
    stats.result_memo.evictions = CounterFrom(*memo, "evictions");
    stats.result_memo.entries = CounterFrom(*memo, "entries");
  }
  if (const JsonValue* executor = json.Find("executor")) {
    stats.executor.rows_scanned = CounterFrom(*executor, "rows_scanned");
    stats.executor.rows_passed = CounterFrom(*executor, "rows_passed");
    stats.executor.groups_emitted = CounterFrom(*executor, "groups_emitted");
    stats.executor.join_build_rows =
        CounterFrom(*executor, "join_build_rows");
    stats.executor.join_probe_rows =
        CounterFrom(*executor, "join_probe_rows");
    stats.executor.filter_kernel_rows =
        CounterFrom(*executor, "filter_kernel_rows");
    stats.executor.gather_kernel_rows =
        CounterFrom(*executor, "gather_kernel_rows");
    stats.executor.shards_executed = CounterFrom(*executor, "shards_executed");
    stats.executor.queries_cancelled =
        CounterFrom(*executor, "queries_cancelled");
    stats.executor.simd_backend = StringFrom(*executor, "simd_backend");
  }
  return stats;
}

// --- Slow-query log <-> JSON ------------------------------------------

JsonValue SlowQueryEntryToJson(const obs::SlowQueryEntry& entry) {
  JsonValue object = JsonValue::Object();
  object.Set("sql", JsonValue::String(entry.sql));
  object.Set("relation", JsonValue::String(entry.relation));
  object.Set("fingerprint", JsonValue::String(entry.fingerprint));
  object.Set("status", JsonValue::String(entry.status));
  object.Set("total_ns",
             JsonValue::Number(static_cast<double>(entry.total_ns)));
  JsonValue stages = JsonValue::Object();
  for (size_t i = 0; i < obs::kNumStages; ++i) {
    const obs::StageSpan& span = entry.stages[i];
    if (span.count == 0) continue;  // stages that never ran stay off the wire
    JsonValue stage = JsonValue::Object();
    stage.Set("count", JsonValue::Number(static_cast<double>(span.count)));
    stage.Set("total_ns",
              JsonValue::Number(static_cast<double>(span.total_ns)));
    stage.Set("begin_rel_ns", JsonValue::Number(static_cast<double>(
                                  span.first_begin_rel_ns)));
    stage.Set("end_rel_ns",
              JsonValue::Number(static_cast<double>(span.last_end_rel_ns)));
    stages.Set(obs::StageName(static_cast<obs::Stage>(i)), std::move(stage));
  }
  object.Set("stages", std::move(stages));
  return object;
}

obs::SlowQueryEntry SlowQueryEntryFromJson(const JsonValue& json) {
  obs::SlowQueryEntry entry;
  entry.sql = StringFrom(json, "sql");
  entry.relation = StringFrom(json, "relation");
  entry.fingerprint = StringFrom(json, "fingerprint");
  entry.status = StringFrom(json, "status");
  entry.total_ns = static_cast<int64_t>(CounterFrom(json, "total_ns"));
  if (const JsonValue* stages = json.Find("stages")) {
    for (size_t i = 0; i < obs::kNumStages; ++i) {
      const JsonValue* stage =
          stages->Find(obs::StageName(static_cast<obs::Stage>(i)));
      if (stage == nullptr) continue;
      obs::StageSpan& span = entry.stages[i];
      span.count = CounterFrom(*stage, "count");
      span.total_ns = static_cast<int64_t>(CounterFrom(*stage, "total_ns"));
      const JsonValue* begin = stage->Find("begin_rel_ns");
      const JsonValue* end = stage->Find("end_rel_ns");
      if (begin != nullptr && begin->is_number()) {
        span.first_begin_rel_ns =
            static_cast<int64_t>(begin->number_value());
      }
      if (end != nullptr && end->is_number()) {
        span.last_end_rel_ns = static_cast<int64_t>(end->number_value());
      }
    }
  }
  return entry;
}

/// Parses a response line and checks its "status" member: returns the
/// parsed object for OK lines, the restored error Status otherwise.
Result<JsonValue> ParseOkResponse(const std::string& line) {
  THEMIS_ASSIGN_OR_RETURN(JsonValue json, JsonValue::Parse(line));
  if (!json.is_object()) {
    return Status::ParseError("response is not a JSON object");
  }
  const JsonValue* status = json.Find("status");
  if (status == nullptr || !status->is_string()) {
    return Status::ParseError("response missing 'status'");
  }
  if (status->string_value() != "OK") {
    const JsonValue* error = json.Find("error");
    return Status(StatusCodeFromName(status->string_value()),
                  error != nullptr && error->is_string()
                      ? error->string_value()
                      : "(no error message)");
  }
  return json;
}

}  // namespace

// --- JsonValue --------------------------------------------------------

JsonValue JsonValue::Bool(bool b) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = b;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string s) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(s);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

Result<JsonValue> JsonValue::Parse(const std::string& text) {
  return JsonParser(text).Parse();
}

std::string JsonValue::Dump() const {
  std::string out;
  DumpTo(*this, &out);
  return out;
}

void JsonValue::Append(JsonValue value) { items_.push_back(std::move(value)); }

void JsonValue::Set(const std::string& key, JsonValue value) {
  members_[key] = std::move(value);
}

const JsonValue* JsonValue::Find(const std::string& key) const {
  auto it = members_.find(key);
  return it == members_.end() ? nullptr : &it->second;
}

// --- AnswerMode names -------------------------------------------------

const char* AnswerModeWireName(core::AnswerMode mode) {
  switch (mode) {
    case core::AnswerMode::kHybrid: return "hybrid";
    case core::AnswerMode::kSampleOnly: return "sample";
    case core::AnswerMode::kBnOnly: return "bn";
  }
  return "hybrid";
}

Result<core::AnswerMode> AnswerModeFromWireName(const std::string& name) {
  const std::string lower = ToLower(name);
  if (lower == "hybrid") return core::AnswerMode::kHybrid;
  if (lower == "sample") return core::AnswerMode::kSampleOnly;
  if (lower == "bn") return core::AnswerMode::kBnOnly;
  return Status::InvalidArgument("unknown answer mode '" + name +
                                 "' (expected hybrid/sample/bn)");
}

// --- Requests ---------------------------------------------------------

Result<WireRequest> ParseRequest(const std::string& line) {
  auto parsed = JsonValue::Parse(line);
  if (!parsed.ok()) {
    // Malformed JSON is a client mistake, not a server parse detail.
    return Status::InvalidArgument("malformed request: " +
                                   parsed.status().message());
  }
  const JsonValue& json = *parsed;
  if (!json.is_object()) {
    return Status::InvalidArgument("request must be a JSON object");
  }

  WireRequest request;
  if (const JsonValue* verb = json.Find("verb")) {
    if (!verb->is_string()) {
      return Status::InvalidArgument("'verb' must be a string");
    }
    const std::string name = ToLower(verb->string_value());
    if (name == "stats") {
      request.verb = WireRequest::Verb::kStats;
      return request;
    }
    if (name == "metrics") {
      request.verb = WireRequest::Verb::kMetrics;
      return request;
    }
    if (name == "set") {
      request.verb = WireRequest::Verb::kSet;
      if (json.Find("sql") != nullptr || json.Find("batch") != nullptr) {
        return Status::InvalidArgument(
            "'set' installs session defaults and carries no query");
      }
      if (const JsonValue* mode = json.Find("default_mode")) {
        if (!mode->is_string()) {
          return Status::InvalidArgument("'default_mode' must be a string");
        }
        THEMIS_ASSIGN_OR_RETURN(request.mode,
                                AnswerModeFromWireName(mode->string_value()));
        request.has_mode = true;
      }
      if (const JsonValue* deadline = json.Find("default_deadline_ms")) {
        if (!deadline->is_number() ||
            !std::isfinite(deadline->number_value()) ||
            deadline->number_value() < 0) {
          return Status::InvalidArgument(
              "'default_deadline_ms' must be a non-negative finite number");
        }
        const double ms = deadline->number_value();
        request.deadline_ms = ms >= static_cast<double>(kMaxDeadlineMs)
                                  ? kMaxDeadlineMs
                                  : static_cast<uint64_t>(ms);
        request.has_deadline = true;
      }
      return request;
    }
    if (name != "query") {
      return Status::InvalidArgument("unknown verb '" + verb->string_value() +
                                     "' (expected query/set/stats/metrics)");
    }
  }

  if (const JsonValue* mode = json.Find("mode")) {
    if (!mode->is_string()) {
      return Status::InvalidArgument("'mode' must be a string");
    }
    THEMIS_ASSIGN_OR_RETURN(request.mode,
                            AnswerModeFromWireName(mode->string_value()));
    request.has_mode = true;
  }
  if (const JsonValue* relation = json.Find("relation")) {
    if (!relation->is_string()) {
      return Status::InvalidArgument("'relation' must be a string");
    }
    request.relation = relation->string_value();
  }
  if (const JsonValue* deadline = json.Find("deadline_ms")) {
    if (!deadline->is_number() || !std::isfinite(deadline->number_value()) ||
        deadline->number_value() < 0) {
      return Status::InvalidArgument(
          "'deadline_ms' must be a non-negative finite number");
    }
    const double ms = deadline->number_value();
    request.deadline_ms =
        ms >= static_cast<double>(kMaxDeadlineMs)
            ? kMaxDeadlineMs
            : static_cast<uint64_t>(ms);  // fractional ms truncate
    request.has_deadline = true;
  }

  const JsonValue* sql = json.Find("sql");
  const JsonValue* batch = json.Find("batch");
  if ((sql != nullptr) == (batch != nullptr)) {
    return Status::InvalidArgument(
        "request needs exactly one of 'sql' or 'batch'");
  }
  if (sql != nullptr) {
    if (!sql->is_string()) {
      return Status::InvalidArgument("'sql' must be a string");
    }
    request.verb = WireRequest::Verb::kQuery;
    request.sql = sql->string_value();
    return request;
  }
  if (!batch->is_array()) {
    return Status::InvalidArgument("'batch' must be an array of strings");
  }
  request.verb = WireRequest::Verb::kBatch;
  for (const JsonValue& item : batch->items()) {
    if (!item.is_string()) {
      return Status::InvalidArgument("'batch' must be an array of strings");
    }
    request.batch.push_back(item.string_value());
  }
  if (!request.relation.empty()) {
    return Status::InvalidArgument(
        "'relation' applies to single 'sql' requests; batch queries route "
        "by their FROM tables");
  }
  return request;
}

std::string EncodeRequest(const WireRequest& request) {
  JsonValue json = JsonValue::Object();
  switch (request.verb) {
    case WireRequest::Verb::kStats:
      json.Set("verb", JsonValue::String("stats"));
      return json.Dump();
    case WireRequest::Verb::kMetrics:
      json.Set("verb", JsonValue::String("metrics"));
      return json.Dump();
    case WireRequest::Verb::kSet:
      json.Set("verb", JsonValue::String("set"));
      if (request.has_mode) {
        json.Set("default_mode",
                 JsonValue::String(AnswerModeWireName(request.mode)));
      }
      // An explicit 0 clears the session default, so the has-flag (not a
      // non-zero check) decides whether the field rides the wire.
      if (request.has_deadline) {
        json.Set("default_deadline_ms",
                 JsonValue::Number(static_cast<double>(
                     std::min(request.deadline_ms, kMaxDeadlineMs))));
      }
      return json.Dump();
    case WireRequest::Verb::kQuery:
      json.Set("sql", JsonValue::String(request.sql));
      if (!request.relation.empty()) {
        json.Set("relation", JsonValue::String(request.relation));
      }
      break;
    case WireRequest::Verb::kBatch: {
      JsonValue batch = JsonValue::Array();
      for (const std::string& sql : request.batch) {
        batch.Append(JsonValue::String(sql));
      }
      json.Set("batch", std::move(batch));
      break;
    }
  }
  // An omitted mode defers to the session default (the `set` verb), then
  // the server default — so only an explicitly chosen mode rides the wire.
  if (request.has_mode) {
    json.Set("mode", JsonValue::String(AnswerModeWireName(request.mode)));
  }
  if (request.deadline_ms > 0) {
    json.Set("deadline_ms", JsonValue::Number(static_cast<double>(
                                std::min(request.deadline_ms,
                                         kMaxDeadlineMs))));
  }
  return json.Dump();
}

// --- Responses --------------------------------------------------------

size_t EstimateResultResponseBytes(const sql::QueryResult& result) {
  // Envelope: {"result":{"group_names":[...],"value_names":[...],
  // "rows":[...]},"status":"OK"} plus per-name quotes and commas.
  size_t names = 0;
  for (const std::string& name : result.group_names) names += name.size() + 3;
  for (const std::string& name : result.value_names) names += name.size() + 3;
  size_t row_bytes = 0;
  if (!result.rows.empty()) {
    // The first row stands in for all: group labels are near-uniform
    // width within one result, and every row carries the same column
    // count. A %.17g double is at most 24 characters plus its comma.
    const sql::ResultRow& first = result.rows.front();
    size_t group_label = 0;
    for (const std::string& label : first.group) group_label += label.size() + 3;
    row_bytes =
        result.rows.size() * (group_label + 26 * first.values.size() + 32);
  }
  return 64 + names + row_bytes;
}

void EncodeResultResponseTo(const sql::QueryResult& result,
                            std::string* out) {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String("OK"));
  response.Set("result", ResultToJson(result));
  out->clear();
  const size_t estimate = EstimateResultResponseBytes(result);
  if (out->capacity() < estimate) out->reserve(estimate);
  DumpTo(response, out);
}

std::string EncodeResultResponse(const sql::QueryResult& result) {
  std::string out;
  EncodeResultResponseTo(result, &out);
  return out;
}

std::string EncodeOkResponse() {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String("OK"));
  return response.Dump();
}

std::string EncodeBatchResponse(
    const std::vector<sql::QueryResult>& results) {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String("OK"));
  JsonValue array = JsonValue::Array();
  for (const sql::QueryResult& result : results) {
    array.Append(ResultToJson(result));
  }
  response.Set("results", std::move(array));
  return response.Dump();
}

std::string EncodeStatsResponse(const ServerStats& stats) {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String("OK"));
  JsonValue body = JsonValue::Object();
  body.Set("server", CountersToJson(stats.server));
  body.Set("host", HostStatsToJson(stats.host));
  JsonValue relations = JsonValue::Object();
  for (const auto& [name, relation_stats] : stats.relations) {
    relations.Set(name, RelationStatsToJson(relation_stats));
  }
  body.Set("relations", std::move(relations));
  JsonValue slow = JsonValue::Array();
  for (const obs::SlowQueryEntry& entry : stats.slow_queries) {
    slow.Append(SlowQueryEntryToJson(entry));
  }
  body.Set("slow_queries", std::move(slow));
  response.Set("stats", std::move(body));
  return response.Dump();
}

std::string EncodeMetricsResponse(const std::string& prometheus_text) {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String("OK"));
  response.Set("metrics", JsonValue::String(prometheus_text));
  return response.Dump();
}

std::string EncodeErrorResponse(const Status& status) {
  JsonValue response = JsonValue::Object();
  response.Set("status", JsonValue::String(StatusCodeName(status.code())));
  response.Set("error", JsonValue::String(status.message()));
  return response.Dump();
}

Result<sql::QueryResult> DecodeResultResponse(const std::string& line) {
  THEMIS_ASSIGN_OR_RETURN(JsonValue json, ParseOkResponse(line));
  const JsonValue* result = json.Find("result");
  if (result == nullptr) return Status::ParseError("response missing 'result'");
  return ResultFromJson(*result);
}

Result<std::vector<sql::QueryResult>> DecodeBatchResponse(
    const std::string& line) {
  THEMIS_ASSIGN_OR_RETURN(JsonValue json, ParseOkResponse(line));
  const JsonValue* results = json.Find("results");
  if (results == nullptr || !results->is_array()) {
    return Status::ParseError("response missing 'results'");
  }
  std::vector<sql::QueryResult> out;
  out.reserve(results->items().size());
  for (const JsonValue& item : results->items()) {
    THEMIS_ASSIGN_OR_RETURN(sql::QueryResult result, ResultFromJson(item));
    out.push_back(std::move(result));
  }
  return out;
}

bool SendAll(int fd, const std::string& data) {
  size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      // Everything else — EPIPE/ECONNRESET from a vanished peer, and
      // EAGAIN/EWOULDBLOCK when a blocking socket's SO_SNDTIMEO expires —
      // fails the write instead of retrying, so a dead or stalled peer
      // can never wedge the caller.
      return false;
    }
    sent += static_cast<size_t>(n);
  }
  return true;
}

bool RecvLine(int fd, std::string* buffer, std::string* line) {
  // Bound on one line: the JSON parser above is depth-limited against
  // hostile input, and the framing below it must match — a peer streaming
  // bytes with no newline may not grow the buffer without limit. 64 MiB
  // leaves room for any realistic batch response.
  constexpr size_t kMaxLineBytes = 64ull << 20;
  for (;;) {
    const size_t newline = buffer->find('\n');
    if (newline != std::string::npos) {
      line->assign(*buffer, 0, newline);
      buffer->erase(0, newline + 1);
      return true;
    }
    if (buffer->size() > kMaxLineBytes) return false;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      if (!buffer->empty()) {
        line->assign(std::move(*buffer));
        buffer->clear();
        return true;
      }
      return false;
    }
    buffer->append(chunk, static_cast<size_t>(n));
  }
}

Result<ServerStats> DecodeStatsResponse(const std::string& line) {
  THEMIS_ASSIGN_OR_RETURN(JsonValue json, ParseOkResponse(line));
  const JsonValue* body = json.Find("stats");
  if (body == nullptr || !body->is_object()) {
    return Status::ParseError("response missing 'stats'");
  }
  ServerStats stats;
  if (const JsonValue* server = body->Find("server")) {
    stats.server.accepted_connections =
        CounterFrom(*server, "accepted_connections");
    stats.server.active_connections =
        CounterFrom(*server, "active_connections");
    stats.server.admitted = CounterFrom(*server, "admitted");
    stats.server.served_ok = CounterFrom(*server, "served_ok");
    stats.server.served_error = CounterFrom(*server, "served_error");
    stats.server.served_deadline_exceeded =
        CounterFrom(*server, "served_deadline_exceeded");
    stats.server.served_cancelled = CounterFrom(*server, "served_cancelled");
    stats.server.rejected_overload =
        CounterFrom(*server, "rejected_overload");
    stats.server.inflight = CounterFrom(*server, "inflight");
    stats.server.max_inflight = CounterFrom(*server, "max_inflight");
    stats.server.io_threads = CounterFrom(*server, "io_threads");
    stats.server.responses_encoded = CounterFrom(*server, "responses_encoded");
    stats.server.response_cache_hits =
        CounterFrom(*server, "response_cache_hits");
    stats.server.response_cache_misses =
        CounterFrom(*server, "response_cache_misses");
    stats.server.response_cache_evictions =
        CounterFrom(*server, "response_cache_evictions");
    stats.server.response_cache_rejections =
        CounterFrom(*server, "response_cache_rejections");
    stats.server.response_cache_entries =
        CounterFrom(*server, "response_cache_entries");
    stats.server.response_cache_bytes =
        CounterFrom(*server, "response_cache_bytes");
    stats.server.response_cache_capacity =
        CounterFrom(*server, "response_cache_capacity");
  }
  if (const JsonValue* host = body->Find("host")) {
    stats.host = HostStatsFromJson(*host);
  }
  if (const JsonValue* relations = body->Find("relations")) {
    for (const auto& [name, relation_json] : relations->members()) {
      stats.relations.emplace(name, RelationStatsFromJson(relation_json));
    }
  }
  if (const JsonValue* slow = body->Find("slow_queries");
      slow != nullptr && slow->is_array()) {
    stats.slow_queries.reserve(slow->items().size());
    for (const JsonValue& item : slow->items()) {
      stats.slow_queries.push_back(SlowQueryEntryFromJson(item));
    }
  }
  return stats;
}

Result<std::string> DecodeMetricsResponse(const std::string& line) {
  THEMIS_ASSIGN_OR_RETURN(JsonValue json, ParseOkResponse(line));
  const JsonValue* metrics = json.Find("metrics");
  if (metrics == nullptr || !metrics->is_string()) {
    return Status::ParseError("response missing 'metrics'");
  }
  return metrics->string_value();
}

Status DecodeOkResponse(const std::string& line) {
  return ParseOkResponse(line).status();
}

}  // namespace themis::server
