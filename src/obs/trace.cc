#include "obs/trace.h"

#include <algorithm>

namespace themis::obs {

const char* StageName(Stage stage) {
  switch (stage) {
    case Stage::kParse:
      return "parse";
    case Stage::kAdmission:
      return "admission";
    case Stage::kQueueWait:
      return "queue_wait";
    case Stage::kPlanLookup:
      return "plan_lookup";
    case Stage::kExecute:
      return "execute";
    case Stage::kExecutorScan:
      return "executor_scan";
    case Stage::kSerialize:
      return "serialize";
    case Stage::kCount:
      break;
  }
  return "?";
}

void TraceContext::RecordSpan(Stage stage, int64_t begin_ns, int64_t end_ns) {
  if (end_ns < begin_ns) end_ns = begin_ns;
  StageAccum& accum = stages_[static_cast<size_t>(stage)];
  accum.count.fetch_add(1, std::memory_order_relaxed);
  accum.total_ns.fetch_add(end_ns - begin_ns, std::memory_order_relaxed);
  int64_t seen = accum.first_begin_ns.load(std::memory_order_relaxed);
  while (begin_ns < seen && !accum.first_begin_ns.compare_exchange_weak(
                                seen, begin_ns, std::memory_order_relaxed)) {
  }
  seen = accum.last_end_ns.load(std::memory_order_relaxed);
  while (end_ns > seen && !accum.last_end_ns.compare_exchange_weak(
                              seen, end_ns, std::memory_order_relaxed)) {
  }
}

void TraceContext::SetPlanInfo(const std::string& relation,
                               const std::string& fingerprint) {
  std::lock_guard<std::mutex> lock(info_mu_);
  relation_ = relation;
  fingerprint_ = fingerprint;
}

void TraceContext::SetSql(std::string sql) {
  std::lock_guard<std::mutex> lock(info_mu_);
  sql_ = std::move(sql);
}

void TraceContext::SetStatus(std::string status) {
  std::lock_guard<std::mutex> lock(info_mu_);
  status_ = std::move(status);
}

SlowQueryEntry TraceContext::Finish(int64_t total_ns) const {
  SlowQueryEntry entry;
  {
    std::lock_guard<std::mutex> lock(info_mu_);
    entry.sql = sql_;
    entry.relation = relation_;
    entry.fingerprint = fingerprint_;
    entry.status = status_;
  }
  entry.total_ns = total_ns;
  for (size_t i = 0; i < kNumStages; ++i) {
    const StageAccum& accum = stages_[i];
    StageSpan& span = entry.stages[i];
    span.count = accum.count.load(std::memory_order_relaxed);
    span.total_ns = accum.total_ns.load(std::memory_order_relaxed);
    if (span.count > 0) {
      span.first_begin_rel_ns =
          accum.first_begin_ns.load(std::memory_order_relaxed) - start_ns_;
      span.last_end_rel_ns =
          accum.last_end_ns.load(std::memory_order_relaxed) - start_ns_;
    }
  }
  return entry;
}

int64_t TraceContext::StageTotalNs(Stage stage) const {
  return stages_[static_cast<size_t>(stage)].total_ns.load(
      std::memory_order_relaxed);
}

uint64_t TraceContext::StageCount(Stage stage) const {
  return stages_[static_cast<size_t>(stage)].count.load(
      std::memory_order_relaxed);
}

bool SlowQueryLog::Offer(SlowQueryEntry entry) {
  if (capacity_ == 0) return false;
  std::lock_guard<std::mutex> lock(mu_);
  if (entries_.size() < capacity_) {
    entries_.push_back(std::move(entry));
    return true;
  }
  auto fastest = std::min_element(
      entries_.begin(), entries_.end(),
      [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
        return a.total_ns < b.total_ns;
      });
  if (fastest->total_ns >= entry.total_ns) return false;
  *fastest = std::move(entry);
  return true;
}

std::vector<SlowQueryEntry> SlowQueryLog::Snapshot() const {
  std::vector<SlowQueryEntry> out;
  {
    std::lock_guard<std::mutex> lock(mu_);
    out = entries_;
  }
  std::stable_sort(out.begin(), out.end(),
                   [](const SlowQueryEntry& a, const SlowQueryEntry& b) {
                     return a.total_ns > b.total_ns;
                   });
  return out;
}

}  // namespace themis::obs
