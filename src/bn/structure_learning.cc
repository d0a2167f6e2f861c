#include "bn/structure_learning.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>

#include "bn/score.h"
#include "util/logging.h"

namespace themis::bn {

namespace {

enum class MoveType { kAdd, kRemove, kReverse };

struct Move {
  MoveType type;
  size_t from;
  size_t to;
  double delta;
};

/// Memoizing family-score evaluator for one phase. Unsupported families
/// report NotFound; the caller treats those moves as disallowed
/// (BuildEdges' support restriction, Alg 3). The first score asked of a
/// family counts its joint once and scores it with every member as the
/// child, so the i→j and j→i scores share one count of {i, j} and no
/// joint outlives the call.
class ScoreCache {
 public:
  ScoreCache(const ScoreSource& source, const data::Schema& schema)
      : source_(source), schema_(schema), total_(source.total()) {}

  /// Family score, or NaN if unsupported.
  double Score(size_t child, std::vector<size_t> parents) {
    std::sort(parents.begin(), parents.end());
    auto it = cache_.find(Key(child, parents));
    if (it != cache_.end()) return it->second;
    constexpr double kUnsupported = std::numeric_limits<double>::quiet_NaN();
    const Result<stats::FreqTable> joint =
        FamilyJointCounts(source_, child, parents);
    if (!joint.ok()) {
      return cache_.emplace(Key(child, parents), kUnsupported).first->second;
    }
    const std::vector<size_t>& family = joint->attrs();
    for (size_t member : family) {
      std::vector<size_t> others;
      for (size_t a : family) {
        if (a != member) others.push_back(a);
      }
      const Result<double> result =
          FamilyBicScore(*joint, total_, schema_, member, others);
      cache_.emplace(Key(member, others),
                     result.ok() ? *result : kUnsupported);
    }
    return cache_.at(Key(child, parents));
  }

  bool Supported(size_t child, const std::vector<size_t>& parents) {
    return !std::isnan(Score(child, parents));
  }

 private:
  /// Child last after the sorted parents, then a sentinel: unique per
  /// (child, parents).
  static std::vector<size_t> Key(size_t child,
                                 const std::vector<size_t>& parents) {
    std::vector<size_t> key = parents;
    key.push_back(child);
    key.push_back(SIZE_MAX);
    return key;
  }

  const ScoreSource& source_;
  const data::Schema& schema_;
  const double total_;
  std::map<std::vector<size_t>, double> cache_;
};

std::vector<size_t> WithParent(const std::vector<size_t>& parents,
                               size_t extra) {
  std::vector<size_t> out = parents;
  out.push_back(extra);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<size_t> WithoutParent(const std::vector<size_t>& parents,
                                  size_t removed) {
  std::vector<size_t> out;
  for (size_t p : parents) {
    if (p != removed) out.push_back(p);
  }
  return out;
}

/// One hill-climbing phase. Returns the number of moves applied.
int RunPhase(Dag& dag, ScoreCache& scores,
             const std::set<std::pair<size_t, size_t>>& locked,
             const StructureLearnOptions& options, int moves_budget) {
  const size_t m = dag.num_nodes();
  int moves = 0;
  while (moves < moves_budget) {
    Move best{MoveType::kAdd, 0, 0, options.min_delta};
    bool found = false;

    for (size_t i = 0; i < m; ++i) {
      for (size_t j = 0; j < m; ++j) {
        if (i == j) continue;
        const std::vector<size_t>& pj = dag.Parents(j);

        if (!dag.HasEdge(i, j) && !dag.HasEdge(j, i)) {
          // Add i -> j.
          if (pj.size() >= options.max_parents) continue;
          if (dag.WouldCreateCycle(i, j)) continue;
          std::vector<size_t> new_pj = WithParent(pj, i);
          if (!scores.Supported(j, new_pj)) continue;
          if (!scores.Supported(j, pj)) continue;
          const double delta = scores.Score(j, new_pj) - scores.Score(j, pj);
          if (delta > best.delta) {
            best = {MoveType::kAdd, i, j, delta};
            found = true;
          }
        } else if (dag.HasEdge(i, j)) {
          const bool is_locked = locked.count({i, j}) > 0;
          // Remove i -> j.
          if (!is_locked) {
            std::vector<size_t> new_pj = WithoutParent(pj, i);
            if (scores.Supported(j, new_pj) && scores.Supported(j, pj)) {
              const double delta =
                  scores.Score(j, new_pj) - scores.Score(j, pj);
              if (delta > best.delta) {
                best = {MoveType::kRemove, i, j, delta};
                found = true;
              }
            }
          }
          // Reverse i -> j (to j -> i).
          if (!is_locked && dag.Parents(i).size() < options.max_parents) {
            Dag tmp = dag;
            THEMIS_CHECK_OK(tmp.RemoveEdge(i, j));
            if (!tmp.WouldCreateCycle(j, i)) {
              std::vector<size_t> new_pj = WithoutParent(pj, i);
              std::vector<size_t> new_pi = WithParent(dag.Parents(i), j);
              if (scores.Supported(j, new_pj) &&
                  scores.Supported(i, new_pi) && scores.Supported(j, pj) &&
                  scores.Supported(i, dag.Parents(i))) {
                const double delta =
                    scores.Score(j, new_pj) + scores.Score(i, new_pi) -
                    scores.Score(j, pj) - scores.Score(i, dag.Parents(i));
                if (delta > best.delta) {
                  best = {MoveType::kReverse, i, j, delta};
                  found = true;
                }
              }
            }
          }
        }
      }
    }

    if (!found) break;
    switch (best.type) {
      case MoveType::kAdd:
        THEMIS_CHECK_OK(dag.AddEdge(best.from, best.to));
        break;
      case MoveType::kRemove:
        THEMIS_CHECK_OK(dag.RemoveEdge(best.from, best.to));
        break;
      case MoveType::kReverse:
        THEMIS_CHECK_OK(dag.ReverseEdge(best.from, best.to));
        break;
    }
    ++moves;
  }
  return moves;
}

}  // namespace

Result<StructureLearnResult> LearnStructure(
    const data::SchemaPtr& schema, const data::Table* sample,
    const aggregate::AggregateSet* aggregates,
    const StructureLearnOptions& options) {
  if (schema == nullptr) {
    return Status::InvalidArgument("LearnStructure: null schema");
  }
  const bool use_aggregates =
      options.source != StructureSource::kSampleOnly && aggregates != nullptr &&
      !aggregates->empty();
  const bool use_sample =
      options.source != StructureSource::kAggregatesOnly && sample != nullptr &&
      sample->num_rows() > 0;
  if (!use_aggregates && !use_sample) {
    return Status::InvalidArgument(
        "LearnStructure: no usable structure source");
  }

  StructureLearnResult result{Dag(schema->num_attributes()), {}, 0, 0};

  // Phase 1: build from Γ with support-restricted moves.
  if (use_aggregates) {
    AggregateScoreSource gamma_source(aggregates);
    ScoreCache scores(gamma_source, *schema);
    result.moves +=
        RunPhase(result.dag, scores, {}, options, options.max_moves);
    for (const auto& e : result.dag.Edges()) result.locked_edges.insert(e);
  }

  // Phase 2: continue from S; Γ-phase edges are locked in.
  if (use_sample) {
    SampleScoreSource s_source(sample);
    ScoreCache scores(s_source, *schema);
    result.moves += RunPhase(result.dag, scores, result.locked_edges,
                             options, options.max_moves - result.moves);
    // Final score is reported against the sample when available.
    double total = 0;
    for (size_t v = 0; v < result.dag.num_nodes(); ++v) {
      const double s = scores.Score(v, result.dag.Parents(v));
      if (!std::isnan(s)) total += s;
    }
    result.final_score = total;
  } else {
    AggregateScoreSource gamma_source(aggregates);
    ScoreCache scores(gamma_source, *schema);
    double total = 0;
    for (size_t v = 0; v < result.dag.num_nodes(); ++v) {
      const double s = scores.Score(v, result.dag.Parents(v));
      if (!std::isnan(s)) total += s;
    }
    result.final_score = total;
  }
  return result;
}

}  // namespace themis::bn
