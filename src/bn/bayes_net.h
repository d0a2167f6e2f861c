#ifndef THEMIS_BN_BAYES_NET_H_
#define THEMIS_BN_BAYES_NET_H_

#include <vector>

#include "bn/cpt.h"
#include "bn/dag.h"
#include "data/table.h"
#include "util/random.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace themis::bn {

/// A discrete Bayesian network over the attributes of a schema: a DAG plus
/// one CPT per attribute. This is Themis's approximate model of the
/// population probability distribution (Sec 4.2).
class BayesianNetwork {
 public:
  /// Builds a network with the given structure; CPTs are allocated (sized
  /// from the schema's domains) but start uniform. Use the parameter
  /// learning routines or SetCpt to fill them.
  BayesianNetwork(data::SchemaPtr schema, Dag dag);

  const data::SchemaPtr& schema() const { return schema_; }
  const Dag& dag() const { return dag_; }

  const Cpt& cpt(size_t node) const { return cpts_[node]; }
  Cpt& mutable_cpt(size_t node) { return cpts_[node]; }

  size_t num_nodes() const { return cpts_.size(); }

  /// Joint probability of a full assignment (one code per attribute):
  /// the product of the factor probabilities.
  double JointProbability(const std::vector<data::ValueCode>& full) const;

  /// Generates `num_rows` forward (logic) samples, drawn in topological
  /// order, as a table sharing the schema. Each row is weighted
  /// `population_size / num_rows`, so the table is a uniformly-scaled
  /// representative sample of the modeled population (Sec 4.2.4). Every
  /// row draws exactly one rng.UniformDouble() per node, so a call
  /// advances `rng` by num_rows * num_nodes() draws.
  data::Table SampleTable(size_t num_rows, double population_size,
                          Rng& rng) const;

  /// `count` SampleTable calls fanned out over `pool`. Table k starts from
  /// Rng(seed) advanced past the k * num_rows * num_nodes() draws the
  /// tables before it consume, so the result equals `count` sequential
  /// SampleTable calls on one Rng(seed), bitwise, at any pool size. The
  /// calling thread advances one engine table by table and submits each
  /// table as soon as its start state is known.
  std::vector<data::Table> SampleTables(size_t count, size_t num_rows,
                                        double population_size,
                                        uint64_t seed,
                                        util::ThreadPool& pool) const;

  /// Total number of free parameters across all CPTs.
  size_t NumFreeParameters() const;

 private:
  data::SchemaPtr schema_;
  Dag dag_;
  std::vector<Cpt> cpts_;
  std::vector<size_t> topo_order_;
};

/// Allocates the CPT shell (parents + domain sizes, uniform rows) for
/// `node` under `dag` — helper shared by learning code.
Cpt MakeCptShell(const data::Schema& schema, const Dag& dag, size_t node);

}  // namespace themis::bn

#endif  // THEMIS_BN_BAYES_NET_H_
