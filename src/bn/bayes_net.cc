#include "bn/bayes_net.h"

#include <exception>
#include <future>

#include "util/logging.h"

namespace themis::bn {

Cpt MakeCptShell(const data::Schema& schema, const Dag& dag, size_t node) {
  const std::vector<size_t>& parents = dag.Parents(node);
  std::vector<size_t> parent_sizes;
  parent_sizes.reserve(parents.size());
  for (size_t p : parents) parent_sizes.push_back(schema.domain(p).size());
  Cpt cpt(node, schema.domain(node).size(), parents, parent_sizes);
  cpt.FillUniform();
  return cpt;
}

BayesianNetwork::BayesianNetwork(data::SchemaPtr schema, Dag dag)
    : schema_(std::move(schema)), dag_(std::move(dag)) {
  THEMIS_CHECK(schema_ != nullptr);
  THEMIS_CHECK(dag_.num_nodes() == schema_->num_attributes());
  cpts_.reserve(dag_.num_nodes());
  for (size_t v = 0; v < dag_.num_nodes(); ++v) {
    cpts_.push_back(MakeCptShell(*schema_, dag_, v));
  }
  topo_order_ = dag_.TopologicalOrder();
}

double BayesianNetwork::JointProbability(
    const std::vector<data::ValueCode>& full) const {
  THEMIS_CHECK(full.size() == num_nodes());
  double p = 1.0;
  for (size_t v = 0; v < num_nodes(); ++v) {
    const Cpt& cpt = cpts_[v];
    data::TupleKey parent_codes(cpt.parents().size());
    for (size_t i = 0; i < cpt.parents().size(); ++i) {
      parent_codes[i] = full[cpt.parents()[i]];
    }
    p *= cpt.Prob(cpt.ConfigIndex(parent_codes), full[v]);
    if (p == 0.0) return 0.0;
  }
  return p;
}

data::Table BayesianNetwork::SampleTable(size_t num_rows,
                                         double population_size,
                                         Rng& rng) const {
  std::vector<CptSampler> samplers;
  samplers.reserve(cpts_.size());
  for (const Cpt& cpt : cpts_) samplers.emplace_back(cpt);

  data::Table table(schema_);
  table.Resize(num_rows);
  std::vector<data::ValueCode> tuple(num_nodes(), data::kNullCode);
  for (size_t r = 0; r < num_rows; ++r) {
    for (size_t v : topo_order_) {
      const Cpt& cpt = cpts_[v];
      size_t config = 0;
      for (size_t i = 0; i < cpt.parents().size(); ++i) {
        config = config * cpt.parent_sizes()[i] +
                 static_cast<size_t>(tuple[cpt.parents()[i]]);
      }
      tuple[v] = samplers[v].Sample(config, rng.UniformDouble());
      table.Set(r, v, tuple[v]);
    }
  }
  table.FillWeights(num_rows == 0 ? 0.0
                                  : population_size /
                                        static_cast<double>(num_rows));
  return table;
}

std::vector<data::Table> BayesianNetwork::SampleTables(
    size_t count, size_t num_rows, double population_size, uint64_t seed,
    util::ThreadPool& pool) const {
  // A relay: this thread walks one engine past each table's draws and
  // hands every task a copy of the state its table starts from, so table k
  // starts as soon as the k tables before it are skipped once, not after
  // discarding k tables' worth of draws itself.
  std::vector<std::future<data::Table>> pending;
  pending.reserve(count);
  Rng rng(seed);
  for (size_t k = 0; k < count; ++k) {
    if (k > 0) rng.engine().discard(num_rows * num_nodes());
    pending.push_back(
        pool.Submit([this, num_rows, population_size, rng]() mutable {
          return SampleTable(num_rows, population_size, rng);
        }));
  }
  // Every task refers to this network, so all are joined before an
  // exception leaves.
  std::vector<data::Table> tables;
  tables.reserve(count);
  std::exception_ptr error;
  for (std::future<data::Table>& table : pending) {
    try {
      tables.push_back(pool.GetHelping(table));
    } catch (...) {
      if (!error) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);
  return tables;
}

size_t BayesianNetwork::NumFreeParameters() const {
  size_t s = 0;
  for (const Cpt& cpt : cpts_) s += cpt.NumFreeParameters();
  return s;
}

}  // namespace themis::bn
