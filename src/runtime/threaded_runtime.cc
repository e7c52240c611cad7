#include "runtime/threaded_runtime.h"

#include <string>
#include <utility>

namespace pr {

Status ValidateRunConfig(const RunConfig& config, EngineKind engine) {
  const StrategyOptions& strategy = config.strategy;
  const ThreadedRunOptions& run = config.run;
  const int n = run.num_workers;
  const bool p_reduce = IsPReduce(strategy.kind);
  // Centralized PS training degenerates gracefully to one worker; every
  // collective/gossip scheme needs a counterpart on real threads.
  const int min_workers =
      IsPsFamily(strategy.kind) || engine == EngineKind::kSim ? 1 : 2;
  const size_t delays = run.worker_delay_seconds.size();
  const std::pair<bool, std::string> rules[] = {
      {n < min_workers, StrategyKindName(strategy.kind) + " needs at least " +
                            std::to_string(min_workers) + " workers"},
      {p_reduce && (strategy.group_size < 2 || strategy.group_size > n),
       "group_size must lie in [2, num_workers]"},
      {delays != 0 && delays != static_cast<size_t>(n),
       "worker_delay_seconds has " + std::to_string(delays) +
           " entries for " + std::to_string(n) + " workers"},
      {!run.churn.empty() && !p_reduce, "elastic churn is a P-Reduce feature"},
      {run.fault.enabled() && !p_reduce,
       "fault plans require the P-Reduce recovery protocol"},
      {run.ckpt.enabled() && !p_reduce &&
           strategy.kind != StrategyKind::kAllReduce,
       "coordinated checkpointing covers P-Reduce and All-Reduce"},
      {!run.topology.flat() && run.topology.num_workers() != n,
       "topology places a different worker count than the run"},
      {strategy.hierarchy.enabled && !p_reduce,
       "hierarchical two-level scheduling is a P-Reduce feature"},
      {strategy.hierarchy.enabled && strategy.hierarchy.cross_period < 1,
       "hierarchy.cross_period must be >= 1"},
      {!(strategy.group_cost_budget >= 0.0), "group_cost_budget must be >= 0"},
  };
  for (const auto& [violated, message] : rules) {
    if (violated) return Status::InvalidArgument(message);
  }
  for (const ChurnEvent& e : run.churn) {
    if (e.worker < 0 || e.worker >= n) {
      return Status::InvalidArgument(
          "churn worker " + std::to_string(e.worker) + " out of range");
    }
    if (!(e.pause_seconds >= 0.0)) {
      return Status::InvalidArgument("churn pause_seconds must be >= 0");
    }
  }
  return Status::OK();
}

std::vector<double> ThreadedRunResult::worker_idle_fraction() const {
  std::vector<double> out;
  out.reserve(worker_iterations.size());
  for (size_t w = 0; w < worker_iterations.size(); ++w) {
    out.push_back(
        metrics.gauge("worker." + std::to_string(w) + ".idle_fraction"));
  }
  return out;
}

}  // namespace pr
