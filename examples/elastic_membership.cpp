// Elastic membership: the controller's ready-signal design means workers
// can leave and rejoin mid-training without reconfiguring a communication
// world — something fixed-topology all-reduce cannot do (the limitation the
// paper's §4 notes for DistributedDataParallel). This example trains with
// P-Reduce while two workers leave for a stretch and one rejoins with its
// stale model; dynamic weights absorb it.

#include <cstdio>

#include "train/run.h"
#include "train/report.h"

namespace {

pr::SimRunResult Run(bool with_churn, pr::StrategyKind kind) {
  pr::RunConfig config;
  config.run.batch_size = 8;
  config.run.model = {pr::ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.num_workers = 8;
  config.run.dataset = pr::SpecForDataset("cifar10");
  config.run.dataset.dirichlet_alpha = 0.5;
  config.sim.paper_model = "resnet18";
  config.sim.hetero = pr::HeteroSpec::GpuSharing(2);
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 30000;
  config.sim.eval_every = 25;
  config.run.seed = 19;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  if (with_churn) {
    // Windows fire after the worker's n-th local iteration (~0.22 s each
    // on the fast workers). Worker 6 comes back 10 s later, model ~stale;
    // worker 7's pause outlasts the run.
    config.run.churn = {
        {/*worker=*/6, /*after_iterations=*/22, /*pause_seconds=*/10.0},
        {/*worker=*/7, /*after_iterations=*/37, /*pause_seconds=*/1e6},
    };
  }
  return pr::StartRun(config, pr::EngineKind::kSim).sim;
}

}  // namespace

int main() {
  std::printf(
      "Elastic membership under P-Reduce: workers 6 and 7 are preempted after\n"
      "22 and 37 local iterations (about t=5s and t=8s); worker 6 rejoins\n"
      "10s later (t=15s) with its stale model.\n"
      "N=8, P=3, GPU-sharing heterogeneity, threshold 85%%.\n\n");

  pr::TablePrinter table({"scenario", "run time (s)", "#updates",
                          "converged", "final acc"});
  for (auto [churn, kind, label] :
       {std::tuple{false, pr::StrategyKind::kPReduceConst,
                   "stable membership (CON)"},
        std::tuple{true, pr::StrategyKind::kPReduceConst,
                   "churn (CON)"},
        std::tuple{true, pr::StrategyKind::kPReduceDynamic,
                   "churn (DYN)"}}) {
    pr::SimRunResult r = Run(churn, kind);
    table.AddRow({label, pr::FormatDouble(r.sim_seconds, 1),
                  std::to_string(r.updates), r.converged ? "yes" : "NO",
                  pr::FormatDouble(r.final_accuracy, 3)});
  }
  table.Print();
  std::printf(
      "\nTraining continues through departures (groups simply form among\n"
      "the remaining workers) and the rejoining stale model is re-absorbed\n"
      "— DYN down-weights it by its iteration-number gap.\n");
  return 0;
}
