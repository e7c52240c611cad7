#include "train/run.h"

#include <filesystem>
#include <memory>

#include "ckpt/manifest.h"
#include "common/check.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "strategies/strategy.h"

namespace pr {
namespace {

/// Real threads. `resume` (with `resume_dir`, the directory of its shards)
/// seeds the run when set.
RunOutcome RunThreadedEngine(const RunConfig& config,
                             const RunManifest* resume,
                             const std::string& resume_dir) {
  std::unique_ptr<ThreadedStrategy> impl =
      MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run, resume, resume_dir);
  ThreadedRunResult result = runtime.Run(impl.get());
  RunOutcome out;
  out.engine = EngineKind::kThreaded;
  out.strategy = result.strategy;
  out.clock_seconds = result.wall_seconds;
  out.sync_rounds = result.group_reduces;
  out.final_accuracy = result.final_accuracy;
  out.final_loss = result.final_loss;
  out.metrics = result.metrics;
  out.trace = result.trace;
  out.threaded = std::move(result);
  return out;
}

/// The discrete-event simulator, to the update budget, the accuracy
/// threshold or the virtual-time cap, whichever comes first.
RunOutcome RunSimEngine(const RunConfig& config, const RunManifest* resume,
                        const std::string& resume_dir) {
  SimTraining ctx(config);
  if (resume != nullptr) ctx.RestoreFromManifest(*resume, resume_dir);
  std::unique_ptr<Strategy> strategy = MakeStrategy(&ctx);
  PR_CHECK(!config.run.ckpt.enabled() || ctx.checkpoint_configured())
      << "strategy " << strategy->Name()
      << " does not support coordinated checkpointing";
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); },
                         config.sim.max_sim_seconds);
  // Final evaluation if the run ended between periodic evals.
  ctx.EvaluateNow();
  SimRunResult result = ctx.BuildResult(strategy->Name());
  if (const Controller* controller = strategy->controller()) {
    result.bridged_groups = controller->stats().bridged_groups;
    result.frozen_detections = controller->stats().frozen_detections;
  }
  RunOutcome out;
  out.engine = EngineKind::kSim;
  out.strategy = result.strategy;
  out.clock_seconds = result.sim_seconds;
  out.sync_rounds = result.updates;
  out.final_accuracy = result.final_accuracy;
  out.final_loss = result.curve.empty() ? 0.0 : result.curve.back().loss;
  out.metrics = result.metrics;
  out.trace = result.trace;
  out.sim = std::move(result);
  return out;
}

RunOutcome Run(const RunConfig& config, EngineKind engine,
               const RunManifest* resume, const std::string& resume_dir) {
  const Status valid = ValidateRunConfig(config, engine);
  PR_CHECK(valid.ok()) << valid.message();
  switch (engine) {
    case EngineKind::kThreaded:
      return RunThreadedEngine(config, resume, resume_dir);
    case EngineKind::kSim:
      return RunSimEngine(config, resume, resume_dir);
  }
  PR_CHECK(false) << "unknown engine kind";
  return RunOutcome{};
}

}  // namespace

const char* EngineKindName(EngineKind kind) {
  switch (kind) {
    case EngineKind::kThreaded:
      return "threaded";
    case EngineKind::kSim:
      return "sim";
  }
  return "threaded";
}

bool ParseEngineKind(const std::string& token, EngineKind* out) {
  if (token == "threaded") {
    *out = EngineKind::kThreaded;
    return true;
  }
  if (token == "sim") {
    *out = EngineKind::kSim;
    return true;
  }
  return false;
}

RunOutcome StartRun(const RunConfig& config, EngineKind engine) {
  return Run(config, engine, nullptr, "");
}

RunOutcome ResumeRun(const RunConfig& config, EngineKind engine,
                     const std::string& manifest_path) {
  RunManifest manifest;
  const Status s = LoadManifest(manifest_path, &manifest);
  PR_CHECK(s.ok()) << "loading manifest " << manifest_path << ": "
                   << s.message();
  PR_CHECK(manifest.engine == EngineKindName(engine))
      << "manifest was written by the '" << manifest.engine << "' engine";
  PR_CHECK(manifest.strategy == StrategyKindName(config.strategy.kind))
      << "manifest strategy " << manifest.strategy
      << " does not match the requested "
      << StrategyKindName(config.strategy.kind);
  PR_CHECK_EQ(manifest.seed, config.run.seed)
      << "resuming with a different seed would draw different batches";
  return Run(config, engine, &manifest,
             std::filesystem::path(manifest_path).parent_path().string());
}

AggregateResult RunExperimentSeeds(const RunConfig& config,
                                   size_t num_seeds) {
  PR_CHECK_GE(num_seeds, 1u);
  AggregateResult agg;
  agg.num_runs = num_seeds;
  for (size_t s = 0; s < num_seeds; ++s) {
    RunConfig cfg = config;
    cfg.run.seed = config.run.seed + s;
    SimRunResult run = StartRun(cfg, EngineKind::kSim).sim;
    agg.strategy = run.strategy;
    if (run.converged) ++agg.num_converged;
    agg.mean_run_time += run.sim_seconds;
    agg.mean_updates += static_cast<double>(run.updates);
    agg.mean_per_update += run.per_update_seconds;
    agg.mean_final_accuracy += run.final_accuracy;
    agg.mean_idle_fraction += run.mean_idle_fraction;
    agg.runs.push_back(std::move(run));
  }
  const double inv = 1.0 / static_cast<double>(num_seeds);
  agg.mean_run_time *= inv;
  agg.mean_updates *= inv;
  agg.mean_per_update *= inv;
  agg.mean_final_accuracy *= inv;
  agg.mean_idle_fraction *= inv;
  return agg;
}

}  // namespace pr
