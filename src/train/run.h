#pragma once

#include <string>
#include <vector>

#include "runtime/threaded_runtime.h"
#include "sim/sim_training.h"

namespace pr {

/// "threaded" / "sim".
const char* EngineKindName(EngineKind kind);

/// Parses the names EngineKindName emits; false on anything else.
bool ParseEngineKind(const std::string& token, EngineKind* out);

/// \brief Engine-agnostic outcome of a run started through StartRun.
///
/// The shared fields mean the same thing under either engine (metric names
/// already match by construction); the engine-specific records are kept in
/// full for callers that need detail, with exactly one of them populated.
struct RunOutcome {
  EngineKind engine = EngineKind::kThreaded;
  /// Display name of the strategy that ran ("CON", "AR", "PS-BSP", ...).
  std::string strategy;
  /// Wall-clock seconds (threaded) or virtual seconds (sim) to completion.
  double clock_seconds = 0.0;
  /// Global synchronizations performed (group reduces / rounds / pushes).
  uint64_t sync_rounds = 0;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  /// Merged metrics + trace under the cross-engine naming convention.
  MetricsSnapshot metrics;
  TraceLog trace;

  /// Engine-specific detail; valid only for the matching `engine`.
  ThreadedRunResult threaded;
  SimRunResult sim;
};

/// \brief The one run entry point: validates `config` (ValidateRunConfig),
/// executes it end-to-end on the chosen engine and returns the
/// engine-agnostic outcome.
///
/// kThreaded runs `config.strategy.kind` on real threads; every StrategyKind
/// the simulator covers also runs there (see runtime/threaded_strategy.h).
/// kSim runs the same config under virtual time until the update budget
/// (`config.sim.max_updates`, derived from the threaded gradient budget when
/// 0), the accuracy threshold, or `config.sim.max_sim_seconds` stops it.
RunOutcome StartRun(const RunConfig& config,
                    EngineKind engine = EngineKind::kThreaded);

/// \brief The one resume entry point: resumes `config` from a checkpoint
/// manifest written by an earlier (possibly killed) run of the same
/// configuration on the same engine.
///
/// Loads the manifest once and checks its engine, strategy and seed against
/// the request; each engine then checks the shape (worker count, model
/// size). Replicas, optimizer momentum and iteration counters come from the
/// shards, each worker's batch sampler is fast-forwarded past the restored
/// draws, and the P-Reduce controller's history window and group-id
/// watermark are re-seeded. Threaded runs finish the remaining
/// `iterations_per_worker - completed` iterations; simulated runs resume
/// the global update count and restart the virtual clock at 0. Metric
/// continuity: worker.<i>.iterations counters start at the restored counts
/// and ckpt.restore_count is 1. Resuming the same manifest twice yields
/// identical results.
RunOutcome ResumeRun(const RunConfig& config, EngineKind engine,
                     const std::string& manifest_path);

/// \brief Seed-averaged metrics over repeated simulated runs of one cell
/// (the paper averages five runs per cell).
struct AggregateResult {
  std::string strategy;
  size_t num_runs = 0;
  size_t num_converged = 0;
  double mean_run_time = 0.0;        ///< virtual seconds to stop
  double mean_updates = 0.0;
  double mean_per_update = 0.0;
  double mean_final_accuracy = 0.0;
  double mean_idle_fraction = 0.0;
  std::vector<SimRunResult> runs;

  bool AllConverged() const { return num_converged == num_runs; }
};

/// \brief Runs `num_seeds` simulated replicas of the cell with run seeds
/// seed, seed+1, ...
AggregateResult RunExperimentSeeds(const RunConfig& config, size_t num_seeds);

}  // namespace pr
