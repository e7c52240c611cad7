#include <gtest/gtest.h>

#include "train/run.h"

namespace pr {
namespace {

RunConfig TinyConfig() {
  RunConfig config;
  config.run.batch_size = 8;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.dataset = SpecForDataset("cifar10");
  config.run.num_workers = 4;
  config.sim.timing_only = true;
  config.sim.max_updates = 100;
  config.run.seed = 1;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  return config;
}

TEST(ExperimentTest, RunsToUpdateBudget) {
  SimRunResult result = StartRun(TinyConfig(), EngineKind::kSim).sim;
  EXPECT_EQ(result.updates, 100u);
  EXPECT_EQ(result.strategy, "CON");
  EXPECT_GT(result.sim_seconds, 0.0);
}

TEST(ExperimentTest, PerUpdateIsTimeOverUpdates) {
  SimRunResult result = StartRun(TinyConfig(), EngineKind::kSim).sim;
  EXPECT_NEAR(result.per_update_seconds,
              result.sim_seconds / static_cast<double>(result.updates),
              1e-12);
}

TEST(ExperimentTest, MaxSimSecondsCapsRun) {
  RunConfig config = TinyConfig();
  config.sim.max_updates = 1000000;
  config.sim.max_sim_seconds = 5.0;
  SimRunResult result = StartRun(config, EngineKind::kSim).sim;
  EXPECT_LE(result.sim_seconds, 5.0 + 1.0);  // last event may land past cap
  EXPECT_LT(result.updates, 1000000u);
}

TEST(ExperimentTest, SeedsChangeTimingUnderHeterogeneity) {
  RunConfig config = TinyConfig();
  config.sim.hetero = HeteroSpec::Production();
  SimRunResult a = StartRun(config, EngineKind::kSim).sim;
  config.run.seed = 2;
  SimRunResult b = StartRun(config, EngineKind::kSim).sim;
  EXPECT_NE(a.sim_seconds, b.sim_seconds);
}

TEST(ExperimentSeedsTest, AggregatesAcrossSeeds) {
  RunConfig config = TinyConfig();
  config.sim.hetero = HeteroSpec::Production();
  AggregateResult agg = RunExperimentSeeds(config, 3);
  EXPECT_EQ(agg.num_runs, 3u);
  EXPECT_EQ(agg.runs.size(), 3u);
  EXPECT_EQ(agg.strategy, "CON");
  double mean = 0.0;
  for (const auto& run : agg.runs) mean += run.sim_seconds / 3.0;
  EXPECT_NEAR(agg.mean_run_time, mean, 1e-9);
}

TEST(ExperimentSeedsTest, ConvergenceCounting) {
  RunConfig config;
  config.run.batch_size = 8;
  config.run.seed = 1;
  config.run.num_workers = 4;
  config.run.model.hidden = {16};
  SyntheticSpec spec;
  spec.num_train = 512;
  spec.num_test = 256;
  spec.dim = 16;
  spec.num_classes = 2;
  spec.separation = 5.0;
  config.run.dataset = spec;
  config.sim.accuracy_threshold = 0.85;
  config.sim.max_updates = 3000;
  config.sim.eval_every = 10;
  config.strategy.kind = StrategyKind::kAllReduce;
  AggregateResult agg = RunExperimentSeeds(config, 2);
  EXPECT_TRUE(agg.AllConverged());
  EXPECT_GT(agg.mean_final_accuracy, 0.8);
}

}  // namespace
}  // namespace pr
