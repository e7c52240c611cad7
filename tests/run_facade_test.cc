#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <string>

#include "ckpt/manifest.h"
#include "train/run.h"

namespace pr {
namespace {

RunConfig SmallConfig() {
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 3;
  config.run.iterations_per_worker = 6;
  config.run.batch_size = 8;
  config.run.model.hidden = {8};
  config.run.dataset.num_train = 96;
  config.run.dataset.num_test = 48;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  return config;
}

TEST(EngineKindTest, NamesRoundTrip) {
  for (EngineKind kind : {EngineKind::kThreaded, EngineKind::kSim}) {
    EngineKind parsed = EngineKind::kThreaded;
    ASSERT_TRUE(ParseEngineKind(EngineKindName(kind), &parsed));
    EXPECT_EQ(parsed, kind);
  }
  EngineKind parsed = EngineKind::kThreaded;
  EXPECT_FALSE(ParseEngineKind("warp", &parsed));
}

TEST(StartRunTest, ThreadedOutcomeMatchesDirectEntryPoint) {
  const RunConfig config = SmallConfig();
  RunOutcome outcome = StartRun(config, EngineKind::kThreaded);
  EXPECT_EQ(outcome.engine, EngineKind::kThreaded);
  EXPECT_EQ(outcome.strategy, "CON");
  EXPECT_GT(outcome.sync_rounds, 0u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  // The engine-specific record is the full ThreadedRunResult.
  ASSERT_EQ(outcome.threaded.worker_iterations.size(), 3u);
  for (size_t iterations : outcome.threaded.worker_iterations) {
    EXPECT_EQ(iterations, 6u);
  }
  EXPECT_DOUBLE_EQ(outcome.final_accuracy, outcome.threaded.final_accuracy);
  EXPECT_GT(outcome.metrics.counter("worker.0.iterations"), 0.0);
}

TEST(StartRunTest, SimEngineRunsTheSameConfig) {
  const RunConfig config = SmallConfig();
  RunOutcome outcome = StartRun(config, EngineKind::kSim);
  EXPECT_EQ(outcome.engine, EngineKind::kSim);
  EXPECT_EQ(outcome.strategy, "CON");
  // 3 workers x 6 iterations / group_size 2 = 9 global updates.
  EXPECT_EQ(outcome.sync_rounds, 9u);
  EXPECT_GT(outcome.clock_seconds, 0.0);
  EXPECT_EQ(outcome.sim.updates, outcome.sync_rounds);
}

TEST(StartRunTest, SimBudgetMatchesStrategySemantics) {
  RunConfig config = SmallConfig();
  config.strategy.kind = StrategyKind::kAllReduce;
  // 3 x 6 gradients / 3 per round = 6 rounds.
  EXPECT_EQ(StartRun(config, EngineKind::kSim).sync_rounds, 6u);
  config.strategy.kind = StrategyKind::kPsAsp;
  EXPECT_EQ(StartRun(config, EngineKind::kSim).sync_rounds, 18u);
}

// The simulator validates a config exactly as the threaded engine does,
// except for the collective worker-count floor.

TEST(StartRunDeathTest, SimRejectsChurnUnderAllReduce) {
  RunConfig config = SmallConfig();
  config.strategy.kind = StrategyKind::kAllReduce;
  config.run.churn.push_back({/*worker=*/1, /*after_iterations=*/2, 0.01});
  EXPECT_DEATH(StartRun(config, EngineKind::kSim), "elastic churn");
}

TEST(StartRunDeathTest, SimRejectsHierarchyUnderAllReduce) {
  RunConfig config = SmallConfig();
  config.strategy.kind = StrategyKind::kAllReduce;
  config.strategy.hierarchy.enabled = true;
  EXPECT_DEATH(StartRun(config, EngineKind::kSim), "hierarchical");
}

TEST(StartRunDeathTest, SimRejectsNegativeGroupCostBudget) {
  RunConfig config = SmallConfig();
  config.strategy.group_cost_budget = -1.0;
  EXPECT_DEATH(StartRun(config, EngineKind::kSim), "group_cost_budget");
}

TEST(StartRunTest, SimRunsTheOneWorkerBaseline) {
  // The scalability sweep's N=1 All-Reduce reference is a simulated run.
  RunConfig config = SmallConfig();
  config.strategy.kind = StrategyKind::kAllReduce;
  config.run.num_workers = 1;
  EXPECT_EQ(StartRun(config, EngineKind::kSim).sync_rounds, 6u);
}

// Checks that hold for both engines alike.

TEST(StartRunDeathTest, RejectsADelayCountOtherThanTheWorkerCount) {
  RunConfig config = SmallConfig();
  config.run.worker_delay_seconds = {0.0, 0.01};  // three workers
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    EXPECT_DEATH(StartRun(config, engine), "worker_delay_seconds has 2")
        << EngineKindName(engine);
  }
}

TEST(StartRunDeathTest, RejectsChurnForAWorkerOutOfRange) {
  RunConfig config = SmallConfig();
  config.run.churn.push_back({/*worker=*/3, /*after_iterations=*/2, 0.01});
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    EXPECT_DEATH(StartRun(config, engine), "churn worker 3 out of range")
        << EngineKindName(engine);
  }
}

TEST(StartRunDeathTest, RejectsANegativeChurnPause) {
  RunConfig config = SmallConfig();
  config.run.churn.push_back({/*worker=*/1, /*after_iterations=*/2, -0.5});
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    EXPECT_DEATH(StartRun(config, engine), "pause_seconds must be >= 0")
        << EngineKindName(engine);
  }
}

// The simulator honours the run fields the threads read: churn, the
// straggler delay and the checkpoint period mean one thing on both clocks.

TEST(SimRunFieldsTest, ChurnMovesTheRun) {
  RunConfig config = SmallConfig();
  const RunOutcome steady = StartRun(config, EngineKind::kSim);
  config.run.churn.push_back({/*worker=*/1, /*after_iterations=*/2,
                              /*pause_seconds=*/0.5});
  const RunOutcome churned = StartRun(config, EngineKind::kSim);
  EXPECT_TRUE(churned.final_loss != steady.final_loss ||
              churned.clock_seconds != steady.clock_seconds);
  EXPECT_EQ(churned.sync_rounds, steady.sync_rounds);
}

TEST(SimRunFieldsTest, StragglerDelayLengthensTheClock) {
  for (StrategyKind kind :
       {StrategyKind::kPReduceConst, StrategyKind::kAllReduce}) {
    RunConfig config = SmallConfig();
    config.strategy.kind = kind;
    const double steady = StartRun(config, EngineKind::kSim).clock_seconds;
    // Worker 2 takes twice the base compute time per gradient.
    const double compute =
        CostModel(LookupPaperModel(config.sim.paper_model), config.sim.cost)
            .ComputeSeconds(1.0);
    config.run.worker_delay_seconds = {0.0, 0.0, compute};
    EXPECT_GT(StartRun(config, EngineKind::kSim).clock_seconds, steady)
        << StrategyKindName(kind);
  }
}

TEST(ChurnTraceTest, BothEnginesRecordOneLeaveAndOneRejoin) {
  RunConfig config = SmallConfig();
  config.run.trace_capacity = 4096;
  config.run.churn.push_back({/*worker=*/1, /*after_iterations=*/2,
                              /*pause_seconds=*/0.02});
  for (EngineKind engine : {EngineKind::kThreaded, EngineKind::kSim}) {
    const RunOutcome outcome = StartRun(config, engine);
    ASSERT_EQ(outcome.trace.dropped, 0u) << EngineKindName(engine);
    int leaves = 0;
    int rejoins = 0;
    for (const TraceEvent& e : outcome.trace.events) {
      if (e.kind == TraceEventKind::kChurnLeave) {
        EXPECT_EQ(e.worker, 1) << EngineKindName(engine);
        ++leaves;
      } else if (e.kind == TraceEventKind::kChurnRejoin) {
        EXPECT_EQ(e.worker, 1) << EngineKindName(engine);
        ++rejoins;
      }
    }
    EXPECT_EQ(leaves, 1) << EngineKindName(engine);
    EXPECT_EQ(rejoins, 1) << EngineKindName(engine);
  }
}

TEST(ResumeRunTest, ThreadedResumeContinuesFromManifest) {
  const std::string dir =
      (std::filesystem::temp_directory_path() / "pr_facade_resume").string();
  std::filesystem::remove_all(dir);

  RunConfig config = SmallConfig();
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 2;
  RunOutcome first = StartRun(config, EngineKind::kThreaded);
  EXPECT_GT(first.final_accuracy, 0.0);

  RunManifest manifest;
  std::string manifest_path;
  Status found = FindLatestManifest(dir, &manifest, &manifest_path);
  ASSERT_TRUE(found.ok()) << found.message();
  RunOutcome resumed =
      ResumeRun(config, EngineKind::kThreaded, manifest_path);
  EXPECT_EQ(resumed.engine, EngineKind::kThreaded);
  // The resumed run restores from the last epoch and finishes the budget.
  EXPECT_EQ(resumed.metrics.counter("ckpt.restore_count"), 1.0);
  ASSERT_EQ(resumed.threaded.worker_iterations.size(), 3u);
  for (size_t iterations : resumed.threaded.worker_iterations) {
    EXPECT_EQ(iterations, 6u);
  }
  std::filesystem::remove_all(dir);
}

// Golden simulator outcomes. A change to how a run is *described* must not
// move a single bit of what the simulator computes: these hashes were
// recorded before the simulator's options were folded into RunConfig, and
// only the config-building lines below may change with the config type.

uint64_t HashBits(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ull;
  }
  return h;
}

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

/// FNV-1a over the update count, the bits of the virtual run time, and every
/// curve point's loss and accuracy bits.
uint64_t HashSimResult(const SimRunResult& r) {
  uint64_t h = 0xcbf29ce484222325ull;
  h = HashBits(h, r.updates);
  h = HashBits(h, DoubleBits(r.sim_seconds));
  for (const CurvePoint& p : r.curve) {
    h = HashBits(h, DoubleBits(p.loss));
    h = HashBits(h, DoubleBits(p.accuracy));
  }
  return h;
}

SyntheticSpec GoldenDataset() {
  SyntheticSpec ds;
  ds.num_train = 512;
  ds.num_test = 128;
  ds.dim = 16;
  ds.num_classes = 4;
  return ds;
}

RunConfig GoldenTrainingConfig(StrategyKind kind) {
  RunConfig config;
  config.run.batch_size = 8;
  config.run.num_workers = 4;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {16}, 8};
  config.run.dataset = GoldenDataset();
  config.sim.hetero = HeteroSpec::Production();
  config.sim.accuracy_threshold = -1.0;
  config.sim.max_updates = 40;
  config.sim.eval_every = 10;
  config.run.seed = 5;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.strategy.backup_workers = 1;
  return config;
}

/// Workers, batch, model, dataset and seed are the values the simulator
/// used to default to (8 workers, batch 8, MLP{64}, cifar10, seed 1).
RunConfig GoldenTimingConfig(StrategyKind kind) {
  RunConfig config;
  config.run.num_workers = 8;
  config.run.batch_size = 8;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.dataset = SpecForDataset("cifar10");
  config.run.seed = 1;
  config.sim.timing_only = true;
  config.sim.max_updates = 60;
  config.sim.hetero = HeteroSpec::Production();
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  config.strategy.backup_workers = 2;
  return config;
}

RunConfig GoldenHierarchicalConfig() {
  RunConfig config;
  config.run.num_workers = 8;
  config.run.batch_size = 8;
  config.run.topology = Topology::Uniform(2, 4);
  config.run.model = {ProxyModelSpec::Kind::kMlp, {16}, 8};
  config.run.dataset = GoldenDataset();
  config.run.dataset.dirichlet_alpha = 0.5;
  config.sim.lr_decay.enabled = true;
  config.sim.lr_decay.every_updates = 10;
  config.sim.lr_decay.factor = 0.5;
  config.sim.accuracy_threshold = -1.0;
  config.sim.max_updates = 40;
  config.sim.eval_every = 10;
  config.run.seed = 9;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.strategy.hierarchy.enabled = true;
  config.strategy.hierarchy.cross_period = 2;
  return config;
}

SimRunResult RunGolden(const RunConfig& config) {
  return StartRun(config, EngineKind::kSim).sim;
}

TEST(RunFacadeTest, SimOutcomesAreGolden) {
  struct Golden {
    StrategyKind kind;
    uint64_t training;
    uint64_t timing;
  };
  const Golden kGolden[] = {
      {StrategyKind::kAllReduce, 0xd3165aeecdaf4d87ull,
       0xb66178ec2cf36c1full},
      {StrategyKind::kEagerReduce, 0x37e563daab73d7fdull,
       0xe75acd2f9b5bc4b3ull},
      {StrategyKind::kAdPsgd, 0x2d818e7298647cd0ull,
       0x9eeac71c6c11dab0ull},
      {StrategyKind::kPsBsp, 0xe7ace50b8656ef76ull,
       0x91acaf893cc2486ull},
      {StrategyKind::kPsAsp, 0xf9a836151e551036ull,
       0xd1c9dcd5a88eeceaull},
      {StrategyKind::kPsHete, 0xb80182c4954a1183ull,
       0xd1c9dcd5a88eeceaull},
      {StrategyKind::kPsBackup, 0x7b339b10a6bc0aa1ull,
       0xe8dc8cd4ea98076ull},
      {StrategyKind::kPReduceConst, 0x123fc2f2cac72d4dull,
       0x964838ced0172630ull},
      {StrategyKind::kPReduceDynamic, 0x93c5f8d1836140dbull,
       0x964838ced0172630ull},
  };
  for (const Golden& g : kGolden) {
    const std::string name = StrategyKindName(g.kind);
    const SimRunResult training = RunGolden(GoldenTrainingConfig(g.kind));
    EXPECT_EQ(training.updates, 40u) << name;
    EXPECT_EQ(training.curve.size(), 4u) << name;
    EXPECT_EQ(HashSimResult(training), g.training)
        << name << " training 0x" << std::hex << HashSimResult(training);
    const SimRunResult timing = RunGolden(GoldenTimingConfig(g.kind));
    EXPECT_EQ(timing.updates, 60u) << name;
    EXPECT_EQ(HashSimResult(timing), g.timing)
        << name << " timing 0x" << std::hex << HashSimResult(timing);
  }
  const SimRunResult hier = RunGolden(GoldenHierarchicalConfig());
  EXPECT_GT(hier.metrics.counter("topo.cross_node_groups"), 0.0);
  EXPECT_EQ(HashSimResult(hier), 0x816ae54ba518686bull)
      << "hierarchical 0x" << std::hex << HashSimResult(hier);
}

}  // namespace
}  // namespace pr
