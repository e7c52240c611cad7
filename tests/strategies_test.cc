#include <gtest/gtest.h>

#include <cmath>

#include "strategies/strategy.h"
#include "train/run.h"

namespace pr {
namespace {

SimRunResult RunSim(const RunConfig& config) {
  return StartRun(config, EngineKind::kSim).sim;
}

/// Small, fast configuration shared across strategy tests.
RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config;
  config.run.num_workers = 4;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  SyntheticSpec spec;
  spec.num_train = 1024;
  spec.num_test = 512;
  spec.dim = 16;
  spec.num_classes = 4;
  spec.separation = 3.0;
  config.run.dataset = spec;
  config.sim.paper_model = "resnet18";
  config.sim.accuracy_threshold = 0.9;
  config.sim.max_updates = 6000;
  config.sim.eval_every = 20;
  config.run.seed = 3;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.strategy.backup_workers = 1;
  return config;
}

RunConfig TimingConfig(StrategyKind kind, int n,
                       const HeteroSpec& hetero, size_t updates) {
  RunConfig config;
  config.run.batch_size = 8;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.dataset = SpecForDataset("cifar10");
  config.run.num_workers = n;
  config.sim.timing_only = true;
  config.sim.max_updates = updates;
  config.sim.hetero = hetero;
  config.sim.paper_model = "resnet34";
  config.run.seed = 7;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  config.strategy.backup_workers = n / 4 + 1;
  return config;
}

class AllStrategiesTest : public ::testing::TestWithParam<StrategyKind> {};

TEST_P(AllStrategiesTest, ConvergesToThresholdOrReportsHonestly) {
  RunConfig config = SmallConfig(GetParam());
  SimRunResult result = RunSim(config);
  EXPECT_GT(result.updates, 0u);
  EXPECT_GT(result.sim_seconds, 0.0);
  // Every strategy except Eager-Reduce should reach 90% on this easy task.
  if (GetParam() != StrategyKind::kEagerReduce) {
    EXPECT_TRUE(result.converged)
        << StrategyKindName(GetParam()) << " final acc "
        << result.final_accuracy;
  }
  EXPECT_GE(result.best_accuracy, 0.2);
}

TEST_P(AllStrategiesTest, DeterministicInSeed) {
  // Timing-only runs are cheap; determinism must hold bit-for-bit.
  RunConfig config =
      TimingConfig(GetParam(), 4, HeteroSpec::Production(), 200);
  SimRunResult a = RunSim(config);
  SimRunResult b = RunSim(config);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.updates, b.updates);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, AllStrategiesTest,
    ::testing::Values(StrategyKind::kAllReduce, StrategyKind::kEagerReduce,
                      StrategyKind::kAdPsgd, StrategyKind::kPsBsp,
                      StrategyKind::kPsAsp, StrategyKind::kPsHete,
                      StrategyKind::kPsBackup, StrategyKind::kPReduceConst,
                      StrategyKind::kPReduceDynamic),
    [](const ::testing::TestParamInfo<StrategyKind>& info) {
      std::string name = StrategyKindName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(StrategyNamesTest, AllDistinct) {
  std::set<std::string> names;
  for (StrategyKind kind :
       {StrategyKind::kAllReduce, StrategyKind::kEagerReduce,
        StrategyKind::kAdPsgd, StrategyKind::kPsBsp, StrategyKind::kPsAsp,
        StrategyKind::kPsHete, StrategyKind::kPsBackup,
        StrategyKind::kPReduceConst, StrategyKind::kPReduceDynamic}) {
    names.insert(StrategyKindName(kind));
  }
  EXPECT_EQ(names.size(), 9u);
}

// ---------------------------------------------------------------------------
// Hardware-efficiency semantics (timing-only, cheap)
// ---------------------------------------------------------------------------

TEST(AllReduceSemanticsTest, RoundTimeTracksSlowestWorker) {
  // Under GPU sharing (HL=2) the straggler sets the AR round time.
  auto hom = RunSim(TimingConfig(StrategyKind::kAllReduce, 4,
                                 HeteroSpec::Homogeneous(), 200));
  auto het = RunSim(TimingConfig(StrategyKind::kAllReduce, 4,
                                 HeteroSpec::GpuSharing(2), 200));
  EXPECT_GT(het.per_update_seconds, 1.5 * hom.per_update_seconds);
}

TEST(PReduceSemanticsTest, LessSensitiveToStragglersThanAllReduce) {
  auto ar_h = RunSim(TimingConfig(StrategyKind::kAllReduce, 8,
                                  HeteroSpec::GpuSharing(3), 400));
  auto pr_h = RunSim(TimingConfig(StrategyKind::kPReduceConst, 8,
                                  HeteroSpec::GpuSharing(3), 400));
  // Normalize per-update times by gradients incorporated per update:
  // AR incorporates N per update, P-Reduce incorporates P.
  const double ar_per_grad = ar_h.per_update_seconds / 8.0;
  const double pr_per_grad = pr_h.per_update_seconds / 3.0;
  EXPECT_LT(pr_per_grad, ar_per_grad);
}

TEST(PReduceSemanticsTest, IdleFractionFarBelowAllReduce) {
  auto ar = RunSim(TimingConfig(StrategyKind::kAllReduce, 8,
                                HeteroSpec::GpuSharing(3), 300));
  auto pred = RunSim(TimingConfig(StrategyKind::kPReduceConst, 8,
                                  HeteroSpec::GpuSharing(3), 300));
  EXPECT_LT(pred.mean_idle_fraction, ar.mean_idle_fraction);
}

TEST(PReduceSemanticsTest, UpdateCadenceScalesWithGroupSize) {
  // With fixed worker speed, P-Reduce emits ~N/P updates per iteration
  // span: doubling P should roughly double per-update spacing.
  auto p2 = TimingConfig(StrategyKind::kPReduceConst, 8,
                         HeteroSpec::Homogeneous(), 400);
  p2.strategy.group_size = 2;
  auto p4 = TimingConfig(StrategyKind::kPReduceConst, 8,
                         HeteroSpec::Homogeneous(), 400);
  p4.strategy.group_size = 4;
  auto r2 = RunSim(p2);
  auto r4 = RunSim(p4);
  EXPECT_GT(r4.per_update_seconds, 1.5 * r2.per_update_seconds);
}

TEST(MomentumAveragingTest, ConvergesWithMergedOptimizerState) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.strategy.average_momentum = true;
  SimRunResult result = RunSim(config);
  EXPECT_TRUE(result.converged);
}

TEST(MomentumAveragingTest, ChangesTrajectory) {
  // Same seed, with vs without momentum merging: trajectories must differ
  // (the knob is actually wired through).
  RunConfig base = SmallConfig(StrategyKind::kPReduceConst);
  base.sim.accuracy_threshold = -1.0;
  base.sim.max_updates = 60;
  RunConfig merged = base;
  merged.strategy.average_momentum = true;
  SimTraining a(base), b(merged);
  auto sa = MakeStrategy(&a);
  auto sb = MakeStrategy(&b);
  sa->Start();
  sb->Start();
  a.engine()->RunUntil([&] { return a.stopped(); });
  b.engine()->RunUntil([&] { return b.stopped(); });
  EXPECT_NE(a.params(0), b.params(0));
}

TEST(ElasticMembershipTest, LeaveAndRejoinKeepsTrainingConverging) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.run.num_workers = 6;
  config.strategy.group_size = 2;
  config.run.trace_capacity = 1 << 16;
  // Worker 5 leaves early and rejoins mid-run with its (stale) model; the
  // run meets its threshold a few seconds in, well after the rejoin.
  config.run.churn = {{/*worker=*/5, /*after_iterations=*/3,
                       /*pause_seconds=*/1.0}};
  SimRunResult result = RunSim(config);
  EXPECT_TRUE(result.converged) << "final acc " << result.final_accuracy;
  ASSERT_EQ(result.trace.dropped, 0u);
  double left_at = -1.0;
  double rejoined_at = -1.0;
  int signals_after_rejoin = 0;
  for (const TraceEvent& e : result.trace.events) {
    if (e.worker != 5) continue;
    if (e.kind == TraceEventKind::kChurnLeave) left_at = e.time;
    if (e.kind == TraceEventKind::kChurnRejoin) rejoined_at = e.time;
    if (e.kind == TraceEventKind::kSignalEnqueued && rejoined_at >= 0.0) {
      ++signals_after_rejoin;
    }
  }
  EXPECT_GE(left_at, 0.0) << "worker 5 never left";
  EXPECT_GT(rejoined_at, left_at) << "worker 5 never rejoined";
  EXPECT_GT(signals_after_rejoin, 0) << "worker 5 never trained again";
}

TEST(ElasticMembershipTest, PermanentDeparturesStillConverge) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceDynamic);
  config.run.num_workers = 6;
  config.strategy.group_size = 2;
  // Pauses longer than the whole run: the workers never come back.
  config.run.churn = {{4, 5, 1e6}, {5, 16, 1e6}};
  SimRunResult result = RunSim(config);
  EXPECT_TRUE(result.converged);
}

TEST(ElasticMembershipTest, TimingOnlyChurnKeepsCadence) {
  RunConfig config =
      TimingConfig(StrategyKind::kPReduceConst, 6, HeteroSpec::Homogeneous(),
                   400);
  config.strategy.group_size = 2;
  config.run.churn = {{0, 27, 30.0}};
  SimRunResult result = RunSim(config);
  EXPECT_EQ(result.updates, 400u);
}

TEST(OverlapSemanticsTest, OverlapSpeedsUpAllReduceOnly) {
  auto run = [](StrategyKind kind, double overlap) {
    RunConfig config =
        TimingConfig(kind, 8, HeteroSpec::Homogeneous(), 200);
    config.sim.paper_model = "vgg19";  // comm-heavy
    config.sim.cost.gradient_overlap = overlap;
    return RunSim(config).sim_seconds;
  };
  // AR aggregates gradients: overlap hides most of its collective.
  EXPECT_LT(run(StrategyKind::kAllReduce, 0.9),
            0.95 * run(StrategyKind::kAllReduce, 0.0));
  // P-Reduce averages models: overlap cannot apply.
  EXPECT_DOUBLE_EQ(run(StrategyKind::kPReduceConst, 0.9),
                   run(StrategyKind::kPReduceConst, 0.0));
}

TEST(PsBackupSemanticsTest, DropsStragglerGradients) {
  auto result = RunSim(TimingConfig(StrategyKind::kPsBackup, 8,
                                    HeteroSpec::GpuSharing(3), 400));
  EXPECT_GT(result.wasted_gradients, 0u);
}

TEST(PsBackupSemanticsTest, NoWasteWithoutBackupsInHomogeneousCluster) {
  auto config = TimingConfig(StrategyKind::kPsBackup, 4,
                             HeteroSpec::Homogeneous(), 200);
  config.strategy.backup_workers = 0;
  auto result = RunSim(config);
  EXPECT_EQ(result.wasted_gradients, 0u);
}

TEST(PReduceSemanticsTest, FrozenAvoidanceStatsSurface) {
  auto config = TimingConfig(StrategyKind::kPReduceConst, 4,
                             HeteroSpec::Homogeneous(), 500);
  config.strategy.group_size = 2;
  auto result = RunSim(config);
  // Stats plumbed through (bridging may or may not trigger here; the
  // adversarial case is covered in controller_test).
  EXPECT_GE(result.frozen_detections, 0u);
}

// ---------------------------------------------------------------------------
// Statistical-efficiency semantics
// ---------------------------------------------------------------------------

TEST(StatisticalSemanticsTest, AsyncNeedsMoreUpdatesThanBsp) {
  // ASP counts one update per worker push, BSP one per N-gradient round;
  // per gradient consumed, staleness costs ASP efficiency. Compare
  // gradient counts to convergence: ASP >= BSP's N * rounds is not
  // guaranteed on an easy task, but ASP should need at least as many
  // gradients.
  auto bsp = RunSim(SmallConfig(StrategyKind::kPsBsp));
  auto asp = RunSim(SmallConfig(StrategyKind::kPsAsp));
  ASSERT_TRUE(bsp.converged);
  ASSERT_TRUE(asp.converged);
  // ASP counts one update per worker push; BSP one per N-gradient round.
  EXPECT_GT(asp.updates, bsp.updates);
}

TEST(StatisticalSemanticsTest, EagerReducePlateausBelowStrictThreshold) {
  RunConfig config = SmallConfig(StrategyKind::kEagerReduce);
  config.sim.hetero = HeteroSpec::GpuSharing(2);
  config.sim.accuracy_threshold = 0.93;
  config.sim.max_updates = 4000;
  auto er = RunSim(config);

  RunConfig ar_config = SmallConfig(StrategyKind::kAllReduce);
  ar_config.sim.hetero = HeteroSpec::GpuSharing(2);
  ar_config.sim.accuracy_threshold = 0.93;
  ar_config.sim.max_updates = 4000;
  auto ar = RunSim(ar_config);

  EXPECT_TRUE(ar.converged);
  EXPECT_LT(er.best_accuracy, ar.best_accuracy + 1e-9);
}

TEST(StatisticalSemanticsTest, PReduceReplicasReachConsensusAccuracy) {
  // After convergence, the averaged model must actually be good — the
  // consensus across replicas is what Alg. 2 line 8 evaluates.
  auto result = RunSim(SmallConfig(StrategyKind::kPReduceConst));
  ASSERT_TRUE(result.converged);
  EXPECT_GE(result.final_accuracy, 0.9);
}

TEST(StatisticalSemanticsTest, DynamicWeightsHelpUnderSevereStaleness) {
  // With a severe straggler, DYN should need no more updates than CON
  // (weighted aggregation damps the stale model).
  HeteroSpec severe;
  severe.kind = HeteroSpec::Kind::kGpuSharing;
  severe.sharing_level = 2;

  RunConfig con = SmallConfig(StrategyKind::kPReduceConst);
  con.sim.hetero = severe;
  con.run.seed = 13;
  RunConfig dyn = SmallConfig(StrategyKind::kPReduceDynamic);
  dyn.sim.hetero = severe;
  dyn.run.seed = 13;

  auto rc = RunSim(con);
  auto rd = RunSim(dyn);
  ASSERT_TRUE(rc.converged);
  ASSERT_TRUE(rd.converged);
  // The effect is statistical at this tiny scale; assert DYN stays in the
  // same ballpark (the directional comparison is benchmarked in
  // bench_fig5_staleness / bench_ablation_dynamic over seeds).
  EXPECT_LT(static_cast<double>(rd.updates),
            2.0 * static_cast<double>(rc.updates));
}

TEST(StatisticalSemanticsTest, AllReduceMatchesSequentialLargeBatchSgd) {
  // AR with N workers is equivalent to one worker with an N-fold batch: all
  // replicas stay identical. Verify replicas remain equal by checking the
  // evaluated accuracy equals a single replica's accuracy.
  RunConfig config = SmallConfig(StrategyKind::kAllReduce);
  config.sim.max_updates = 50;
  config.sim.accuracy_threshold = -1.0;
  SimTraining ctx(config);
  auto strategy = MakeStrategy(&ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  for (int w = 1; w < 4; ++w) {
    EXPECT_EQ(ctx.params(0), ctx.params(w)) << "replica " << w << " diverged";
  }
}

TEST(StatisticalSemanticsTest, PReduceGroupMembersLeaveWithEqualModels) {
  RunConfig config = SmallConfig(StrategyKind::kPReduceConst);
  config.strategy.group_size = 4;  // P = N: every reduce merges everyone
  config.sim.max_updates = 9;
  config.sim.accuracy_threshold = -1.0;
  SimTraining ctx(config);
  auto strategy = MakeStrategy(&ctx);
  strategy->Start();
  ctx.engine()->RunUntil([&] { return ctx.stopped(); });
  // With P = N the last completed reduce synchronized all replicas; any
  // replicas that have since computed diverge, so compare only pairs that
  // are in sync at the stop point is fragile. Instead check the spread is
  // bounded (all within one local step of each other).
  double spread = 0.0;
  for (size_t i = 0; i < ctx.num_params(); ++i) {
    float lo = ctx.params(0)[i], hi = lo;
    for (int w = 1; w < 4; ++w) {
      lo = std::min(lo, ctx.params(w)[i]);
      hi = std::max(hi, ctx.params(w)[i]);
    }
    spread = std::max(spread, static_cast<double>(hi - lo));
  }
  EXPECT_LT(spread, 1.0);
}

TEST(StatisticalSemanticsTest, PsHeteDampsStaleUpdates) {
  // Under strong heterogeneity, HETE (damped stale gradients) should reach
  // the threshold in no more updates than ASP, seed-for-seed, on average.
  int hete_wins = 0;
  for (uint64_t seed : {3u, 4u, 5u}) {
    RunConfig asp = SmallConfig(StrategyKind::kPsAsp);
    asp.sim.hetero = HeteroSpec::GpuSharing(2);
    asp.run.seed = seed;
    RunConfig hete = SmallConfig(StrategyKind::kPsHete);
    hete.sim.hetero = HeteroSpec::GpuSharing(2);
    hete.run.seed = seed;
    auto ra = RunSim(asp);
    auto rh = RunSim(hete);
    if (rh.converged &&
        (!ra.converged || rh.updates <= ra.updates * 12 / 10)) {
      ++hete_wins;
    }
  }
  EXPECT_GE(hete_wins, 2);
}

}  // namespace
}  // namespace pr
