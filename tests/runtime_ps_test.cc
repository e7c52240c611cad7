#include <gtest/gtest.h>

#include "runtime/threaded_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

RunConfig SmallConfig(StrategyKind kind) {
  RunConfig config;
  config.strategy.kind = kind;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 30;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 1024;
  config.run.dataset.num_test = 512;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.dataset.separation = 3.0;
  config.run.seed = 5;
  return config;
}

/// The staleness histogram (`ps.push_staleness`) of a finished run.
const HistogramSnapshot* Staleness(const ThreadedRunResult& result) {
  return result.metrics.histogram("ps.push_staleness");
}

TEST(RuntimePsTest, BspCompletesAndLearns) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = StartRun(config).threaded;
  // BSP: one version per round, iterations_per_worker rounds.
  EXPECT_EQ(result.versions, config.run.iterations_per_worker);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, BspHasZeroStaleness) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = StartRun(config).threaded;
  // Lockstep: every push targets the version it pulled, so every
  // observation lands in the zero bucket.
  const HistogramSnapshot* hist = Staleness(result);
  ASSERT_NE(hist, nullptr);
  ASSERT_FALSE(hist->counts.empty());
  EXPECT_GT(hist->total_count, 0u);
  EXPECT_EQ(hist->counts[0], hist->total_count);
}

TEST(RuntimePsTest, AspCompletesAndLearns) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 60;
  ThreadedRunResult result = StartRun(config).threaded;
  // ASP: one version per push.
  EXPECT_EQ(result.versions,
            static_cast<uint64_t>(config.run.num_workers) *
                config.run.iterations_per_worker);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, AspObservesStalenessUnderStraggler) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 20;
  config.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.004};
  ThreadedRunResult result = StartRun(config).threaded;
  // Some push must have seen staleness >= 1 (fast workers advance the
  // version while the straggler computes).
  const HistogramSnapshot* hist = Staleness(result);
  ASSERT_NE(hist, nullptr);
  ASSERT_FALSE(hist->counts.empty());
  EXPECT_GT(hist->total_count, hist->counts[0]);
}

TEST(RuntimePsTest, StragglerDoesNotBlockAspCompletion) {
  RunConfig config = SmallConfig(StrategyKind::kPsAsp);
  config.run.iterations_per_worker = 15;
  config.run.worker_delay_seconds = {0.0, 0.0, 0.0, 0.01};
  ThreadedRunResult result = StartRun(config).threaded;
  EXPECT_EQ(result.versions, 4u * 15u);
}

TEST(RuntimePsTest, SingleWorkerDegeneratesToSequentialSgd) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  config.run.num_workers = 1;
  config.run.iterations_per_worker = 100;
  ThreadedRunResult result = StartRun(config).threaded;
  EXPECT_EQ(result.versions, 100u);
  EXPECT_GT(result.final_accuracy, 0.6);
}

TEST(RuntimePsTest, PsMetricsAccountForEveryPush) {
  RunConfig config = SmallConfig(StrategyKind::kPsBsp);
  ThreadedRunResult result = StartRun(config).threaded;
  // ps.versions counts server version bumps; the staleness histogram's
  // total count equals the number of pushes the server accepted.
  EXPECT_EQ(static_cast<uint64_t>(result.metrics.counter("ps.versions")),
            result.versions);
  const HistogramSnapshot* h = Staleness(result);
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->total_count,
            static_cast<uint64_t>(config.run.num_workers) *
                config.run.iterations_per_worker);
}

}  // namespace
}  // namespace pr
