#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ckpt/manifest.h"
#include "runtime/threaded_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

namespace fs = std::filesystem;

/// Scoped checkpoint directory under the system temp dir.
class CkptDir {
 public:
  explicit CkptDir(const std::string& tag)
      : dir_((fs::temp_directory_path() /
              ("pr_ckpt_" + tag + "_" + std::to_string(::getpid())))
                 .string()) {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  ~CkptDir() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }
  const std::string& path() const { return dir_; }

 private:
  std::string dir_;
};

RunManifest SampleManifest(uint64_t epoch) {
  RunManifest m;
  m.engine = "threaded";
  m.strategy = "CON";
  m.num_workers = 3;
  m.num_params = 7;
  m.seed = 42;
  m.epoch = epoch;
  m.updates_done = 12 * epoch;
  m.next_group_id = 9;
  m.saved_at_seconds = 1.5;
  m.history = {{0, 1}, {1, 2, 0}};
  for (int w = 0; w < 3; ++w) {
    ManifestWorker mw;
    mw.worker = w;
    mw.iteration = 10 + w;
    mw.completed = 8 + static_cast<uint64_t>(w);
    mw.shard_file = ShardFileName(epoch, w);
    m.workers.push_back(mw);
  }
  return m;
}

TEST(ManifestTest, RoundTripsEveryField) {
  CkptDir dir("roundtrip");
  const RunManifest m = SampleManifest(3);
  ASSERT_TRUE(SaveManifest(dir.path(), m).ok());

  RunManifest loaded;
  ASSERT_TRUE(LoadManifest(ManifestPath(dir.path(), 3), &loaded).ok());
  EXPECT_EQ(loaded.engine, m.engine);
  EXPECT_EQ(loaded.strategy, m.strategy);
  EXPECT_EQ(loaded.num_workers, m.num_workers);
  EXPECT_EQ(loaded.num_params, m.num_params);
  EXPECT_EQ(loaded.seed, m.seed);
  EXPECT_EQ(loaded.epoch, m.epoch);
  EXPECT_EQ(loaded.updates_done, m.updates_done);
  EXPECT_EQ(loaded.next_group_id, m.next_group_id);
  EXPECT_DOUBLE_EQ(loaded.saved_at_seconds, m.saved_at_seconds);
  EXPECT_EQ(loaded.history, m.history);
  ASSERT_EQ(loaded.workers.size(), m.workers.size());
  for (size_t i = 0; i < m.workers.size(); ++i) {
    EXPECT_EQ(loaded.workers[i].worker, m.workers[i].worker);
    EXPECT_EQ(loaded.workers[i].iteration, m.workers[i].iteration);
    EXPECT_EQ(loaded.workers[i].completed, m.workers[i].completed);
    EXPECT_EQ(loaded.workers[i].shard_file, m.workers[i].shard_file);
  }
}

TEST(ManifestTest, TornManifestFallsBackToPreviousEpoch) {
  CkptDir dir("torn");
  ASSERT_TRUE(SaveManifest(dir.path(), SampleManifest(1)).ok());
  ASSERT_TRUE(SaveManifest(dir.path(), SampleManifest(2)).ok());

  // Tear epoch 2 the way a crash mid-write would (if rename were not
  // atomic): keep the first bytes, drop the tail with the checksum.
  const std::string torn = ManifestPath(dir.path(), 2);
  ASSERT_TRUE(fs::exists(torn));
  fs::resize_file(torn, fs::file_size(torn) / 2);

  RunManifest latest;
  std::string path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &path).ok());
  EXPECT_EQ(latest.epoch, 1u);
  EXPECT_EQ(path, ManifestPath(dir.path(), 1));
}

TEST(ManifestTest, FindLatestFailsOnEmptyDir) {
  CkptDir dir("empty");
  std::error_code ec;
  fs::create_directories(dir.path(), ec);
  RunManifest latest;
  EXPECT_FALSE(FindLatestManifest(dir.path(), &latest).ok());
}

TEST(ManifestTest, ShardRoundTripsParamsAndVelocity) {
  CkptDir dir("shard");
  std::error_code ec;
  fs::create_directories(dir.path(), ec);
  const std::vector<float> params = {1.0f, -2.5f, 3.25f};
  const std::vector<float> velocity = {0.5f, 0.0f, -7.0f};
  const std::string path = ShardPath(dir.path(), 4, 1);
  ASSERT_TRUE(SaveWorkerShard(path,
                              Slice(params.data(), params.size()),
                              Slice(velocity.data(), velocity.size()))
                  .ok());

  std::vector<float> p;
  std::vector<float> v;
  ASSERT_TRUE(LoadWorkerShard(path, 3, &p, &v).ok());
  EXPECT_EQ(p, params);
  EXPECT_EQ(v, velocity);
  // A shard read with the wrong parameter count must fail loudly rather
  // than split the floats at the wrong boundary.
  EXPECT_FALSE(LoadWorkerShard(path, 4, &p, &v).ok());
}

// ---------------------------------------------------------------------------
// Threaded engine: checkpoint + restore.
// ---------------------------------------------------------------------------

RunConfig SmallThreadedConfig(StrategyKind kind, const std::string& ckpt_dir) {
  RunConfig config;
  config.strategy.kind = kind;
  config.strategy.group_size = 2;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 9;
  config.run.model.hidden = {8};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  config.run.seed = 11;
  config.run.ckpt.dir = ckpt_dir;
  config.run.ckpt.every_iterations = 3;
  return config;
}

TEST(CkptRestoreTest, AllReduceRestoreIsBitForBitIdentical) {
  CkptDir dir("ar_bitwise");
  const RunConfig config =
      SmallThreadedConfig(StrategyKind::kAllReduce, dir.path());
  ThreadedRunResult full = StartRun(config).threaded;
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 2.0);
  ASSERT_FALSE(full.final_params.empty());

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.epoch, 2u);  // cuts at k=3 and k=6; k=9 ends the run

  ThreadedRunResult restored =
      ResumeRun(config, EngineKind::kThreaded, manifest_path).threaded;
  // The acceptance bar: a restored AR run must replay the exact remaining
  // iterations — same batches, same averaged gradients, same momentum — so
  // the final parameters match the never-interrupted run bit for bit.
  ASSERT_EQ(restored.final_params.size(), full.final_params.size());
  for (size_t i = 0; i < full.final_params.size(); ++i) {
    ASSERT_EQ(restored.final_params[i], full.final_params[i])
        << "parameter " << i << " diverged after restore";
  }
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
  EXPECT_EQ(full.metrics.counter("ckpt.restore_count"), 0.0);
}

TEST(CkptRestoreTest, PReduceRestoreFinishesTheBudget) {
  CkptDir dir("preduce_resume");
  RunConfig config =
      SmallThreadedConfig(StrategyKind::kPReduceConst, dir.path());
  config.run.worker_delay_seconds.assign(4, 0.001);
  ThreadedRunResult full = StartRun(config).threaded;
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.strategy, "CON");
  EXPECT_EQ(latest.engine, "threaded");

  ThreadedRunResult restored =
      ResumeRun(config, EngineKind::kThreaded, manifest_path).threaded;
  // Metric continuity: iteration counters resume at the restored counts, so
  // a resumed run reports the same totals as an uninterrupted one.
  for (size_t iters : restored.worker_iterations) {
    EXPECT_EQ(iters, config.run.iterations_per_worker);
  }
  EXPECT_EQ(restored.metrics.counter("worker.0.iterations"),
            static_cast<double>(config.run.iterations_per_worker));
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
  EXPECT_GT(restored.group_reduces, 0u);
}

TEST(CkptRestoreTest, RestoreRejectsMismatchedStrategy) {
  CkptDir dir("mismatch");
  const RunConfig config =
      SmallThreadedConfig(StrategyKind::kAllReduce, dir.path());
  (void)StartRun(config).threaded;
  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());

  RunConfig wrong = config;
  wrong.strategy.kind = StrategyKind::kPReduceConst;
  EXPECT_DEATH(ResumeRun(wrong, EngineKind::kThreaded, manifest_path),
               "strategy");
}

// ---------------------------------------------------------------------------
// Simulated engine: checkpoint + restore determinism.
// ---------------------------------------------------------------------------

RunConfig SmallSimConfig(StrategyKind kind, const std::string& dir) {
  RunConfig config;
  config.run.batch_size = 8;
  config.run.model = {ProxyModelSpec::Kind::kMlp, {64}, 8};
  config.run.dataset = SpecForDataset("cifar10");
  config.sim.eval_every = 25;
  config.run.num_workers = 6;
  config.sim.max_updates = 40;
  config.sim.accuracy_threshold = -1.0;
  config.run.seed = 5;
  config.run.ckpt.dir = dir;
  config.run.ckpt.every_iterations = 5;
  config.strategy.kind = kind;
  config.strategy.group_size = 3;
  return config;
}

TEST(CkptRestoreTest, SimRestoreIsDeterministic) {
  CkptDir dir("sim_det");
  const RunConfig config =
      SmallSimConfig(StrategyKind::kPReduceConst, dir.path());
  SimRunResult full = StartRun(config, EngineKind::kSim).sim;
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);
  EXPECT_EQ(full.updates, 40u);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.engine, "sim");

  SimRunResult a = ResumeRun(config, EngineKind::kSim, manifest_path).sim;
  SimRunResult b = ResumeRun(config, EngineKind::kSim, manifest_path).sim;
  // The simulator is deterministic in (seed, restored state): two restores
  // of one manifest must replay identically, down to the virtual clock.
  EXPECT_EQ(a.updates, 40u);
  EXPECT_EQ(a.updates, b.updates);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  EXPECT_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.metrics.counter("controller.groups_formed"),
            b.metrics.counter("controller.groups_formed"));
  EXPECT_EQ(a.metrics.counter("ckpt.restore_count"), 1.0);
}

TEST(CkptRestoreTest, SimCutsEveryIterationsWorthOfUpdates) {
  CkptDir dir("sim_period");
  const RunConfig config =
      SmallSimConfig(StrategyKind::kPReduceConst, dir.path());
  // 5 iterations x 6 workers / 3 gradients per group = a cut every 10
  // updates; the run stops at 40, so cuts land at 10, 20 and 30.
  SimRunResult full = StartRun(config, EngineKind::kSim).sim;
  EXPECT_EQ(full.metrics.counter("ckpt.manifests_written"), 3.0);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  EXPECT_EQ(latest.epoch, 3u);
  EXPECT_EQ(latest.updates_done, 30u);

  SimRunResult a = ResumeRun(config, EngineKind::kSim, manifest_path).sim;
  SimRunResult b = ResumeRun(config, EngineKind::kSim, manifest_path).sim;
  EXPECT_EQ(a.updates, 40u);
  EXPECT_EQ(a.sim_seconds, b.sim_seconds);
  ASSERT_FALSE(a.curve.empty());
  ASSERT_EQ(a.curve.size(), b.curve.size());
  EXPECT_EQ(a.curve.back().loss, b.curve.back().loss);
}

TEST(CkptRestoreTest, SimAllReduceCheckpoints) {
  CkptDir dir("sim_ar");
  const RunConfig config =
      SmallSimConfig(StrategyKind::kAllReduce, dir.path());
  SimRunResult full = StartRun(config, EngineKind::kSim).sim;
  ASSERT_GE(full.metrics.counter("ckpt.manifests_written"), 1.0);

  RunManifest latest;
  std::string manifest_path;
  ASSERT_TRUE(FindLatestManifest(dir.path(), &latest, &manifest_path).ok());
  SimRunResult restored =
      ResumeRun(config, EngineKind::kSim, manifest_path).sim;
  EXPECT_EQ(restored.updates, 40u);
  EXPECT_EQ(restored.metrics.counter("ckpt.restore_count"), 1.0);
}

// ---------------------------------------------------------------------------
// Cross-engine metric-name parity for the ckpt.* family.
// ---------------------------------------------------------------------------

TEST(CkptRestoreTest, CkptMetricNamesMatchAcrossEngines) {
  CkptDir tdir("parity_threaded");
  CkptDir sdir("parity_sim");
  ThreadedRunResult threaded =
      StartRun(SmallThreadedConfig(StrategyKind::kAllReduce, tdir.path()))
          .threaded;
  SimRunResult sim =
      StartRun(SmallSimConfig(StrategyKind::kPReduceConst, sdir.path()),
               EngineKind::kSim)
          .sim;

  for (const char* name : {"ckpt.manifests_written", "ckpt.restore_count"}) {
    EXPECT_TRUE(threaded.metrics.counters.count(name) != 0)
        << "threaded run report is missing " << name;
    EXPECT_TRUE(sim.metrics.counters.count(name) != 0)
        << "sim run report is missing " << name;
  }
  ASSERT_NE(threaded.metrics.histogram("ckpt.save_seconds"), nullptr);
  ASSERT_NE(sim.metrics.histogram("ckpt.save_seconds"), nullptr);
}

}  // namespace
}  // namespace pr
