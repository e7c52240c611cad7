// The segmented rings under a RingWatch, the single P-Reduce protocol's
// data plane: lossy-fabric exactness, abandonment, the payload-copy parity
// of the hardened protocol, and rejection of short peer envelopes.

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "comm/collectives.h"
#include "common/rng.h"
#include "compress/compressor.h"
#include "fault/fault_plan.h"
#include "fault/faulty_transport.h"
#include "runtime/threaded_runtime.h"
#include "runtime/threaded_strategy.h"
#include "runtime/worker_runtime.h"
#include "train/run.h"

namespace pr {
namespace {

// Wire kinds owned by other translation units, named here so the tests can
// forge their messages: the segmented ring's reduce-scatter segment
// (collectives.cc) and P-Reduce's control plane (strategy_p_reduce.cc).
constexpr int kSegRsKind = 108;
constexpr int kReadyKind = 1;
constexpr int kLeaveKind = 2;
constexpr int kGroupInfoKind = 3;
constexpr int kReleaseKind = 4;

constexpr size_t kSegment = 16;

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point begin) {
  return std::chrono::duration<double>(Clock::now() - begin).count();
}

void RunMembers(Transport* transport, const std::vector<NodeId>& members,
                const std::function<void(size_t, Endpoint*)>& fn) {
  std::vector<std::thread> threads;
  for (size_t i = 0; i < members.size(); ++i) {
    threads.emplace_back([&, i] {
      Endpoint ep(transport, members[i]);
      fn(i, &ep);
    });
  }
  for (auto& t : threads) t.join();
}

std::vector<std::vector<float>> MakeInputs(size_t p, size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<std::vector<float>> inputs(p, std::vector<float>(n));
  for (auto& v : inputs) {
    for (auto& x : v) x = static_cast<float>(rng.Normal(0.0, 1.0));
  }
  return inputs;
}

/// Every member's vector and status after one ring.
struct RingRun {
  std::vector<std::vector<float>> data;
  std::vector<Status> status;
};

/// Runs one segmented ring (compressed when `kind` is not kNone, with a
/// fresh compressor per member), each member under its own watch from
/// `make_watch` when that is set.
RingRun RunRing(Transport* transport, const std::vector<NodeId>& members,
                const std::vector<double>& weights,
                std::vector<std::vector<float>> inputs, CompressionKind kind,
                const std::function<RingWatch()>& make_watch) {
  RingRun run{std::move(inputs), std::vector<Status>(members.size())};
  RunMembers(transport, members, [&](size_t i, Endpoint* ep) {
    Compressor comp(kind);
    std::optional<RingWatch> watch;
    if (make_watch) watch = make_watch();
    const RingWatch* w = watch.has_value() ? &*watch : nullptr;
    float* data = run.data[i].data();
    const size_t n = run.data[i].size();
    run.status[i] =
        comp.enabled()
            ? SegmentedRingCompressedAllReduce(ep, members, weights, i,
                                               /*tag=*/1, data, n, &comp,
                                               kSegment, w)
            : SegmentedRingWeightedAllReduce(ep, members, weights, i,
                                             /*tag=*/1, data, n, kSegment, w);
  });
  return run;
}

/// A watch that never gives up on its own (bounded only so a broken ring
/// fails the test instead of hanging it).
RingWatch PatientWatch() {
  const Clock::time_point begin = Clock::now();
  RingWatch watch;
  watch.tick_seconds = 0.01;
  watch.on_tick = [begin] { return SecondsSince(begin) < 20.0; };
  return watch;
}

/// Runs the ring plain on InProcTransport and watched over a fabric that
/// duplicates and delays, and checks the two agree bit for bit.
void CheckWatchedMatchesPlain(CompressionKind kind) {
  const std::vector<NodeId> members = {0, 1, 2, 3};
  const std::vector<double> weights = {0.1, 0.2, 0.3, 0.4};
  const auto inputs = MakeInputs(members.size(), 203, 17);

  InProcTransport plain_fabric(4);
  const RingRun plain =
      RunRing(&plain_fabric, members, weights, inputs, kind, nullptr);

  FaultPlan plan;
  plan.seed = 5;
  plan.default_edge.dup_prob = 0.3;
  plan.default_edge.delay_prob = 0.3;
  plan.default_edge.delay_seconds = 0.003;
  InProcTransport inner(4);
  FaultyTransport lossy(&inner, plan);
  const RingRun watched =
      RunRing(&lossy, members, weights, inputs, kind, PatientWatch);
  EXPECT_GT(lossy.injected_dups(), 0u);
  EXPECT_GT(lossy.injected_delays(), 0u);

  for (size_t i = 0; i < members.size(); ++i) {
    ASSERT_TRUE(plain.status[i].ok()) << plain.status[i].ToString();
    ASSERT_TRUE(watched.status[i].ok()) << watched.status[i].ToString();
    // Exactness, not closeness: selection on (step, chunk, segment) makes
    // duplicates and reordering invisible to the arithmetic, and a
    // compressed group ends with every member holding the same bits.
    EXPECT_EQ(std::memcmp(watched.data[i].data(), plain.data[i].data(),
                          inputs[i].size() * sizeof(float)),
              0)
        << "member " << i;
    EXPECT_EQ(std::memcmp(watched.data[i].data(), watched.data[0].data(),
                          inputs[i].size() * sizeof(float)),
              0)
        << "member " << i;
  }
  lossy.Shutdown();
}

TEST(WatchedRingTest, DupsAndDelaysLeaveResultBitwiseEqualToPlainRing) {
  for (CompressionKind kind :
       {CompressionKind::kNone, CompressionKind::kInt8}) {
    SCOPED_TRACE(CompressionKindName(kind));
    CheckWatchedMatchesPlain(kind);
  }
}

TEST(WatchedRingTest, DroppedSegmentIsAbandonedWithinTheStallValve) {
  const std::vector<NodeId> members = {0, 1, 2};
  const std::vector<double> weights(3, 1.0 / 3.0);
  FaultPlan plan;
  plan.edges[{0, 1}].drop_prob = 1.0;  // every 0 -> 1 segment vanishes
  InProcTransport inner(3);
  FaultyTransport lossy(&inner, plan);

  constexpr double kStallValve = 0.2;
  const Clock::time_point begin = Clock::now();
  const RingRun run = RunRing(
      &lossy, members, weights, MakeInputs(3, 64, 3), CompressionKind::kNone,
      [] {
        const Clock::time_point start = Clock::now();
        RingWatch watch;
        watch.tick_seconds = 0.01;
        watch.on_tick = [start] { return SecondsSince(start) <= kStallValve; };
        return watch;
      });
  // Every member stalls (the lost segment starves the whole ring) and gives
  // up through its watch — no hang, and not long after the valve.
  EXPECT_LT(SecondsSince(begin), kStallValve + 2.0);
  for (size_t i = 0; i < members.size(); ++i) {
    EXPECT_EQ(run.status[i].code(), StatusCode::kUnavailable)
        << "member " << i << ": " << run.status[i].ToString();
  }
  lossy.Shutdown();
}

TEST(WatchedRingTest, ForcedFaultToleranceKeepsPayloadCopiesPerGroup) {
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 4;
  config.run.iterations_per_worker = 20;
  config.run.model.hidden = {16};
  config.run.batch_size = 16;
  config.run.dataset.num_train = 512;
  config.run.dataset.num_test = 128;
  config.run.dataset.dim = 16;
  config.run.dataset.num_classes = 4;
  config.run.seed = 9;
  const ThreadedRunResult plain = StartRun(config).threaded;
  config.run.fault.force_fault_tolerant = true;
  // Armed, but with valves no healthy run reaches even on a loaded host: an
  // aborted and retried group is legitimate and would skew the ratio.
  config.run.fault.lease_seconds = 10.0;
  config.run.fault.max_reduce_stall_seconds = 10.0;
  config.run.fault.stuck_report_ticks = 0;
  const ThreadedRunResult forced = StartRun(config).threaded;
  ASSERT_EQ(forced.metrics.counter("fault.aborted_groups"), 0.0);

  ASSERT_GT(plain.group_reduces, 0u);
  ASSERT_GT(forced.group_reduces, 0u);
  const double copies = plain.metrics.counter("transport.payload_copies");
  EXPECT_GT(copies, 0.0);
  EXPECT_EQ(copies / static_cast<double>(plain.group_reduces),
            forced.metrics.counter("transport.payload_copies") /
                static_cast<double>(forced.group_reduces));
  // The fault.* family only appears when the plan is enabled.
  EXPECT_EQ(plain.metrics.counters.count("fault.retries"), 0u);
  EXPECT_EQ(forced.metrics.counters.count("fault.retries"), 1u);
}

/// Member 0 of a two-member ring over 4 floats expects reduce-scatter
/// segment {step 0, chunk 1, segment 0} of 2 floats from node 1; a raw
/// endpoint on node 1 sends `ints` and `floats` raw floats instead.
Status ReduceAgainstForgedSegment(CompressionKind kind,
                                  std::vector<int64_t> ints, size_t floats) {
  InProcTransport fabric(2);
  Endpoint peer(&fabric, 1);
  EXPECT_TRUE(peer.Send(0, /*tag=*/1, kSegRsKind, std::move(ints),
                        std::vector<float>(floats, 1.0f))
                  .ok());
  Endpoint ep(&fabric, 0);
  Compressor comp(kind);
  std::vector<float> data(4, 1.0f);
  return GroupWeightedAllReduce(&ep, {0, 1}, {0.5, 0.5}, 0, /*tag=*/1,
                                data.data(), data.size(), &comp);
}

TEST(WatchedRingTest, ShortOrMismatchedSegmentIsInvalidArgument) {
  const std::vector<std::vector<int64_t>> bad_fields = {
      {}, {0}, {0, 1}, {3, 1, 0}, {0, 1, 0, 0}};
  for (CompressionKind kind :
       {CompressionKind::kNone, CompressionKind::kInt8}) {
    for (const std::vector<int64_t>& ints : bad_fields) {
      EXPECT_EQ(ReduceAgainstForgedSegment(kind, ints, 2).code(),
                StatusCode::kInvalidArgument)
          << CompressionKindName(kind) << ", " << ints.size() << " ints";
    }
  }
  // Right fields, wrong payload: a raw segment of the wrong length, and raw
  // floats where the compressed ring expects a blob (the decoder rejects it
  // before writing).
  EXPECT_EQ(ReduceAgainstForgedSegment(CompressionKind::kNone, {0, 1, 0}, 3)
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(ReduceAgainstForgedSegment(CompressionKind::kInt8, {0, 1, 0}, 2)
                .code(),
            StatusCode::kInvalidArgument);
}

TEST(WatchedRingTest, WorkerIgnoresShortGroupInfo) {
  // Two CON workers run against a forged controller that answers every
  // Ready with GroupInfo envelopes carrying 0 and 1 control fields (too
  // short to name a group), then a Release. The workers must skip the
  // forgeries and finish their budgets on local steps.
  RunConfig config;
  config.strategy.kind = StrategyKind::kPReduceConst;
  config.strategy.group_size = 2;
  config.run.num_workers = 2;
  config.run.iterations_per_worker = 4;
  config.run.model.hidden = {8};
  config.run.batch_size = 8;
  config.run.dataset.num_train = 128;
  config.run.dataset.num_test = 32;
  config.run.dataset.dim = 8;
  config.run.dataset.num_classes = 3;
  InProcTransport fabric(3);
  std::thread controller([&] {
    Endpoint ep(&fabric, 2);
    int left = 0;
    while (left < 2) {
      std::optional<Envelope> env = ep.RecvAny();
      if (!env.has_value()) return;
      if (env->kind == kLeaveKind) ++left;
      if (env->kind != kReadyKind) continue;
      (void)ep.Send(env->from, 0, kGroupInfoKind, {});
      (void)ep.Send(env->from, 0, kGroupInfoKind, {7});
      (void)ep.Send(env->from, 0, kReleaseKind, {});
    }
  });
  std::unique_ptr<ThreadedStrategy> strategy =
      MakeThreadedStrategy(config.strategy);
  WorkerRuntime runtime(config.strategy, config.run);
  runtime.UseExternalFabric(&fabric);
  runtime.RestrictTo({0, 1}, /*run_service=*/false);
  const ThreadedRunResult result = runtime.Run(strategy.get());
  controller.join();
  ASSERT_EQ(result.worker_iterations.size(), 2u);
  EXPECT_EQ(result.worker_iterations[0], 4u);
  EXPECT_EQ(result.worker_iterations[1], 4u);
}

}  // namespace
}  // namespace pr
