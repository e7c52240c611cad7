#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/controller.h"
#include "core/group_history.h"

namespace pr {
namespace {

TEST(GroupHistoryTest, MinWindowFormula) {
  // T >= ceil((N-1)/(P-1)), paper §4.
  EXPECT_EQ(GroupHistory::MinWindow(8, 2), 7u);
  EXPECT_EQ(GroupHistory::MinWindow(8, 3), 4u);  // ceil(7/2)
  EXPECT_EQ(GroupHistory::MinWindow(8, 5), 2u);  // ceil(7/4)
  EXPECT_EQ(GroupHistory::MinWindow(8, 8), 1u);
  EXPECT_EQ(GroupHistory::MinWindow(2, 2), 1u);
  EXPECT_EQ(GroupHistory::MinWindow(16, 4), 5u);
}

TEST(GroupHistoryTest, WindowEviction) {
  GroupHistory h(4, 2);
  h.Record({0, 1});
  h.Record({1, 2});
  h.Record({2, 3});
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.groups().front(), (std::vector<int>{1, 2}));
  EXPECT_EQ(h.groups().back(), (std::vector<int>{2, 3}));
}

TEST(GroupHistoryTest, NotFrozenBeforeWindowFills) {
  GroupHistory h(4, 3);
  h.Record({0, 1});
  h.Record({0, 1});
  EXPECT_FALSE(h.Full());
  EXPECT_FALSE(h.IsFrozen());  // vacuous: detection disabled until full
}

TEST(GroupHistoryTest, FrozenDetectedOnDisconnectedWindow) {
  GroupHistory h(4, 3);
  h.Record({0, 1});
  h.Record({2, 3});
  h.Record({0, 1});
  EXPECT_TRUE(h.Full());
  EXPECT_TRUE(h.IsFrozen());
}

TEST(GroupHistoryTest, NotFrozenWhenWindowSpansAllWorkers) {
  GroupHistory h(4, 3);
  h.Record({0, 1});
  h.Record({1, 2});
  h.Record({2, 3});
  EXPECT_FALSE(h.IsFrozen());
}

TEST(GroupHistoryTest, FrozenStateFollowsSlidingWindow) {
  GroupHistory h(4, 2);
  h.Record({0, 1});
  h.Record({2, 3});
  EXPECT_TRUE(h.IsFrozen());
  h.Record({1, 2});  // window now {2,3},{1,2}: still missing 0
  EXPECT_TRUE(h.IsFrozen());
  h.Record({0, 3});  // window {1,2},{0,3}: 1-2, 0-3 -> two components
  EXPECT_TRUE(h.IsFrozen());
  h.Record({0, 1});
  h.Record({0, 2});
  h.Record({0, 3});  // window {0,2},{0,3}: 0-2-3 connected, 1 isolated
  EXPECT_TRUE(h.IsFrozen());
}

TEST(GroupHistoryTest, SyncGraphReflectsWindowOnly) {
  GroupHistory h(4, 1);
  h.Record({0, 1, 2, 3});
  EXPECT_TRUE(h.BuildSyncGraph().IsConnected());
  h.Record({0, 1});  // evicts the connecting group
  EXPECT_FALSE(h.BuildSyncGraph().IsConnected());
}

// The cached graph must answer exactly like a graph built from scratch.
void ExpectMatchesRebuild(const GroupHistory& h, size_t n) {
  SyncGraph fresh(n);
  for (const std::vector<int>& g : h.groups()) fresh.AddGroup(g);
  const SyncGraph& cached = h.BuildSyncGraph();
  EXPECT_EQ(cached.NumComponents(), fresh.NumComponents());
  for (size_t w = 0; w < n; ++w) {
    EXPECT_EQ(cached.ComponentOf(static_cast<int>(w)),
              fresh.ComponentOf(static_cast<int>(w)))
        << "worker " << w;
  }
  EXPECT_EQ(h.IsFrozen(), h.Full() && !fresh.IsConnected());
}

std::vector<int> RandomGroup(Rng* rng, size_t n) {
  std::vector<size_t> picks =
      rng->SampleWithoutReplacement(n, 2 + rng->UniformInt(3));
  return std::vector<int>(picks.begin(), picks.end());
}

TEST(GroupHistoryTest, CachedGraphMatchesRebuild) {
  constexpr size_t kN = 12;
  GroupHistory h(kN, 4);
  Rng rng(5);
  ExpectMatchesRebuild(h, kN);
  for (int i = 0; i < 60; ++i) {
    h.Record(RandomGroup(&rng, kN));  // evicts from the 5th record on
    // Query on most records, skip some so several Records stack up.
    if (i % 3 != 2) ExpectMatchesRebuild(h, kN);
  }
  // The reference stays the same object between Records.
  EXPECT_EQ(&h.BuildSyncGraph(), &h.BuildSyncGraph());

  // Restore seeds the history of a controller that already formed groups.
  ControllerOptions opt;
  opt.num_workers = static_cast<int>(kN);
  opt.group_size = 3;
  Controller c(opt);
  for (int w = 0; w < 9; ++w) c.OnReadySignal(w, 1);
  ExpectMatchesRebuild(c.history(), kN);
  ControllerRestoreState state;
  for (int i = 0; i < 3; ++i) state.history.push_back(RandomGroup(&rng, kN));
  c.Restore(state);
  ExpectMatchesRebuild(c.history(), kN);
}

}  // namespace
}  // namespace pr
