#include <gtest/gtest.h>

#include "core/group_filter.h"

namespace pr {
namespace {

std::deque<ReadySignal> MakeQueue(const std::vector<int>& workers) {
  std::deque<ReadySignal> q;
  for (int w : workers) q.push_back(ReadySignal{w, 0});
  return q;
}

TEST(GroupFilterTest, FifoWhenHealthy) {
  GroupFilter filter(3);
  GroupHistory history(8, 4);  // empty -> not frozen
  auto selection =
      filter.Select(MakeQueue({5, 2, 7, 1}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1, 2}));
  EXPECT_FALSE(selection.bridged);
}

TEST(GroupFilterTest, FifoWhenWindowConnected) {
  GroupFilter filter(2);
  GroupHistory history(4, 3);
  history.Record({0, 1});
  history.Record({1, 2});
  history.Record({2, 3});
  auto selection =
      filter.Select(MakeQueue({0, 1, 2}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
  EXPECT_FALSE(selection.bridged);
}

TEST(GroupFilterTest, BridgesAcrossComponentsWhenFrozen) {
  GroupFilter filter(2);
  GroupHistory history(4, 3);
  // Frozen history: components {0,1} and {2,3}.
  history.Record({0, 1});
  history.Record({2, 3});
  history.Record({0, 1});
  ASSERT_TRUE(history.IsFrozen());

  // FIFO would pick {0, 1} (same component); the filter must bridge to
  // worker 2 further down the queue.
  auto selection =
      filter.Select(MakeQueue({0, 1, 2}), history, history.IsFrozen());
  EXPECT_TRUE(selection.bridged);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 2}));
}

TEST(GroupFilterTest, FrozenButNoCrossComponentSignalFallsBackToFifo) {
  GroupFilter filter(2);
  GroupHistory history(4, 3);
  history.Record({0, 1});
  history.Record({2, 3});
  history.Record({0, 1});
  ASSERT_TRUE(history.IsFrozen());

  // Only component-{0,1} members are waiting: liveness beats bridging.
  auto selection =
      filter.Select(MakeQueue({0, 1}), history, history.IsFrozen());
  EXPECT_FALSE(selection.bridged);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
}

TEST(GroupFilterTest, BridgePrefersEarliestCrossComponentSignal) {
  GroupFilter filter(2);
  GroupHistory history(6, 3);
  history.Record({0, 1});
  history.Record({2, 3});
  history.Record({4, 5});
  ASSERT_TRUE(history.IsFrozen());

  // Queue: 0 (comp A), 1 (comp A), 2 (comp B), 4 (comp C).
  auto selection =
      filter.Select(MakeQueue({0, 1, 2, 4}), history, history.IsFrozen());
  EXPECT_TRUE(selection.bridged);
  // Anchor 0, then earliest new-component signal: position 2 (worker 2).
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 2}));
}

TEST(GroupFilterTest, LargerGroupCoversMultipleComponents) {
  GroupFilter filter(3);
  GroupHistory history(6, 3);
  history.Record({0, 1});
  history.Record({2, 3});
  history.Record({4, 5});
  ASSERT_TRUE(history.IsFrozen());

  auto selection =
      filter.Select(MakeQueue({0, 1, 2, 4}), history, history.IsFrozen());
  EXPECT_TRUE(selection.bridged);
  // Anchor 0 (comp A), then 2 (comp B), then 4 (comp C).
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 2, 3}));
}

TEST(GroupFilterTest, FillsWithFifoAfterCoveringComponents) {
  GroupFilter filter(3);
  GroupHistory history(4, 2);
  history.Record({0, 1});
  history.Record({2, 3});
  ASSERT_TRUE(history.IsFrozen());

  // Components {0,1} and {2,3}; queue 0,1,2. Anchor 0, bridge 2 (pos 2),
  // fill with 1 (pos 1).
  auto selection =
      filter.Select(MakeQueue({0, 1, 2}), history, history.IsFrozen());
  EXPECT_TRUE(selection.bridged);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1, 2}));
}

Topology TwoNodesOfThree() {
  Topology topo;
  Status s = Topology::FromNodes({{0, 1, 2}, {3, 4, 5}}, &topo);
  EXPECT_TRUE(s.ok()) << s.message();
  return topo;
}

TEST(GroupFilterTopologyTest, TightBudgetRejectsCrossNodeFifoPick) {
  // Queue head pairs worker 0 with worker 3 — a cross-node ring of cost
  // 2 * inter_cost = 8. With a budget of 4 the FIFO pick is over budget and
  // the filter repairs toward node 0's co-residents instead.
  GroupFilter filter(2, TwoNodesOfThree(), /*cost_budget=*/4.0);
  GroupHistory history(6, 4);
  auto selection =
      filter.Select(MakeQueue({0, 3, 1, 4}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 2}));
}

TEST(GroupFilterTopologyTest, LooseBudgetKeepsFifoPick) {
  GroupFilter filter(2, TwoNodesOfThree(), /*cost_budget=*/100.0);
  GroupHistory history(6, 4);
  auto selection =
      filter.Select(MakeQueue({0, 3, 1, 4}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
}

TEST(GroupFilterTopologyTest, NoBudgetMeansPlainFifo) {
  GroupFilter filter(2, TwoNodesOfThree());
  GroupHistory history(6, 4);
  auto selection =
      filter.Select(MakeQueue({0, 3, 1, 4}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
}

TEST(GroupFilterTopologyTest, BudgetRepairNeverStallsWhenNoCheaperRing) {
  // Every queued pair crosses nodes: the repair cannot beat FIFO, so the
  // over-budget FIFO pick stands — liveness over thrift.
  GroupFilter filter(2, TwoNodesOfThree(), /*cost_budget=*/4.0);
  GroupHistory history(6, 4);
  auto selection =
      filter.Select(MakeQueue({0, 3}), history, history.IsFrozen());
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
}

TEST(GroupFilterTopologyTest, IntraNodeModeRequiresNodeCompleteGroup) {
  GroupFilter filter(3, TwoNodesOfThree());
  GroupHistory history(6, 4);
  // Node 1 has all three members queued; node 0 only two. The filter skips
  // the earlier partial node and selects node 1's complement.
  auto selection = filter.Select(MakeQueue({0, 3, 1, 4, 5}), history,
                                 history.IsFrozen(),
                                 GroupSelectMode::kIntraNode);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{1, 3, 4}));
}

TEST(GroupFilterTopologyTest, IntraNodeModeHoldsWhenNoNodeIsComplete) {
  GroupFilter filter(3, TwoNodesOfThree());
  GroupHistory history(6, 4);
  // Three signals queued but from both nodes: hold (empty selection).
  auto selection = filter.Select(MakeQueue({0, 3, 1, 4}), history,
                                 history.IsFrozen(),
                                 GroupSelectMode::kIntraNode);
  EXPECT_TRUE(selection.queue_positions.empty());
}

TEST(GroupFilterTopologyTest, CrossNodeModeCoversNodesFirst) {
  GroupFilter filter(2, TwoNodesOfThree());
  GroupHistory history(6, 4);
  // FIFO would take {0, 1} (same node); the merge pass prefers covering a
  // second node: {0, 3}.
  auto selection = filter.Select(MakeQueue({0, 1, 2, 3}), history,
                                 history.IsFrozen(),
                                 GroupSelectMode::kCrossNode);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 3}));
}

TEST(GroupFilterTopologyTest, CrossNodeModeFillsFifoWhenOneNodeQueued) {
  GroupFilter filter(2, TwoNodesOfThree());
  GroupHistory history(6, 4);
  auto selection = filter.Select(MakeQueue({0, 1, 2}), history,
                                 history.IsFrozen(),
                                 GroupSelectMode::kCrossNode);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1}));
}

TEST(GroupFilterTopologyTest, FrozenBridgePrefersCheapLinks) {
  // Components {0,1} (node 0) and {2} vs {5}: both bridge candidates are in
  // uncovered components, but worker 2 shares the anchor's node while 5 is
  // across the inter-node link — the cost-aware bridge takes 2.
  GroupFilter filter(2, TwoNodesOfThree());
  GroupHistory history(6, 3);
  history.Record({0, 1});
  history.Record({0, 1});
  history.Record({0, 1});
  ASSERT_TRUE(history.IsFrozen());
  auto selection =
      filter.Select(MakeQueue({0, 5, 2}), history, history.IsFrozen());
  EXPECT_TRUE(selection.bridged);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 2}));
}

TEST(GroupFilterTopologyTest, FrozenBridgeSkippedInIntraNodeMode) {
  // Under the two-level schedule the window graph is disconnected across
  // nodes by design; intra-node steps must not be hijacked into bridges.
  GroupFilter filter(3, TwoNodesOfThree());
  GroupHistory history(6, 3);
  history.Record({0, 1, 2});
  history.Record({3, 4, 5});
  history.Record({0, 1, 2});
  ASSERT_TRUE(history.IsFrozen());
  auto selection = filter.Select(MakeQueue({0, 1, 2, 3}), history,
                                 history.IsFrozen(),
                                 GroupSelectMode::kIntraNode);
  EXPECT_FALSE(selection.bridged);
  EXPECT_EQ(selection.queue_positions, (std::vector<size_t>{0, 1, 2}));
}

}  // namespace
}  // namespace pr
