#pragma once

#include <cstdint>
#include <deque>
#include <vector>

#include "core/group_history.h"
#include "topo/topology.h"

namespace pr {

/// \brief A worker's "I finished my local update" message (Alg. 2 line 5,
/// extended with the iteration counter used by dynamic partial reduce).
struct ReadySignal {
  int worker = -1;
  int64_t iteration = 0;
};

/// \brief Result of one group-selection decision.
struct GroupSelection {
  /// Indices *into the pending queue* of the selected members, ascending.
  std::vector<size_t> queue_positions;
  /// True when frozen avoidance overrode plain FIFO order to bridge
  /// components.
  bool bridged = false;
};

/// \brief Which placement class the caller wants this group drawn from.
///
/// The two-level hierarchical controller alternates kIntraNode (cheap local
/// groups, every step) with kCrossNode (rarer merge groups spanning nodes).
/// kDefault is the historical FIFO policy, optionally repaired against a
/// ring-cost budget on a non-flat topology.
enum class GroupSelectMode {
  kDefault,
  kIntraNode,
  kCrossNode,
};

/// \brief The controller's group filter (Fig. 6): picks which P pending
/// signals form the next group.
///
/// Default policy is FIFO — pop the P oldest signals. When the group-history
/// sync-graph is frozen (window full, disconnected), the filter instead
/// bridges: it keeps the oldest signal and greedily prefers queued signals
/// from *other* connected components, so the formed group adds edges between
/// components (paper §4, "Group frozen avoidance"). On a non-flat topology
/// the bridge pass is link-cost-aware: among candidates from uncovered
/// components it takes the one with the cheapest link to the members already
/// chosen (FIFO breaking ties), so the connectivity repair weighs link cost
/// rather than bare membership. If the queue offers no cross-component
/// signal, FIFO order proceeds unchanged (liveness is never sacrificed).
class GroupFilter {
 public:
  /// `topology` defaults to flat. On a non-flat topology with
  /// `cost_budget` > 0, a kDefault FIFO pick whose ring cost exceeds the
  /// budget is repaired by an intra-node selection when that is cheaper.
  explicit GroupFilter(size_t group_size, Topology topology = Topology(),
                       double cost_budget = 0.0);

  /// Selects a group from `pending` given `history`. Requires
  /// pending.size() >= group_size. Workers in `pending` must be distinct
  /// (each worker has at most one outstanding signal; the controller
  /// enforces this as signals arrive). `frozen` is history.IsFrozen(),
  /// evaluated once by the caller per decision. A frozen history always
  /// takes precedence over `mode`: bridging the sync graph outranks
  /// placement preferences.
  ///
  /// kIntraNode is the only mode that may return an *empty* selection: it
  /// insists on a node-complete group (group_size signals all from one
  /// node), and an empty result tells the caller to hold until one fills.
  /// The caller is responsible for falling back to kCrossNode when no node
  /// can ever muster group_size live workers.
  ///
  /// Allocates nothing but the returned positions: the per-call scratch is
  /// kept in the filter.
  GroupSelection Select(const std::deque<ReadySignal>& pending,
                        const GroupHistory& history, bool frozen,
                        GroupSelectMode mode = GroupSelectMode::kDefault);

  size_t group_size() const { return group_size_; }

 private:
  GroupSelection SelectBridging(const std::deque<ReadySignal>& pending,
                                const GroupHistory& history);
  GroupSelection SelectIntraNode(const std::deque<ReadySignal>& pending);
  GroupSelection SelectNodeBiased(const std::deque<ReadySignal>& pending) const;
  GroupSelection SelectCrossNode(const std::deque<ReadySignal>& pending);
  double SelectionRingCost(const std::deque<ReadySignal>& pending,
                           const GroupSelection& selection);

  size_t group_size_;
  Topology topology_;
  double cost_budget_;
  // Per-call scratch, sized once: per-node counts (or covered flags)
  // indexed by node, the components a bridge covers, ring members.
  std::vector<size_t> per_node_;
  std::vector<int> covered_components_;
  std::vector<int> ring_members_;
};

}  // namespace pr
