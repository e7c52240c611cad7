#include "core/group_filter.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/check.h"

namespace pr {
namespace {

// Chosen queue positions are kept as a small sorted vector (at most
// group_size entries).
bool IsChosen(const std::vector<size_t>& chosen, size_t pos) {
  return std::binary_search(chosen.begin(), chosen.end(), pos);
}

void Choose(std::vector<size_t>* chosen, size_t pos) {
  chosen->insert(std::upper_bound(chosen->begin(), chosen->end(), pos), pos);
}

// FIFO fill: the oldest unchosen positions after the anchor until the
// group is full.
void FillFifo(size_t pending, size_t group_size, std::vector<size_t>* chosen) {
  for (size_t pos = 1; pos < pending && chosen->size() < group_size; ++pos) {
    if (!IsChosen(*chosen, pos)) Choose(chosen, pos);
  }
}

}  // namespace

GroupFilter::GroupFilter(size_t group_size, Topology topology,
                         double cost_budget)
    : group_size_(group_size),
      topology_(std::move(topology)),
      cost_budget_(cost_budget),
      per_node_(static_cast<size_t>(topology_.num_nodes()), 0) {
  PR_CHECK_GE(group_size, 2u);
  covered_components_.reserve(group_size);
  ring_members_.reserve(group_size);
}

GroupSelection GroupFilter::Select(const std::deque<ReadySignal>& pending,
                                   const GroupHistory& history, bool frozen,
                                   GroupSelectMode mode) {
  PR_CHECK_GE(pending.size(), group_size_);

  // Bridging outranks placement for the default and merge policies: a
  // frozen sync graph is a convergence hazard (paper §4), a costly ring
  // only a throughput one. Intra-node steps are exempt — under the
  // two-level schedule the window graph is disconnected across nodes *by
  // design* and the scheduled cross-node merges are the bridge, so letting
  // frozen hijack every intra step would collapse the hierarchy back into
  // the flat schedule.
  if (frozen && mode != GroupSelectMode::kIntraNode) {
    return SelectBridging(pending, history);
  }

  if (!topology_.flat()) {
    switch (mode) {
      case GroupSelectMode::kIntraNode:
        return SelectIntraNode(pending);
      case GroupSelectMode::kCrossNode:
        return SelectCrossNode(pending);
      case GroupSelectMode::kDefault:
        break;
    }
  }

  // Plain FIFO: the P oldest signals.
  GroupSelection selection;
  selection.queue_positions.reserve(group_size_);
  for (size_t i = 0; i < group_size_; ++i) {
    selection.queue_positions.push_back(i);
  }
  if (!topology_.flat() && cost_budget_ > 0.0 &&
      SelectionRingCost(pending, selection) > cost_budget_) {
    // Over budget: repair toward a node-biased ring when that actually
    // helps. The FIFO pick stands otherwise — liveness over thrift.
    GroupSelection repaired = SelectNodeBiased(pending);
    if (SelectionRingCost(pending, repaired) <
        SelectionRingCost(pending, selection)) {
      return repaired;
    }
  }
  return selection;
}

GroupSelection GroupFilter::SelectBridging(
    const std::deque<ReadySignal>& pending, const GroupHistory& history) {
  // Frozen: bridge components. Anchor on the oldest signal, then prefer
  // signals whose workers live in components not yet covered by the group;
  // fill any remainder in FIFO order.
  const SyncGraph& graph = history.BuildSyncGraph();
  GroupSelection selection;
  std::vector<size_t>& chosen = selection.queue_positions;
  chosen.reserve(group_size_);
  covered_components_.clear();
  auto covered = [&](int comp) {
    return std::find(covered_components_.begin(), covered_components_.end(),
                     comp) != covered_components_.end();
  };

  chosen.push_back(0);
  covered_components_.push_back(graph.ComponentOf(pending[0].worker));
  // Greedy pass: new components first. Flat topologies take FIFO order; on a
  // non-flat topology each round takes the uncovered-component candidate
  // with the cheapest link to the members already chosen (FIFO on ties), so
  // the bridge is built over cheap edges when cheap edges exist.
  while (chosen.size() < group_size_) {
    size_t best_pos = pending.size();
    double best_cost = std::numeric_limits<double>::infinity();
    for (size_t pos = 1; pos < pending.size(); ++pos) {
      if (IsChosen(chosen, pos)) continue;
      if (covered(graph.ComponentOf(pending[pos].worker))) continue;
      if (topology_.flat()) {
        best_pos = pos;  // every link costs the same: FIFO wins
        break;
      }
      double cost = std::numeric_limits<double>::infinity();
      for (size_t member : chosen) {
        cost = std::min(cost, topology_.LinkCost(pending[member].worker,
                                                 pending[pos].worker));
      }
      if (cost < best_cost) {
        best_cost = cost;
        best_pos = pos;
      }
    }
    if (best_pos == pending.size()) break;  // No uncovered component queued.
    Choose(&chosen, best_pos);
    covered_components_.push_back(
        graph.ComponentOf(pending[best_pos].worker));
  }
  // Fill pass: FIFO order for the remainder.
  FillFifo(pending.size(), group_size_, &chosen);
  PR_CHECK_EQ(chosen.size(), group_size_);
  selection.bridged = covered_components_.size() > 1;
  return selection;
}

GroupSelection GroupFilter::SelectIntraNode(
    const std::deque<ReadySignal>& pending) {
  // Node-complete or nothing: an intra-node group only pays off when its
  // ring never leaves the node, so take the first (FIFO by anchor) node
  // with group_size signals queued and select its oldest group_size
  // members. An empty selection tells the controller to hold — a mixed
  // fill here would degenerate to the flat schedule (the first group_size
  // finishers are scattered across nodes almost surely).
  std::fill(per_node_.begin(), per_node_.end(), 0);
  for (const ReadySignal& s : pending) {
    ++per_node_[static_cast<size_t>(topology_.NodeOf(s.worker))];
  }
  for (size_t anchor = 0; anchor < pending.size(); ++anchor) {
    const int node = topology_.NodeOf(pending[anchor].worker);
    if (per_node_[static_cast<size_t>(node)] < group_size_) continue;
    GroupSelection selection;
    selection.queue_positions.reserve(group_size_);
    for (size_t pos = anchor;
         pos < pending.size() &&
         selection.queue_positions.size() < group_size_;
         ++pos) {
      if (topology_.NodeOf(pending[pos].worker) == node) {
        selection.queue_positions.push_back(pos);
      }
    }
    return selection;
  }
  return GroupSelection{};
}

GroupSelection GroupFilter::SelectNodeBiased(
    const std::deque<ReadySignal>& pending) const {
  // Anchor on the oldest signal; prefer queued co-residents of its node in
  // FIFO order, then fill FIFO. Cheapest ring available without starving the
  // queue head — used to repair over-budget FIFO picks, so it always
  // returns a full group.
  GroupSelection selection;
  std::vector<size_t>& chosen = selection.queue_positions;
  chosen.reserve(group_size_);
  chosen.push_back(0);
  const int anchor_node = topology_.NodeOf(pending[0].worker);
  for (size_t pos = 1; pos < pending.size() && chosen.size() < group_size_;
       ++pos) {
    if (topology_.NodeOf(pending[pos].worker) == anchor_node) {
      chosen.push_back(pos);
    }
  }
  FillFifo(pending.size(), group_size_, &chosen);
  return selection;
}

GroupSelection GroupFilter::SelectCrossNode(
    const std::deque<ReadySignal>& pending) {
  // Anchor on the oldest signal; greedily cover as many distinct nodes as
  // the queue offers (FIFO within the pass), then fill FIFO. The merge group
  // deliberately spans nodes so it bridges the intra-node cliques.
  // per_node_ marks the covered nodes here.
  std::fill(per_node_.begin(), per_node_.end(), 0);
  GroupSelection selection;
  std::vector<size_t>& chosen = selection.queue_positions;
  chosen.reserve(group_size_);
  chosen.push_back(0);
  per_node_[static_cast<size_t>(topology_.NodeOf(pending[0].worker))] = 1;
  for (size_t pos = 1; pos < pending.size() && chosen.size() < group_size_;
       ++pos) {
    size_t& covered = per_node_[static_cast<size_t>(
        topology_.NodeOf(pending[pos].worker))];
    if (covered == 0) {
      covered = 1;
      chosen.push_back(pos);
    }
  }
  FillFifo(pending.size(), group_size_, &chosen);
  return selection;
}

double GroupFilter::SelectionRingCost(const std::deque<ReadySignal>& pending,
                                      const GroupSelection& selection) {
  ring_members_.clear();
  for (size_t pos : selection.queue_positions) {
    ring_members_.push_back(pending[pos].worker);
  }
  return topology_.RingCost(ring_members_);
}

}  // namespace pr
