#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "core/sync_graph.h"

namespace pr {

/// \brief The controller's "group history database" (Fig. 6): a sliding
/// window of the most recent T partial-reduce groups.
///
/// The group filter queries it to detect group frozen: it builds the
/// sync-graph of the last T groups and checks connectivity. T defaults to
/// ceil((N-1)/(P-1)), the minimum number of P-groups whose edges can span N
/// workers (paper §4, "Group frozen avoidance").
///
/// The window's sync-graph is cached: Record invalidates it and the first
/// query after that rebuilds it in O(T·P + N), so every query between two
/// formed groups reads the same flattened graph. Not thread-safe (the
/// controller that owns it serializes access).
class GroupHistory {
 public:
  /// `window` is T; must be >= 1.
  GroupHistory(size_t num_workers, size_t window);

  /// The paper's minimum window T = ceil((N-1)/(P-1)).
  static size_t MinWindow(size_t num_workers, size_t group_size);

  /// Records a formed group, evicting the oldest beyond the window.
  void Record(const std::vector<int>& group);

  /// Number of groups currently in the window.
  size_t size() const { return groups_.size(); }
  size_t window() const { return window_; }

  /// True once `window` groups have been recorded (before that, the
  /// connectivity test is vacuous and frozen detection is disabled).
  bool Full() const { return groups_.size() >= window_; }

  /// The sync-graph over the windowed groups, rebuilt (and flattened) on
  /// the first call after a Record; the reference stays valid until the
  /// next Record.
  const SyncGraph& BuildSyncGraph() const;

  /// Frozen = window full AND sync-graph disconnected.
  bool IsFrozen() const;

  const std::deque<std::vector<int>>& groups() const { return groups_; }

 private:
  size_t num_workers_;
  size_t window_;
  std::deque<std::vector<int>> groups_;
  // Lazily rebuilt window graph; mutable because rebuilding it does not
  // change what the history holds.
  mutable SyncGraph graph_;
  mutable bool graph_stale_ = true;
};

}  // namespace pr
