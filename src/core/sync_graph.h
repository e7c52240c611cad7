#pragma once

#include <cstddef>
#include <vector>

namespace pr {

/// \brief Union-find over worker ids, used to check connectivity of the
/// sync-graph induced by recent partial-reduce groups (the paper's group
/// frozen avoidance, §4).
///
/// Each P-Reduce over group S adds a clique (equivalently, P-1 spanning
/// edges) over S. The graph is "frozen" when it has more than one connected
/// component over a window of T >= ceil((N-1)/(P-1)) recent groups — the
/// minimum number of groups that *could* connect N nodes.
class SyncGraph {
 public:
  explicit SyncGraph(size_t num_workers);

  size_t num_workers() const { return parent_.size(); }

  /// Unions all members of `group` into one component.
  void AddGroup(const std::vector<int>& group);

  /// Unions two workers directly.
  void AddEdge(int a, int b);

  /// Back to N singleton components, keeping the storage.
  void Reset();

  /// Points every worker straight at its root, so each later query is one
  /// read until the next AddEdge.
  void Flatten();

  /// True when all workers are in one component.
  bool IsConnected() const;

  size_t NumComponents() const;

  /// Representative component id (root) for `worker`; ids are stable within
  /// one SyncGraph instance but arbitrary across instances. A pure read:
  /// walks to the root without compressing (one step after Flatten).
  int ComponentOf(int worker) const;

  /// Groups worker ids by component.
  std::vector<std::vector<int>> Components() const;

 private:
  int Find(int x) const;
  /// Find with path halving; only the mutating AddEdge compresses.
  int FindCompress(int x);

  std::vector<int> parent_;
  std::vector<int> rank_;
  size_t num_components_;
};

}  // namespace pr
