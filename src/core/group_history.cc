#include "core/group_history.h"

#include "common/check.h"

namespace pr {

GroupHistory::GroupHistory(size_t num_workers, size_t window)
    : num_workers_(num_workers), window_(window), graph_(num_workers) {
  PR_CHECK_GE(num_workers, 1u);
  PR_CHECK_GE(window, 1u);
}

size_t GroupHistory::MinWindow(size_t num_workers, size_t group_size) {
  PR_CHECK_GE(group_size, 2u);
  PR_CHECK_GE(num_workers, 2u);
  // ceil((N - 1) / (P - 1))
  return (num_workers - 2) / (group_size - 1) + 1;
}

void GroupHistory::Record(const std::vector<int>& group) {
  PR_CHECK_GE(group.size(), 1u);
  for (int w : group) {
    PR_CHECK_GE(w, 0);
    PR_CHECK_LT(static_cast<size_t>(w), num_workers_);
  }
  groups_.push_back(group);
  while (groups_.size() > window_) groups_.pop_front();
  graph_stale_ = true;
}

const SyncGraph& GroupHistory::BuildSyncGraph() const {
  if (graph_stale_) {
    graph_.Reset();
    for (const auto& group : groups_) graph_.AddGroup(group);
    graph_.Flatten();
    graph_stale_ = false;
  }
  return graph_;
}

bool GroupHistory::IsFrozen() const {
  if (!Full()) return false;
  return !BuildSyncGraph().IsConnected();
}

}  // namespace pr
