#include "core/sync_graph.h"

#include <algorithm>

#include "common/check.h"

namespace pr {

SyncGraph::SyncGraph(size_t num_workers)
    : parent_(num_workers), rank_(num_workers, 0),
      num_components_(num_workers) {
  PR_CHECK_GE(num_workers, 1u);
  Reset();
}

void SyncGraph::Reset() {
  for (size_t i = 0; i < parent_.size(); ++i) parent_[i] = static_cast<int>(i);
  std::fill(rank_.begin(), rank_.end(), 0);
  num_components_ = parent_.size();
}

void SyncGraph::Flatten() {
  for (size_t i = 0; i < parent_.size(); ++i) {
    parent_[i] = FindCompress(static_cast<int>(i));
  }
}

int SyncGraph::Find(int x) const {
  PR_CHECK_GE(x, 0);
  PR_CHECK_LT(static_cast<size_t>(x), parent_.size());
  while (parent_[static_cast<size_t>(x)] != x) {
    x = parent_[static_cast<size_t>(x)];
  }
  return x;
}

int SyncGraph::FindCompress(int x) {
  PR_CHECK_GE(x, 0);
  PR_CHECK_LT(static_cast<size_t>(x), parent_.size());
  while (parent_[static_cast<size_t>(x)] != x) {
    // Path halving.
    parent_[static_cast<size_t>(x)] =
        parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
    x = parent_[static_cast<size_t>(x)];
  }
  return x;
}

void SyncGraph::AddEdge(int a, int b) {
  int ra = FindCompress(a);
  int rb = FindCompress(b);
  if (ra == rb) return;
  if (rank_[static_cast<size_t>(ra)] < rank_[static_cast<size_t>(rb)]) {
    std::swap(ra, rb);
  }
  parent_[static_cast<size_t>(rb)] = ra;
  if (rank_[static_cast<size_t>(ra)] == rank_[static_cast<size_t>(rb)]) {
    ++rank_[static_cast<size_t>(ra)];
  }
  --num_components_;
}

void SyncGraph::AddGroup(const std::vector<int>& group) {
  for (size_t i = 1; i < group.size(); ++i) AddEdge(group[0], group[i]);
}

bool SyncGraph::IsConnected() const { return num_components_ == 1; }

size_t SyncGraph::NumComponents() const { return num_components_; }

int SyncGraph::ComponentOf(int worker) const { return Find(worker); }

std::vector<std::vector<int>> SyncGraph::Components() const {
  std::vector<std::vector<int>> by_root(parent_.size());
  for (size_t i = 0; i < parent_.size(); ++i) {
    by_root[static_cast<size_t>(Find(static_cast<int>(i)))].push_back(
        static_cast<int>(i));
  }
  std::vector<std::vector<int>> out;
  for (auto& comp : by_root) {
    if (!comp.empty()) out.push_back(std::move(comp));
  }
  return out;
}

}  // namespace pr
