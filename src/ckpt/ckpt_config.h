#pragma once

#include <cstddef>
#include <string>

namespace pr {

/// \brief Periodic coordinated-checkpoint knobs, shared by both engines.
///
/// Snapshots are cut at synchronization boundaries so every shard of one
/// epoch is a consistent view. Threads cut when a worker finishes local
/// iteration k with k % every_iterations == 0 (the controller assembles the
/// manifest once every live worker reported the epoch); the simulator cuts
/// every every_iterations x num_workers gradients' worth of global updates
/// (its single-threaded event loop makes any point between events
/// consistent).
struct CheckpointConfig {
  /// Directory receiving manifests and per-worker shards; empty disables
  /// checkpointing entirely. Created on first save if missing.
  std::string dir;
  /// Local iterations between cuts (0 = never).
  size_t every_iterations = 0;

  bool enabled() const { return !dir.empty() && every_iterations > 0; }
};

}  // namespace pr
