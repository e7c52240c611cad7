#pragma once

#include <cstdint>
#include <string>

#include "runtime/threaded_runtime.h"

namespace perfbench {

/// Which production entry point carries a workload's training job.
enum class Entry {
  kThreaded,  ///< StartRun(config, EngineKind::kThreaded)
  kSim,       ///< StartRun(config, EngineKind::kSim)
  kLaunch,    ///< Launch over Unix-domain sockets, one process per node
};

/// A benchmark workload: one training job's entry point and configuration.
/// Why each workload exists is recorded in BENCHMARK.json and README.md.
struct Workload {
  Entry entry = Entry::kThreaded;
  pr::RunConfig config;
  /// Worker whose iterations are stretched by an injected delay equal to
  /// its own measured compute time (about 2x slower); -1 for none.
  int straggler = -1;
};

/// Builds workload `name` for job seed `seed`: the seed picks the dataset,
/// the initialization and the batch order. Returns false on unknown names.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

/// Sync-group size of the workload's collectives (P, or N under AR).
int GroupSize(const Workload& w);

}  // namespace perfbench
