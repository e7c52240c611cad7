#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "comm/socket_transport.h"
#include "common/status.h"
#include "obs/metrics.h"
#include "runtime/threaded_runtime.h"

namespace pr {

/// \brief Optional mid-run process kill, the multi-process analogue of the
/// chaos suite's injected crashes: the launcher SIGKILLs the chosen
/// worker's process once `after_seconds` of run time have elapsed. The
/// remaining processes must survive through P-Reduce's liveness valves (the
/// launcher forces `fault.force_fault_tolerant` on when a kill is armed).
struct KillSpec {
  int worker = -1;  ///< worker node to kill; -1 disables
  double after_seconds = 0.25;

  bool armed() const { return worker >= 0; }
};

/// \brief A multi-process launch request.
struct LaunchOptions {
  RunConfig config;
  /// Socket settings shared by every process. `socket.dir` defaults to
  /// `<workdir>/sock` when empty.
  SocketConfig socket;
  /// Scratch directory for the run: config file, socket files, per-process
  /// reports and logs. Created if missing; never cleaned up (callers own
  /// the lifetime — tests use a temp dir, prlaunch prints the path).
  std::string workdir;
  /// When non-empty, children are fork+exec'd as
  /// `<self_binary> --role node ...` (prlaunch passes /proc/self/exe, which
  /// gives every child a fresh address space and — under TSan — a fresh
  /// runtime). When empty, children are plain fork()s that call RunNode
  /// directly and _exit, which is what in-process tests use.
  std::string self_binary;
  KillSpec kill;
  /// Checkpoint manifest to resume every process from (optional).
  std::string resume_manifest;
};

/// \brief Merged outcome of a multi-process run.
struct LaunchResult {
  std::string strategy;
  int num_processes = 0;
  /// Per-node process exit status (0 = clean); killed nodes record the
  /// signal as 128 + SIGKILL, matching shell convention.
  std::vector<int> exit_codes;
  /// Per-node flag: true for the process the KillSpec took down.
  std::vector<bool> killed;
  double wall_seconds = 0.0;       ///< max over process reports
  uint64_t group_reduces = 0;      ///< from the service report
  std::vector<size_t> worker_iterations;  ///< element-wise max merge
  std::vector<double> worker_finish_seconds;
  /// Average of every surviving worker's final replica, evaluated on the
  /// held-out test split (regenerated from the config seed, exactly as each
  /// process generated it).
  std::vector<float> averaged_params;
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  /// MergeSnapshots over every surviving process's report: the run-level
  /// metrics view under the same names the in-proc engine produces.
  MetricsSnapshot metrics;
};

/// \brief Spawns one process per node (num_workers workers, plus the
/// service node when the strategy has one), waits for completion, applies
/// the KillSpec, collects and merges the per-process reports. Fails if any
/// non-killed process exits non-zero or leaves no report.
Status Launch(const LaunchOptions& options, LaunchResult* result);

/// Serializes a LaunchResult (including the merged metrics) as JSON for
/// scripts and CI artifacts.
std::string LaunchReportJson(const LaunchResult& result);

}  // namespace pr
