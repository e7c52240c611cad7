#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "obs/metrics.h"

namespace pr {

/// \brief What one spawned process reports back to the launcher.
///
/// Written (atomically, temp + rename) as the process's last act before
/// exiting; the launcher reads every surviving process's report and merges
/// them into one run-level result. The format (`prreport 2`) is the same
/// line-oriented text as the config file, except that the `replica <n>`
/// line is followed by exactly 4n bytes of little-endian binary32 values.
/// An `end` sentinel closes the report, so a report cut short by a crash is
/// distinguishable from a complete one.
struct ProcessReport {
  int node = -1;               ///< transport node id this process hosted
  std::string role;            ///< "worker" or "service"
  std::string strategy;        ///< StrategyKindName of what ran
  double wall_seconds = 0.0;
  uint64_t group_reduces = 0;  ///< non-zero only where the service ran
  /// Local iteration counts, full num_workers length with non-local slots
  /// zero (the launcher merges by element-wise max).
  std::vector<size_t> worker_iterations;
  std::vector<double> worker_finish_seconds;  ///< same sparse layout
  /// Worker processes: the final local replica (this process's slice of the
  /// run-level average). Service-only processes leave it empty.
  std::vector<float> replica;
  /// This process's merged metrics under the shared metric names; the
  /// launcher folds all reports with MergeSnapshots.
  MetricsSnapshot metrics;
};

std::string SerializeProcessReport(const ProcessReport& report);
Status ParseProcessReport(const std::string& text, ProcessReport* out);

Status SaveProcessReport(const std::string& path, const ProcessReport& report);
Status LoadProcessReport(const std::string& path, ProcessReport* out);

}  // namespace pr
