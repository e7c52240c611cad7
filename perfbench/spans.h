#pragma once

#include <chrono>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One timed region. `parent` is the id of the span that caused it (-1 for
/// a root); `track` groups spans onto one timeline row (a thread, or a
/// worker of a training run).
struct Span {
  int id = -1;
  int parent = -1;
  std::string name;
  int track = 0;
  double start_s = 0.0;  ///< seconds since the recorder was created
  double end_s = 0.0;
};

/// \brief In-memory span store for the traced run.
///
/// Spans stay in memory until the run ends; WriteChromeTrace then emits
/// them as Chrome trace-event JSON, which Perfetto (ui.perfetto.dev) and
/// chrome://tracing load directly. Thread-safe.
class SpanRecorder {
 public:
  SpanRecorder();

  /// Seconds since construction on the steady clock.
  double Now() const;

  int Begin(const std::string& name, int parent, int track = 0);
  void End(int id);
  /// Records a span whose times were measured elsewhere (same clock).
  int Add(const std::string& name, int parent, int track, double start_s,
          double end_s);

  std::vector<Span> spans() const;

  /// Self seconds per layer, where a span's layer is its name up to the
  /// first '.': its duration minus the part covered by its children.
  std::map<std::string, double> SelfSecondsByLayer() const;

  bool WriteChromeTrace(const std::string& path) const;

 private:
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

}  // namespace perfbench
