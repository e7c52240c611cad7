#pragma once

#include <memory>
#include <string>

#include "config/run_config.h"
#include "core/controller.h"
#include "sim/sim_training.h"

namespace pr {

/// \brief A synchronization strategy driving a simulated training run.
///
/// Construction wires the strategy to a SimTraining context; Start()
/// schedules the initial events; the caller then runs the engine until the
/// context stops.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Schedules the initial events (typically: every worker begins its first
  /// local computation at t = 0).
  virtual void Start() = 0;

  virtual std::string Name() const = 0;

  /// The P-Reduce controller, for stats/spectral queries; null otherwise.
  virtual const Controller* controller() const { return nullptr; }
};

/// \brief Factory for the strategy `ctx->config().strategy` selects. `ctx`
/// must outlive the strategy.
std::unique_ptr<Strategy> MakeStrategy(SimTraining* ctx);

}  // namespace pr
