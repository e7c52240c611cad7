#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "compress/compressor.h"
#include "strategies/strategy.h"

namespace pr {

/// \brief The paper's contribution: partial reduce (Alg. 2).
///
/// Each worker loops independently: compute gradient -> local SGD step ->
/// ready signal to the controller -> wait for a group of P -> weighted model
/// average with the group -> next iteration. Groups form from the P oldest
/// ready signals (with frozen-avoidance bridging) and synchronize *in
/// parallel* with other groups and with other workers' computation — no
/// global barrier ever forms. Constant mode averages with 1/P; dynamic mode
/// uses staleness-aware EMA weights and fast-forwards members' iteration
/// counters to the group max.
class PReduceStrategy : public Strategy {
 public:
  PReduceStrategy(SimTraining* ctx, const StrategyOptions& options);

  void Start() override;
  std::string Name() const override;
  const Controller* controller() const override { return controller_.get(); }

 private:
  void BeginCompute(int worker);
  void OnGradientReady(int worker);
  void SendSignal(int worker);
  void OnSignalArrival(int worker);
  void OnGroupReduceDone(const GroupDecision& decision);
  void OnGroupAborted(const GroupDecision& decision,
                      const std::vector<int>& crashed);
  void HandleDecisions(std::vector<GroupDecision> decisions);
  /// Lease-horizon eviction of a crashed worker (mirrors the threaded
  /// controller's FailureDetector verdict in virtual time).
  void EvictNow(int worker);
  /// True when `worker` carries an armed crash event of the given placement
  /// that its iteration counter has reached.
  bool CrashArmed(int worker, bool in_group) const;

  /// Controller outage mirroring (see FaultPlan::controller_events): fires
  /// the next scheduled crash once enough groups completed, parks signals
  /// that arrive while the controller is down, and on restart rebuilds a
  /// fresh controller from the state workers can vouch for — the virtual-
  /// time analogue of the threaded incarnation loop.
  void MaybeCrashController();
  void CrashController();
  void RestartController();

  /// Membership changes from churn, partitions and the autoscaler are
  /// *lenient*: a leave for an already-absent (or crashed) worker is a
  /// no-op, a rejoin for an active worker just cancels its pending leave.
  /// Generated traces overlap windows; the engines must diverge on none.
  void ScenarioLeave(int worker);
  void ScenarioRejoin(int worker);
  /// The threaded worker's run_churn(k): drops `worker`'s windows keyed at
  /// or below its completed local iterations and returns the summed pause
  /// of those keyed exactly there (negative when none is).
  double TakeDueChurn(int worker);
  /// Takes `worker` out of the pool; a churn or autoscaler pause records
  /// churn_leave, as the threaded service does.
  void Depart(int worker, bool paused);
  /// Degradation gate: retargets the controller's effective group size at
  /// clamp(active_count_, min_p_, P) after every membership change.
  void UpdateEffectiveGroupSize();
  /// One autoscaler tick in virtual time: samples the workers' wait-seconds
  /// delta, feeds the policy, and pauses/readmits workers through the
  /// scenario churn paths. Reschedules itself every interval.
  void ScalePolicyTick();

  SimTraining* ctx_;
  StrategyOptions options_;
  ControllerOptions controller_options_;
  std::unique_ptr<Controller> controller_;
  /// Per-worker compression emulation (empty when compression is none):
  /// each member's contribution is quantize-dequantized through its own
  /// error-feedback residual before the group average, mirroring what the
  /// threaded engine's compressed ring does to the values.
  std::vector<std::unique_ptr<Compressor>> compressors_;
  /// Elastic membership: pending leave requests (applied at the worker's
  /// next gradient boundary) and current activity flags.
  std::vector<bool> leave_requested_;
  std::vector<bool> active_;
  int active_count_ = 0;
  /// Absent on a churn or autoscaler pause, not a partition.
  std::vector<bool> paused_;
  /// Each worker's pending run.churn windows, next one last, and its
  /// completed local iterations: the key they fire on (not DYN's counter).
  std::vector<std::vector<ChurnEvent>> churn_;
  std::vector<size_t> local_iterations_;

  // --- Fault mirroring (see ThreadedRunOptions::fault) ---
  std::vector<bool> crashed_;
  /// Per-worker ready-signal sequence numbers for deterministic drop rolls.
  std::vector<uint64_t> signal_seq_;
  Counter* fault_drops_ = nullptr;
  Counter* fault_retries_ = nullptr;
  Counter* fault_evictions_ = nullptr;
  Counter* fault_aborted_ = nullptr;
  /// Mirrors the threaded FaultyTransport's injected-delay count for the
  /// deterministic link-delay matrix (virtual time, same metric name).
  Counter* fault_delays_ = nullptr;

  // --- Controller outage mirroring ---
  bool controller_down_ = false;
  size_t next_outage_ = 0;
  /// controller_events sorted by after_groups.
  std::vector<ControllerFaultEvent> outages_;
  uint64_t completed_groups_ = 0;
  /// Workers whose ready signals hit the severed controller; they
  /// re-register when it restarts.
  std::vector<int> parked_;
  /// Recently completed groups (id + members), bounded by
  /// reregister_report_groups — what re-registration can vouch for.
  std::deque<std::pair<uint64_t, std::vector<int>>> recent_groups_;
  Counter* failovers_counter_ = nullptr;
  Counter* reregs_counter_ = nullptr;
  Counter* severed_drops_counter_ = nullptr;

  // --- Scenario replay + autoscaling + graceful degradation ---
  /// True when the run carries a scenario, a scale policy, or degradation
  /// gates: registers the scenario.* family and arms the degradation
  /// release of signals no group can drain.
  bool scenario_mode_ = false;
  /// Smallest group size the degradation gate may shrink to (== group_size
  /// when the gate is off, so the clamp is a no-op).
  int min_p_ = 0;
  /// Active count below which queued signals are released to local SGD.
  int liveness_floor_ = 0;
  /// Workers currently paused by the scale policy (not by the trace).
  std::vector<bool> scale_paused_;
  /// Last-sampled per-run wait-seconds total, for the policy's idle deltas.
  double last_wait_total_ = 0.0;
  double last_tick_time_ = 0.0;
  size_t last_updates_ = 0;
  std::unique_ptr<ScalePolicy> scale_policy_;
  Counter* scenario_partitions_applied_ = nullptr;
  Counter* scale_grow_ = nullptr;
  Counter* scale_shrink_ = nullptr;
  Counter* degrade_small_groups_ = nullptr;
  Counter* degrade_local_steps_ = nullptr;

  // Hot-path scratch reused across events (the simulator is
  // single-threaded): one gradient buffer for OnGradientReady and the
  // member pointer list for OnGroupReduceDone.
  std::vector<float> grad_scratch_;
  std::vector<float*> reduce_ptrs_;
};

}  // namespace pr
