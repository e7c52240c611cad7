#include "strategies/p_reduce.h"

#include <algorithm>
#include <vector>

#include "common/check.h"
#include "core/aggregate.h"

namespace pr {

PReduceStrategy::PReduceStrategy(SimTraining* ctx,
                                 const StrategyOptions& options)
    : ctx_(ctx), options_(options) {
  PR_CHECK(ctx != nullptr);
  ControllerOptions copts;
  copts.num_workers = ctx->num_workers();
  copts.group_size = options.group_size;
  copts.mode = options.kind == StrategyKind::kPReduceDynamic
                   ? PartialReduceMode::kDynamic
                   : PartialReduceMode::kConstant;
  copts.dynamic = options.dynamic;
  copts.frozen_avoidance = options.frozen_avoidance;
  copts.history_window = options.history_window;
  copts.record_sync_matrices = options.record_sync_matrices;
  copts.topology = ctx->config().run.topology;
  copts.hierarchy = options.hierarchy;
  copts.group_cost_budget = options.group_cost_budget;
  controller_options_ = copts;
  controller_ = std::make_unique<Controller>(copts);
  controller_->AttachObservers(ctx->metrics(), ctx->trace(),
                               [ctx] { return ctx->engine()->now(); });

  const size_t n = static_cast<size_t>(ctx->num_workers());
  leave_requested_.assign(n, false);
  active_.assign(n, true);
  active_count_ = ctx->num_workers();
  paused_.assign(n, false);
  churn_.resize(n);
  local_iterations_.assign(n, 0);
  for (const ChurnEvent& e : ctx->config().run.churn) {
    churn_[static_cast<size_t>(e.worker)].push_back(e);
  }
  for (std::vector<ChurnEvent>& events : churn_) {
    std::stable_sort(events.begin(), events.end(),
                     [](const ChurnEvent& a, const ChurnEvent& b) {
                       return a.after_iterations > b.after_iterations;
                     });
  }

  if (options.compression != CompressionKind::kNone) {
    // No AttachMetrics here: RecordReduceTraffic models the compress.*
    // instruments analytically (attaching too would double-count).
    compressors_.reserve(static_cast<size_t>(ctx->num_workers()));
    for (int w = 0; w < ctx->num_workers(); ++w) {
      compressors_.push_back(
          std::make_unique<Compressor>(options.compression));
    }
  }

  crashed_.assign(static_cast<size_t>(ctx->num_workers()), false);
  signal_seq_.assign(static_cast<size_t>(ctx->num_workers()), 0);
  if (ctx->config().run.fault.enabled()) {
    // Register the whole fault.* family eagerly — including the injector
    // counters only the threaded engine can drive — so both engines' run
    // reports carry identical metric names.
    fault_drops_ = ctx->metrics()->GetCounter("fault.injected_drops");
    fault_retries_ = ctx->metrics()->GetCounter("fault.retries");
    fault_evictions_ = ctx->metrics()->GetCounter("fault.evictions");
    fault_aborted_ = ctx->metrics()->GetCounter("fault.aborted_groups");
    ctx->metrics()->GetCounter("fault.injected_dups");
    fault_delays_ = ctx->metrics()->GetCounter("fault.injected_delays");
    ctx->metrics()->GetCounter("fault.heartbeats");
    failovers_counter_ = ctx->metrics()->GetCounter("controller.failovers");
    reregs_counter_ = ctx->metrics()->GetCounter("controller.reregistrations");
    severed_drops_counter_ = ctx->metrics()->GetCounter("fault.severed_drops");
    outages_ = ctx->config().run.fault.controller_events;
    std::sort(outages_.begin(), outages_.end(),
              [](const ControllerFaultEvent& a, const ControllerFaultEvent& b) {
                return a.after_groups < b.after_groups;
              });
  }

  // Scenario replay + autoscaling + graceful degradation. The scenario.*
  // name set (including the per-kind compile counts) registers under
  // exactly the same condition the threaded runtime uses, so cross-engine
  // metric-name parity is structural for scenario runs too.
  const ScalePolicyConfig& scale_cfg = options.scale_policy;
  min_p_ = options.group_size;
  if (scale_cfg.min_group_size > 0) {
    min_p_ = std::max(2, std::min(scale_cfg.min_group_size,
                                  options.group_size));
  }
  liveness_floor_ = scale_cfg.liveness_floor;
  scale_paused_.assign(static_cast<size_t>(ctx->num_workers()), false);
  scenario_mode_ = ctx->config().run.scenario.enabled() ||
                   scale_cfg.enabled() || scale_cfg.degradation_enabled();
  if (scenario_mode_) {
    for (const auto& [name, count] :
         ScenarioMetricCounts(ctx->config().run.scenario)) {
      ctx->metrics()->GetCounter(name)->Increment(count);
    }
    scenario_partitions_applied_ =
        ctx->metrics()->GetCounter("scenario.partitions_applied");
    scale_grow_ = ctx->metrics()->GetCounter("scenario.scale.grow");
    scale_shrink_ = ctx->metrics()->GetCounter("scenario.scale.shrink");
    degrade_small_groups_ =
        ctx->metrics()->GetCounter("scenario.degrade.small_groups");
    degrade_local_steps_ =
        ctx->metrics()->GetCounter("scenario.degrade.local_steps");
    // The forced-checkpoint gate is wall-clock machinery; the name still
    // registers (as zero) for parity.
    ctx->metrics()->GetCounter("scenario.degrade.forced_ckpts");
  }
  if (scale_cfg.enabled()) {
    scale_policy_ = std::make_unique<ScalePolicy>(scale_cfg,
                                                  ctx->num_workers());
  }

  // Coordinated checkpointing: SimTraining cuts the shards; the strategy
  // stamps the controller-owned restore state into each manifest.
  ctx->ConfigureCheckpoint(Name(), [this](RunManifest* m) {
    m->next_group_id = controller_->next_group_id();
    m->history.clear();
    for (const std::vector<int>& g : controller_->history().groups()) {
      m->history.push_back(g);
    }
  });
  if (const RunManifest* rm = ctx->resume()) {
    PR_CHECK(rm->strategy == Name())
        << "manifest strategy " << rm->strategy << " does not match "
        << Name();
    ControllerRestoreState rs;
    rs.history = rm->history;
    rs.next_group_id = rm->next_group_id;
    controller_->Restore(rs);
    for (const ManifestWorker& mw : rm->workers) {
      local_iterations_[static_cast<size_t>(mw.worker)] =
          static_cast<size_t>(mw.completed);
    }
  }
}

std::string PReduceStrategy::Name() const {
  return options_.kind == StrategyKind::kPReduceDynamic ? "DYN" : "CON";
}

bool PReduceStrategy::CrashArmed(int worker, bool in_group) const {
  if (crashed_[static_cast<size_t>(worker)]) return false;
  for (const WorkerFaultEvent& e : ctx_->config().run.fault.worker_events) {
    if (e.worker == worker && e.kind == WorkerFaultEvent::Kind::kCrash &&
        e.in_group == in_group &&
        ctx_->iteration(worker) >= e.after_iterations) {
      return true;
    }
  }
  return false;
}

void PReduceStrategy::EvictNow(int worker) {
  fault_evictions_->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kWorkerEvicted, worker);
  active_[static_cast<size_t>(worker)] = false;
  --active_count_;
  // With the controller down the lease verdict is deferred: the restarted
  // incarnation simply never hears from the dead worker again.
  if (!controller_down_) HandleDecisions(controller_->EvictWorker(worker));
  UpdateEffectiveGroupSize();
}

void PReduceStrategy::ScenarioLeave(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (!active_[w] || crashed_[w]) return;  // overlapping windows are fine
  leave_requested_[w] = true;  // takes effect at the gradient boundary
}

double PReduceStrategy::TakeDueChurn(int worker) {
  const size_t w = static_cast<size_t>(worker);
  std::vector<ChurnEvent>& events = churn_[w];
  double pause = -1.0;
  for (; !events.empty() &&
         events.back().after_iterations <= local_iterations_[w];
       events.pop_back()) {
    if (events.back().after_iterations == local_iterations_[w]) {
      pause = std::max(pause, 0.0) + events.back().pause_seconds;
    }
  }
  return pause;
}

void PReduceStrategy::Depart(int worker, bool paused) {
  const size_t w = static_cast<size_t>(worker);
  active_[w] = false;
  --active_count_;
  if (paused) {
    paused_[w] = true;
    ctx_->trace()->Record(ctx_->engine()->now(), TraceEventKind::kChurnLeave,
                          worker);
  }
  if (!controller_down_) {
    HandleDecisions(controller_->NotifyWorkerLeft(worker));
  }
}

void PReduceStrategy::ScenarioRejoin(int worker) {
  const size_t w = static_cast<size_t>(worker);
  if (crashed_[w]) return;         // a crash outlives any window
  if (scale_paused_[w]) return;    // the autoscaler owns this pause now
  if (active_[w]) {
    // The leave never reached a boundary (window shorter than one step):
    // cancel it instead of rejoining twice.
    leave_requested_[w] = false;
    return;
  }
  active_[w] = true;
  ++active_count_;
  leave_requested_[w] = false;
  if (paused_[w]) {
    paused_[w] = false;
    ctx_->trace()->Record(ctx_->engine()->now(), TraceEventKind::kChurnRejoin,
                          worker);
  }
  if (!controller_down_) {
    HandleDecisions(controller_->NotifyWorkerRejoined(worker));
  }
  UpdateEffectiveGroupSize();
  if (!ctx_->stopped()) BeginCompute(worker);
}

void PReduceStrategy::UpdateEffectiveGroupSize() {
  if (min_p_ >= options_.group_size) return;  // gate disabled
  if (controller_down_) return;  // the next incarnation re-syncs
  const int target =
      std::max(min_p_, std::min(active_count_, options_.group_size));
  if (target == controller_->effective_group_size()) return;
  if (target < controller_->effective_group_size() &&
      degrade_small_groups_ != nullptr) {
    degrade_small_groups_->Increment();
  }
  HandleDecisions(controller_->SetEffectiveGroupSize(target));
}

void PReduceStrategy::ScalePolicyTick() {
  if (ctx_->stopped()) return;  // stop rescheduling; let the queue drain
  const double now = ctx_->engine()->now();
  const double span = now - last_tick_time_;
  double wait_total = 0.0;
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    wait_total += ctx_->worker_wait_seconds(w);
  }
  ScaleSample sample;
  sample.time = now;
  sample.active_workers = active_count_;
  if (span > 0.0 && active_count_ > 0) {
    sample.mean_idle_fraction =
        std::min(1.0, std::max(0.0, (wait_total - last_wait_total_) /
                                        (span * active_count_)));
    sample.updates_per_second =
        static_cast<double>(ctx_->updates() - last_updates_) / span;
  }
  last_wait_total_ = wait_total;
  last_tick_time_ = now;
  last_updates_ = ctx_->updates();

  const int target = scale_policy_->Decide(sample);
  if (target < active_count_) {
    // Shed the highest-id active worker: the surviving set stays a prefix,
    // matching the threaded ScaleDirector's deterministic order.
    for (int w = ctx_->num_workers() - 1; w >= 0; --w) {
      const size_t i = static_cast<size_t>(w);
      if (active_[i] && !crashed_[i] && !leave_requested_[i] &&
          !scale_paused_[i]) {
        scale_paused_[i] = true;
        leave_requested_[i] = true;
        if (scale_shrink_ != nullptr) scale_shrink_->Increment();
        break;
      }
    }
  } else if (target > active_count_) {
    // Readmit the lowest-id policy-paused worker.
    for (int w = 0; w < ctx_->num_workers(); ++w) {
      const size_t i = static_cast<size_t>(w);
      if (!scale_paused_[i]) continue;
      scale_paused_[i] = false;
      if (active_[i]) {
        leave_requested_[i] = false;  // pause never reached a boundary
      } else {
        ScenarioRejoin(w);
      }
      if (scale_grow_ != nullptr) scale_grow_->Increment();
      break;
    }
  }
  ctx_->engine()->ScheduleAfter(
      std::max(1e-6, scale_policy_->config().interval_seconds),
      [this] { ScalePolicyTick(); });
}

void PReduceStrategy::Start() {
  // Churn windows keyed at the starting iteration (arrive events compile to
  // iteration 0) hold their workers out before the first compute event is
  // ever scheduled.
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    const double pause = TakeDueChurn(w);
    if (pause < 0.0) continue;
    Depart(w, /*paused=*/true);
    ctx_->engine()->ScheduleAfter(pause, [this, w] { ScenarioRejoin(w); });
  }
  UpdateEffectiveGroupSize();

  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (active_[static_cast<size_t>(w)]) BeginCompute(w);
  }

  // A partitioned worker is, in virtual time, a membership loss for the
  // window's duration: its traffic cannot reach the controller or any
  // group, which is exactly what leaving models.
  for (const PartitionEvent& p : ctx_->config().run.fault.partition_events) {
    ctx_->engine()->ScheduleAt(p.start_seconds, [this, p] {
      if (scenario_partitions_applied_ != nullptr) {
        scenario_partitions_applied_->Increment();
      }
      ScenarioLeave(p.worker);
    });
    ctx_->engine()->ScheduleAt(p.start_seconds + p.duration_seconds,
                               [this, p] { ScenarioRejoin(p.worker); });
  }
  if (scale_policy_ != nullptr) {
    // Floor keeps a malformed zero interval from wedging the event queue
    // at one timestamp.
    ctx_->engine()->ScheduleAfter(
        std::max(1e-6, scale_policy_->config().interval_seconds),
        [this] { ScalePolicyTick(); });
  }
}

void PReduceStrategy::BeginCompute(int worker) {
  // Gradient is computed against the worker's current (post-reduce) model.
  ctx_->TakeSnapshot(worker);
  const double d = ctx_->SampleComputeSeconds(worker);
  ctx_->RecordActivity(worker, WorkerActivity::kCompute,
                       ctx_->engine()->now(), ctx_->engine()->now() + d);
  ctx_->engine()->ScheduleAfter(d, [this, worker] {
    OnGradientReady(worker);
  });
}

void PReduceStrategy::OnGradientReady(int worker) {
  // Alg. 2 lines 3-5: local update, then signal the controller.
  ctx_->GradientAtSnapshot(worker, &grad_scratch_);
  ctx_->LocalStep(worker, grad_scratch_.data());
  ctx_->increment_iteration(worker);

  // Gradient boundary: a due churn window or a pending leave request makes
  // this worker depart instead of signaling. A churn rejoin comes its
  // pause later in virtual time.
  const size_t w = static_cast<size_t>(worker);
  ++local_iterations_[w];
  const double pause = TakeDueChurn(worker);
  if (pause >= 0.0) {
    ctx_->engine()->ScheduleAfter(pause,
                                  [this, worker] { ScenarioRejoin(worker); });
  }
  if (pause >= 0.0 || leave_requested_[w]) {
    leave_requested_[w] = false;
    Depart(worker, /*paused=*/pause >= 0.0 || scale_paused_[w]);
    UpdateEffectiveGroupSize();
    return;
  }

  if (CrashArmed(worker, /*in_group=*/false)) {
    // Boundary crash: the worker vanishes without signaling. The controller
    // notices when the lease horizon elapses and evicts it.
    crashed_[static_cast<size_t>(worker)] = true;
    const FaultPlan& plan = ctx_->config().run.fault;
    ctx_->engine()->ScheduleAfter(
        plan.lease_seconds * plan.missed_threshold,
        [this, worker] { EvictNow(worker); });
    return;
  }

  ctx_->MarkWaitStart(worker);
  SendSignal(worker);
}

void PReduceStrategy::SendSignal(int worker) {
  const FaultPlan& plan = ctx_->config().run.fault;
  if (plan.has_message_faults()) {
    // Mirror the worker->controller edge of the threaded fabric: a dropped
    // ready signal costs the protocol one resend interval, then retries
    // with the next sequence number.
    const uint64_t seq = signal_seq_[static_cast<size_t>(worker)]++;
    if (plan.RollDrop(worker, ctx_->num_workers(), seq)) {
      fault_drops_->Increment();
      fault_retries_->Increment();
      ctx_->trace()->Record(ctx_->engine()->now(),
                            TraceEventKind::kWorkerRetry, worker,
                            ctx_->iteration(worker));
      ctx_->engine()->ScheduleAfter(
          plan.recv_timeout_seconds * plan.resend_ready_ticks,
          [this, worker] { SendSignal(worker); });
      return;
    }
  }
  // The worker->controller hop pays any deterministic link latency the
  // plan lists on that edge (the controller sits at endpoint id N), same
  // as the FaultyTransport holding the real message.
  double hop = ctx_->cost().controller_delay();
  const double link = plan.LinkDelay(worker, ctx_->num_workers());
  if (link > 0.0) {
    hop += link;
    if (fault_delays_ != nullptr) fault_delays_->Increment();
  }
  ctx_->engine()->ScheduleAfter(hop,
                                [this, worker] { OnSignalArrival(worker); });
}

void PReduceStrategy::OnSignalArrival(int worker) {
  if (controller_down_) {
    // The signal dies at the severed endpoint; the worker parks and
    // re-registers when the controller returns.
    severed_drops_counter_->Increment();
    parked_.push_back(worker);
    return;
  }
  if (scenario_mode_) {
    // Graceful degradation: below the liveness floor the verdict path is
    // hopeless, so the worker takes local SGD steps until membership
    // recovers; below min_p the signal would just sit in a queue no group
    // can drain, so it is released back to compute (the threaded service's
    // immediate-release reply).
    const bool below_floor =
        liveness_floor_ > 0 && active_count_ < liveness_floor_;
    if (below_floor || active_count_ < min_p_) {
      if (below_floor && degrade_local_steps_ != nullptr) {
        degrade_local_steps_->Increment();
      }
      ctx_->MarkWaitEnd(worker);
      if (!ctx_->stopped() && active_[static_cast<size_t>(worker)]) {
        BeginCompute(worker);
      }
      return;
    }
  }
  HandleDecisions(
      controller_->OnReadySignal(worker, ctx_->iteration(worker)));
}

void PReduceStrategy::HandleDecisions(std::vector<GroupDecision> decisions) {
  for (GroupDecision& decision : decisions) {
    // A member with an armed mid-group crash kills the whole reduce: the
    // survivors stall on its chunks until the controller's lease verdict
    // aborts the group (the threaded engine's recovery path, in virtual
    // time).
    std::vector<int> crashed;
    for (int m : decision.members) {
      if (CrashArmed(m, /*in_group=*/true)) crashed.push_back(m);
    }
    if (!crashed.empty()) {
      const FaultPlan& plan = ctx_->config().run.fault;
      const double stall = plan.lease_seconds * plan.missed_threshold;
      for (int m : decision.members) {
        crashed_[static_cast<size_t>(m)] =
            crashed_[static_cast<size_t>(m)] ||
            std::find(crashed.begin(), crashed.end(), m) != crashed.end();
        ctx_->MarkWaitEnd(m);
        ctx_->RecordActivity(m, WorkerActivity::kComm,
                             ctx_->engine()->now(),
                             ctx_->engine()->now() + stall);
      }
      ctx_->engine()->ScheduleAfter(
          stall, [this, d = decision, crashed] { OnGroupAborted(d, crashed); });
      continue;
    }

    // Group formed: members leave the wait state and spend the group-info
    // delay plus the P-member ring reduce communicating. Groups synchronize
    // in parallel — nothing here blocks other workers or other groups. The
    // ring cost is topology-aware: one slow inter-node edge paces the
    // pipelined ring.
    for (int m : decision.members) ctx_->MarkWaitEnd(m);
    double comm = ctx_->cost().controller_delay() +
                  ctx_->cost().RingAllReduceSeconds(
                      decision.members, ctx_->config().run.topology);
    // Deterministic link delays stretch the group the same way the
    // FaultyTransport stretches real chunks: the group-info broadcast waits
    // on the slowest controller->member edge, and every ring step waits on
    // the slowest member->member edge, 2(p-1) steps per reduce.
    const FaultPlan& fplan = ctx_->config().run.fault;
    if (fplan.has_link_delays()) {
      double info_delay = 0.0;
      double worst_edge = 0.0;
      const size_t p = decision.members.size();
      for (size_t i = 0; i < p; ++i) {
        const int m = decision.members[i];
        info_delay = std::max(info_delay,
                              fplan.LinkDelay(ctx_->num_workers(), m));
        worst_edge = std::max(
            worst_edge, fplan.LinkDelay(m, decision.members[(i + 1) % p]));
      }
      const double stall =
          info_delay + 2.0 * static_cast<double>(p - 1) * worst_edge;
      if (stall > 0.0) {
        comm += stall;
        if (fault_delays_ != nullptr) fault_delays_->Increment();
      }
    }
    for (int m : decision.members) {
      ctx_->RecordActivity(m, WorkerActivity::kComm, ctx_->engine()->now(),
                           ctx_->engine()->now() + comm);
    }
    ctx_->engine()->ScheduleAfter(
        comm, [this, d = std::move(decision)] { OnGroupReduceDone(d); });
  }
}

void PReduceStrategy::OnGroupAborted(const GroupDecision& decision,
                                     const std::vector<int>& crashed) {
  fault_aborted_->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(), TraceEventKind::kGroupAborted,
                        -1, static_cast<int64_t>(decision.group_id));
  for (int m : crashed) EvictNow(m);
  if (ctx_->stopped()) return;
  for (int m : decision.members) {
    if (crashed_[static_cast<size_t>(m)]) continue;
    // Survivors roll back to their pre-reduce replicas (never touched in
    // the simulator — the average is only applied on success) and put their
    // signals back in the queue.
    fault_retries_->Increment();
    ctx_->trace()->Record(ctx_->engine()->now(),
                          TraceEventKind::kWorkerRetry, m,
                          ctx_->iteration(m));
    ctx_->MarkWaitStart(m);
    SendSignal(m);
  }
}

void PReduceStrategy::OnGroupReduceDone(const GroupDecision& decision) {
  std::vector<float*>& models = reduce_ptrs_;
  models.clear();
  for (int m : decision.members) models.push_back(ctx_->params(m).data());
  if (!compressors_.empty()) {
    // Compression emulation: each member's model passes through its own
    // lossy codec + error feedback before the average (the blob itself is
    // irrelevant here — RecordReduceTraffic accounts the bytes).
    for (size_t i = 0; i < models.size(); ++i) {
      const size_t m = static_cast<size_t>(decision.members[i]);
      (void)compressors_[m]->EncodeRangePublish(models[i], 0,
                                                ctx_->num_params());
    }
  }
  WeightedAverageInPlace(models, decision.weights, ctx_->num_params());

  if (options_.average_momentum) {
    // Ablation: merge optimizer state with the same weights (the paper
    // keeps momentum local).
    std::vector<float*> velocities;
    velocities.reserve(decision.members.size());
    for (int m : decision.members) {
      velocities.push_back(ctx_->optimizer(m)->mutable_velocity()->data());
    }
    WeightedAverageInPlace(velocities, decision.weights, ctx_->num_params());
  }

  if (options_.kind == StrategyKind::kPReduceDynamic) {
    // §3.3.3: members adopt the group's max iteration — their models now
    // reflect the newest information in the group.
    for (int m : decision.members) {
      ctx_->set_iteration(m, decision.advanced_iteration);
    }
  }
  ++completed_groups_;
  if (!outages_.empty()) {
    const FaultPlan& plan = ctx_->config().run.fault;
    if (plan.reregister_report_groups > 0) {
      if (recent_groups_.size() >=
          static_cast<size_t>(plan.reregister_report_groups)) {
        recent_groups_.pop_front();
      }
      recent_groups_.emplace_back(decision.group_id, decision.members);
    }
  }
  ctx_->RecordReduceTraffic(decision.members, options_.compression);
  ctx_->RecordUpdate();
  if (ctx_->stopped()) return;
  for (int m : decision.members) BeginCompute(m);
  MaybeCrashController();
}

void PReduceStrategy::MaybeCrashController() {
  if (controller_down_ || next_outage_ >= outages_.size()) return;
  if (completed_groups_ < outages_[next_outage_].after_groups) return;
  CrashController();
}

void PReduceStrategy::CrashController() {
  const ControllerFaultEvent& event = outages_[next_outage_];
  controller_down_ = true;
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kControllerCrash, -1,
                        static_cast<int64_t>(completed_groups_));
  if (event.restart) {
    ctx_->engine()->ScheduleAfter(event.down_seconds,
                                  [this] { RestartController(); });
  }
  // No restart scheduled: the controller is gone for good. Workers park as
  // their signals arrive, the event queue drains, and the run ends with
  // whatever updates it had — the simulator's analogue of the threaded
  // workers giving up after max_controller_outage_seconds.
}

void PReduceStrategy::RestartController() {
  ++next_outage_;
  controller_down_ = false;
  failovers_counter_->Increment();
  ctx_->trace()->Record(ctx_->engine()->now(),
                        TraceEventKind::kControllerRestart, -1,
                        static_cast<int64_t>(completed_groups_));

  // Fresh incarnation: all queue/history/EMA state died with the old
  // controller. Rebuild the history window and the group-id watermark from
  // the groups recent re-registrations can vouch for, then re-apply the
  // cluster-membership facts (departures survive a controller crash — they
  // are knowledge about the cluster, not controller state).
  controller_ = std::make_unique<Controller>(controller_options_);
  controller_->AttachObservers(ctx_->metrics(), ctx_->trace(),
                               [ctx = ctx_] { return ctx->engine()->now(); });
  ControllerRestoreState rs;
  uint64_t max_gid = 0;
  for (const auto& [gid, members] : recent_groups_) {
    if (members.size() >= 2) rs.history.push_back(members);
    max_gid = std::max(max_gid, gid);
  }
  rs.next_group_id = max_gid + 1;
  controller_->Restore(rs);
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (!active_[static_cast<size_t>(w)]) {
      HandleDecisions(controller_->NotifyWorkerLeft(w));
    }
  }

  // Every surviving worker re-registers — that is how the fresh incarnation
  // learns the membership it just restored. Workers whose ready signal hit
  // the dead controller additionally re-enter the queue in arrival order
  // after one controller hop.
  std::vector<int> parked;
  parked.swap(parked_);
  for (int w = 0; w < ctx_->num_workers(); ++w) {
    if (!active_[static_cast<size_t>(w)]) continue;
    reregs_counter_->Increment();
    ctx_->trace()->Record(ctx_->engine()->now(),
                          TraceEventKind::kWorkerReregister, w,
                          ctx_->iteration(w));
  }
  for (int worker : parked) {
    ctx_->engine()->ScheduleAfter(
        ctx_->cost().controller_delay(),
        [this, worker] { OnSignalArrival(worker); });
  }
  // The fresh incarnation starts at the configured P; re-apply the
  // degradation clamp for the membership it just learned.
  UpdateEffectiveGroupSize();
}

}  // namespace pr
