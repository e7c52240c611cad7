#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "ckpt/ckpt_config.h"
#include "compress/codec.h"
#include "core/weight_generator.h"
#include "data/synthetic.h"
#include "fault/fault_plan.h"
#include "hetero/hetero.h"
#include "models/catalog.h"
#include "optim/sgd.h"
#include "scenario/scale_policy.h"
#include "scenario/scenario.h"
#include "sim/cost_model.h"
#include "topo/topology.h"

namespace pr {

/// \brief Every synchronization scheme evaluated in the paper (§5.1).
enum class StrategyKind {
  kAllReduce,       ///< ring all-reduce with a global barrier (AR)
  kEagerReduce,     ///< partial collectives with stale gradients (ER)
  kAdPsgd,          ///< asynchronous decentralized pairwise gossip (AD)
  kPsBsp,           ///< parameter server, bulk synchronous
  kPsAsp,           ///< parameter server, fully asynchronous
  kPsHete,          ///< ASP + staleness-scaled learning rate (PS HETE)
  kPsBackup,        ///< synchronous SGD with backup workers (PS BK)
  kPReduceConst,    ///< partial reduce, constant 1/P weights (CON)
  kPReduceDynamic,  ///< partial reduce, dynamic EMA weights (DYN)
};

/// Short display name matching the paper's tables ("AR", "CON", ...).
std::string StrategyKindName(StrategyKind kind);

/// The partial-reduce kinds (CON, DYN).
inline bool IsPReduce(StrategyKind kind) {
  return kind == StrategyKind::kPReduceConst ||
         kind == StrategyKind::kPReduceDynamic;
}

/// The parameter-server family (PS-BSP, PS-ASP, PS-HETE, PS-BK).
inline bool IsPsFamily(StrategyKind kind) {
  return kind == StrategyKind::kPsBsp || kind == StrategyKind::kPsAsp ||
         kind == StrategyKind::kPsHete || kind == StrategyKind::kPsBackup;
}

/// \brief Strategy-specific knobs.
struct StrategyOptions {
  StrategyKind kind = StrategyKind::kPReduceConst;
  /// P for partial reduce.
  int group_size = 3;
  /// Backup worker count b for PS-BK (accepts N - b gradients per round).
  int backup_workers = 3;
  /// Quorum for Eager-Reduce; 0 selects majority floor(N/2) + 1.
  int er_quorum = 0;
  /// Dynamic partial-reduce weight options.
  DynamicWeightOptions dynamic;
  /// Group-frozen avoidance toggle (ablation).
  bool frozen_avoidance = true;
  /// History window T; 0 = paper minimum.
  size_t history_window = 0;
  /// Record W_k matrices for spectral diagnostics (small N only).
  bool record_sync_matrices = false;
  /// P-Reduce ablation: also average the members' momentum buffers during
  /// a group reduce. The paper's prototype averages only parameters
  /// (momentum stays local); merging optimizer state is the natural
  /// alternative from the local-SGD literature.
  bool average_momentum = false;
  /// Gradient/model compression applied to every strategy's bulk payloads
  /// (ring hops, PS pushes and model replies, gossip exchanges), with
  /// per-worker error feedback. kNone = exact fp32 (the default).
  CompressionKind compression = CompressionKind::kNone;
  /// Two-level hierarchical P-Reduce (intra-node partial groups plus
  /// scheduled cross-node merges). Requires a non-flat run topology; a no-op
  /// otherwise.
  HierarchyOptions hierarchy;
  /// Ring-cost budget for the group filter's topology-aware connectivity
  /// check; 0 disables the budget (FIFO picks always stand).
  double group_cost_budget = 0.0;
  /// Autoscaling + graceful-degradation policy (P-Reduce only): watches
  /// idle/throughput samples and pauses/readmits workers through the
  /// elastic churn paths; the degradation gates relax group formation under
  /// sustained membership loss. Serialized as `strategy.scale_policy.*`.
  ScalePolicyConfig scale_policy;
};

/// \brief Which execution engine carries a run.
///
/// The same RunConfig drives both: kThreaded executes on real OS threads
/// through WorkerRuntime (wall-clock time, real transport), kSim executes
/// under the discrete-event simulator (virtual time, cost-model transport).
enum class EngineKind {
  kThreaded,
  kSim,
};

class RunControl;
class WorkerLauncher;

/// \brief How to run: the cluster, the model and data, and the run's budget
/// and schedules, read by both engines.
///
/// On threads this is the prototype-system analogue of the paper's
/// implementation (§4): each worker is a thread with its own model replica
/// and data shard; the strategy's central state (P-Reduce controller, PS/ER
/// server), when it has any, lives on a dedicated service thread; the data
/// plane runs collectives over the in-process transport. The simulator
/// trains the same model on the same data under virtual time.
struct ThreadedRunOptions {
  int num_workers = 4;
  /// Local iterations per worker (each ends with one synchronization step
  /// of the selected strategy). The simulator turns the gradient budget
  /// (num_workers x iterations_per_worker) into global updates unless
  /// `SimOptions::max_updates` is set.
  size_t iterations_per_worker = 50;

  SgdOptions sgd;
  size_t batch_size = 32;
  /// Runnable proxy architecture, constructed through the models catalog.
  ProxyModelSpec model;
  /// The synthetic task; `dataset.dirichlet_alpha` selects non-IID shards.
  /// Both engines generate the data from `seed`, not `dataset.seed`.
  SyntheticSpec dataset;

  /// Injected per-iteration compute delay per worker (seconds); empty = no
  /// delay, otherwise one entry per worker. Threads sleep it after each
  /// gradient; the simulator adds it to the virtual compute time drawn
  /// from `SimOptions::hetero`. Active slowdown faults scale it on both.
  std::vector<double> worker_delay_seconds;

  /// Elastic membership schedule (P-Reduce kinds only): each event pauses
  /// its worker at a gradient boundary, keyed by completed local iterations
  /// (see ChurnEvent).
  std::vector<ChurnEvent> churn;

  /// Fault-injection schedule (P-Reduce kinds only): per-edge message
  /// drop/dup/delay via a FaultyTransport wrapped around the in-proc
  /// fabric, plus per-worker crash/hang/slowdown events. An enabled plan
  /// also arms the P-Reduce liveness valves (heartbeat leases, lease-based
  /// eviction, group abort/retry); a default-constructed plan runs the same
  /// protocol with infinite give-up horizons. The simulator mirrors it into
  /// virtual time: crashes trigger lease-horizon eviction, ready-signal
  /// drops trigger re-sends, slowdowns scale compute time, controller
  /// crash/restart events park in-flight signals and rebuild a fresh
  /// controller. Hang events and data-plane dup/delay are threaded-only;
  /// their fault.* counters still register (as zero) on the simulator.
  FaultPlan fault;

  /// Cluster placement (nodes × workers). Flat (the default) reproduces the
  /// historical uniform fabric. A non-flat topology feeds the controller's
  /// topology-aware group filter / hierarchical scheduling and classifies
  /// traffic into `transport.inter_node_bytes`; the simulator also
  /// stretches cross-node ring edges in its cost model.
  Topology topology;

  /// Coordinated checkpointing (P-Reduce kinds and All-Reduce): every
  /// `ckpt.every_iterations` local iterations each replica and its
  /// optimizer state are snapshotted into a shard and a manifest is written
  /// once every live worker has reported the epoch (see CheckpointConfig for
  /// how the simulator maps the period onto global updates). A run killed
  /// after a manifest lands resumes via ResumeRun. Disabled by default; the
  /// simulator refuses it in timing-only mode.
  CheckpointConfig ckpt;

  /// Trace-driven chaos scenario (P-Reduce kinds only). A non-empty
  /// scenario is compiled at run start (CompileScenario) and *merged* into
  /// `fault` and the churn schedule: crash/hang/slowdown events become
  /// iteration-keyed fault events, depart/arrive windows are appended to
  /// `churn`, and partitions are applied on the run's clock. The compiled
  /// scenario.* counters register under the same names on both engines.
  ScenarioSpec scenario;

  /// Record a per-worker activity timeline (compute/comm/idle intervals,
  /// the data behind Fig. 3's Gantt). The simulator records it for the AR
  /// and P-Reduce strategies.
  bool record_timeline = false;

  /// Capacity of the structured trace ring buffer (see obs/trace.h);
  /// 0 disables tracing. Metrics are always collected — they are cheap —
  /// but traces carry one record per signal/group/push, so they are opt-in.
  size_t trace_capacity = 0;

  uint64_t seed = 7;

  /// Optional control handle (cancel/abort/liveness — see RunControl).
  /// Runtime-only: not part of the serialized config.
  std::shared_ptr<RunControl> control;

  /// Optional thread-donation seam (see WorkerLauncher). Not owned; must
  /// outlive the run. Runtime-only: not part of the serialized config.
  WorkerLauncher* launcher = nullptr;
};

/// \brief Step-decay learning-rate schedule (simulator).
struct LrDecaySpec {
  bool enabled = false;
  double factor = 0.1;
  size_t every_updates = 2000;
  /// When true, `every_updates` counts *gradients computed* instead of
  /// global updates. Strategies incorporate different gradient counts per
  /// update (AR: N, P-Reduce: P, ASP: 1), so a gradient-based schedule is
  /// the fair analogue of the paper's per-epoch decay.
  bool per_gradient = false;
};

/// \brief The simulator's own knobs: what virtual time costs and when a
/// simulated run stops. The threaded engine ignores them. Not serialized.
struct SimOptions {
  LrDecaySpec lr_decay;
  /// Paper workload whose catalog entry drives the cost model.
  std::string paper_model = "resnet34";
  CostModelOptions cost;
  HeteroSpec hetero;

  /// Convergence criterion: stop when the evaluated model reaches this test
  /// accuracy. <= 0 (the default) runs the whole budget.
  double accuracy_threshold = 0.0;
  /// Global-update budget; 0 derives it from the threaded gradient budget
  /// (num_workers x iterations_per_worker), divided by the gradients the
  /// strategy incorporates per update (AR/PS-BSP/PS-BK: N, P-Reduce: P,
  /// ER: its quorum, AD-PSGD: 2, ASP/HETE: 1).
  size_t max_updates = 0;
  double max_sim_seconds = 1e9;
  /// Evaluate every this many updates; 0 evaluates once, at the end.
  size_t eval_every = 0;

  /// Timing-only mode: skip gradient math and evaluation; run exactly
  /// `max_updates` updates. Used by pure hardware-efficiency experiments
  /// (idle-time, scalability sweeps).
  bool timing_only = false;

  /// Record ||∇F||² of the evaluated model at every periodic evaluation
  /// (over a bounded probe of the training set) — the Theorem 1 quantity.
  bool record_grad_norm = false;
};

/// \brief A complete run request, for either engine: which synchronization
/// scheme, how to run it, and the simulator's own knobs.
struct RunConfig {
  StrategyOptions strategy;
  ThreadedRunOptions run;
  SimOptions sim;
};

}  // namespace pr
