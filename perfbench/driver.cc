// Benchmark driver: runs one workload's training job through the
// repository's production entry points (StartRun, Launch) and prints its
// measurements as one JSON line; perfbench/run.py repeats it and reports
// medians. Modes:
//
//   perfbench_driver job    --workload W --seed S --workdir D
//       one untraced end-to-end job
//   perfbench_driver layers --workload W --seed S --workdir D --trace-out F
//       timed calls into each layer at the workload's shapes, then one
//       traced job; spans go to F as Chrome trace-event JSON
//   perfbench_driver --role node ...
//       a process of a multi-process job (spawned by Launch)

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "comm/collectives.h"
#include "comm/socket_transport.h"
#include "comm/transport.h"
#include "compress/codec.h"
#include "compress/compressor.h"
#include "core/controller.h"
#include "data/dataset.h"
#include "data/synthetic.h"
#include "launch/config_io.h"
#include "launch/launcher.h"
#include "launch/process_runner.h"
#include "models/catalog.h"
#include "models/model.h"
#include "optim/sgd.h"
#include "spans.h"
#include "train/run.h"
#include "workloads.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double PeakRssMb(int who) {
  rusage ru{};
  getrusage(who, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Flat JSON object writer for the driver's one-line outputs.
class JsonLine {
 public:
  void Add(const std::string& key, double v) { Raw(key, Num(v)); }
  void Add(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Add(const std::string& key, const std::string& v) {
    std::string quoted = "\"";
    for (char c : v) {
      if (c == '"' || c == '\\') quoted += '\\';
      quoted += (c == '\n') ? ' ' : c;
    }
    Raw(key, quoted + "\"");
  }
  void Raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + ("\"" + key + "\":") + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

pr::SyntheticSpec DatasetSpec(const Workload& w) {
  // Every engine regenerates the dataset from the run seed.
  pr::SyntheticSpec spec = w.config.run.dataset;
  spec.seed = w.config.run.seed;
  return spec;
}

std::unique_ptr<pr::Model> BuildModel(const Workload& w) {
  const pr::SyntheticSpec& d = w.config.run.dataset;
  return pr::MakeProxyModel(w.config.run.model, d.dim,
                            static_cast<size_t>(d.num_classes));
}

/// Median seconds of one local step (gradient + SGD update) at the
/// workload's shape on a random batch; sizes the straggler's delay.
double MeasureStepSeconds(const Workload& w) {
  auto model = BuildModel(w);
  pr::Rng rng(w.config.run.seed ^ 0x5eedULL);
  std::vector<float> params;
  model->InitParams(&params, &rng);
  std::vector<float> grad(params.size());
  const size_t batch = w.config.run.batch_size;
  const size_t dim = w.config.run.dataset.dim;
  pr::Tensor x(batch, dim);
  std::vector<int> y(batch);
  for (size_t i = 0; i < batch * dim; ++i) {
    x.data()[i] = static_cast<float>(rng.Normal());
  }
  for (size_t i = 0; i < batch; ++i) {
    y[i] = static_cast<int>(i % static_cast<size_t>(model->NumClasses()));
  }
  // The update goes to a copy: training on one batch over and over would
  // drive the gradient towards denormals and slow the math down.
  pr::Sgd sgd(params.size(), w.config.run.sgd);
  std::vector<float> updated = params;
  std::vector<double> times;
  for (int i = 0; i < 25; ++i) {
    const auto t0 = Clock::now();
    model->LossAndGradient(params.data(), x, y, grad.data());
    sgd.Step(grad.data(), updated.data(), updated.size());
    if (i >= 5) times.push_back(SecondsSince(t0));
  }
  return Percentile(times, 0.5);
}

/// Everything one job produced that the end-to-end and layer reports need.
struct JobResult {
  bool ok = true;
  std::string reason;
  double samples_per_s = 0.0;
  double run_s = 0.0;
  double final_loss = 0.0;
  double setup_s = 0.0;
  double peak_rss_mb = 0.0;
  double untrained_loss = 0.0;
  double delay_s = 0.0;
  double call_seconds = 0.0;  ///< wall of the engine call
  uint64_t sync_rounds = 0;
  size_t gradients = 0;
  std::vector<size_t> worker_iterations;
  std::vector<double> worker_finish_seconds;
  pr::MetricsSnapshot metrics;
  pr::Timeline timeline{1};

  void Fail(const std::string& why) {
    if (ok) reason = why;
    ok = false;
  }
};

bool AllFinite(const std::vector<float>& v) {
  return std::all_of(v.begin(), v.end(),
                     [](float x) { return std::isfinite(x); });
}

double UntrainedLoss(const Workload& w) {
  const pr::TrainTestSplit data = pr::GenerateSynthetic(DatasetSpec(w));
  auto model = BuildModel(w);
  pr::Rng rng(w.config.run.seed);
  std::vector<float> params;
  model->InitParams(&params, &rng);
  return pr::EvaluateLoss(*model, params.data(), data.test);
}

/// Launch's children are fork+exec'd copies of this binary; each writes its
/// own peak RSS next to its report, and the sum covers the whole job.
double ChildrenRssMb(const std::string& workdir, int processes) {
  double total = 0.0;
  for (int node = 0; node < processes; ++node) {
    std::ifstream in(workdir + "/node-" + std::to_string(node) +
                     ".report.rss");
    double mb = 0.0;
    if (in >> mb) total += mb;
  }
  return total;
}

void RunJob(const Workload& base, bool traced, const std::string& workdir,
            JobResult* out) {
  Workload w = base;
  pr::ThreadedRunOptions& r = w.config.run;
  if (traced) {
    r.record_timeline = true;
    r.trace_capacity = 1 << 16;
  }
  if (w.straggler >= 0) {
    out->delay_s = MeasureStepSeconds(w);
    r.worker_delay_seconds.assign(static_cast<size_t>(r.num_workers), 0.0);
    r.worker_delay_seconds[static_cast<size_t>(w.straggler)] = out->delay_s;
  }
  const double batch = static_cast<double>(r.batch_size);
  const size_t budget = r.iterations_per_worker;
  std::vector<float> final_params;

  if (w.entry == Entry::kLaunch) {
    pr::LaunchOptions options;
    options.config = w.config;
    options.workdir = workdir;
    options.self_binary = "/proc/self/exe";
    pr::LaunchResult res;
    const auto t0 = Clock::now();
    const pr::Status s = pr::Launch(options, &res);
    out->call_seconds = SecondsSince(t0);
    if (!s.ok()) {
      out->Fail("Launch: " + s.message());
      return;
    }
    out->setup_s = out->call_seconds - res.wall_seconds;
    out->final_loss = res.final_loss;
    out->sync_rounds = res.group_reduces;
    out->worker_iterations = res.worker_iterations;
    out->worker_finish_seconds = res.worker_finish_seconds;
    out->metrics = res.metrics;
    final_params = res.averaged_params;
    out->peak_rss_mb =
        PeakRssMb(RUSAGE_SELF) + ChildrenRssMb(workdir, res.num_processes);
  } else if (w.entry == Entry::kThreaded) {
    const auto t0 = Clock::now();
    pr::RunOutcome res = pr::StartRun(w.config, pr::EngineKind::kThreaded);
    out->call_seconds = SecondsSince(t0);
    out->setup_s = out->call_seconds - res.threaded.wall_seconds;
    out->final_loss = res.final_loss;
    out->sync_rounds = res.sync_rounds;
    out->worker_iterations = res.threaded.worker_iterations;
    out->worker_finish_seconds = res.threaded.worker_finish_seconds;
    out->metrics = res.metrics;
    out->timeline = res.threaded.timeline;
    final_params = res.threaded.final_params;
    out->peak_rss_mb = PeakRssMb(RUSAGE_SELF);
    if (w.config.strategy.kind == pr::StrategyKind::kAllReduce &&
        res.threaded.replica_spread != 0.0) {
      out->Fail("replicas differ: spread " +
                Num(res.threaded.replica_spread));
    }
  } else {
    // The simulator reports no wall-clock split, so its set-up is the wall
    // of the same call at a one-iteration budget.
    Workload tiny = w;
    tiny.config.run.iterations_per_worker = 1;
    tiny.config.run.record_timeline = false;
    tiny.config.run.trace_capacity = 0;
    auto t0 = Clock::now();
    pr::StartRun(tiny.config, pr::EngineKind::kSim);
    out->setup_s = SecondsSince(t0);
    t0 = Clock::now();
    pr::RunOutcome res = pr::StartRun(w.config, pr::EngineKind::kSim);
    out->call_seconds = SecondsSince(t0);
    out->final_loss = res.final_loss;
    out->sync_rounds = res.sync_rounds;
    out->metrics = res.metrics;
    out->peak_rss_mb = PeakRssMb(RUSAGE_SELF);
    // StartRun converts the threaded budget (N x iterations gradients) into
    // updates of P gradients each.
    const uint64_t want = static_cast<uint64_t>(std::llround(
        static_cast<double>(r.num_workers) * static_cast<double>(budget) /
        GroupSize(w)));
    if (res.sync_rounds != want) {
      out->Fail("sim ran " + std::to_string(res.sync_rounds) + " of " +
                std::to_string(want) + " updates");
    }
    const double grads = static_cast<double>(res.sync_rounds) *
                         static_cast<double>(GroupSize(w));
    out->gradients = static_cast<size_t>(grads);
    out->samples_per_s = grads * batch / out->call_seconds;
    out->run_s = out->call_seconds;
  }

  if (w.entry != Entry::kSim) {
    if (out->worker_iterations.size() != static_cast<size_t>(r.num_workers)) {
      out->Fail("missing per-worker iteration counts");
    }
    double rate = 0.0;
    double last = 0.0;
    for (size_t i = 0; i < out->worker_iterations.size(); ++i) {
      const size_t it = out->worker_iterations[i];
      const double fin = i < out->worker_finish_seconds.size()
                             ? out->worker_finish_seconds[i]
                             : 0.0;
      if (it != budget) {
        out->Fail("worker " + std::to_string(i) + " ran " +
                  std::to_string(it) + " of " + std::to_string(budget) +
                  " iterations");
      }
      out->gradients += it;
      if (fin > 0.0) rate += static_cast<double>(it) * batch / fin;
      last = std::max(last, fin);
    }
    out->samples_per_s = rate;
    out->run_s = last;
    if (!AllFinite(final_params)) out->Fail("non-finite final parameters");
  }
  out->untrained_loss = UntrainedLoss(w);
  if (!std::isfinite(out->final_loss)) {
    out->Fail("non-finite final loss");
  } else if (!(out->final_loss < out->untrained_loss)) {
    out->Fail("final loss " + Num(out->final_loss) +
              " not below untrained loss " + Num(out->untrained_loss));
  }
}

std::string JobJson(const JobResult& j) {
  JsonLine line;
  line.Add("ok", j.ok);
  line.Add("reason", j.reason);
  line.Add("samples_per_s", j.samples_per_s);
  line.Add("run_s", j.run_s);
  line.Add("final_loss", j.final_loss);
  line.Add("setup_s", j.setup_s);
  line.Add("peak_rss_mb", j.peak_rss_mb);
  line.Add("untrained_loss", j.untrained_loss);
  line.Add("delay_s", j.delay_s);
  return line.str();
}

// ---------------------------------------------------------------------------
// Layer pass

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Repeats `body` until `budget_s` has passed (at least `min_reps` times,
/// at most `max_reps`), recording one span per call; returns the seconds.
template <typename Body>
std::vector<double> TimeCalls(SpanRecorder* rec, const std::string& name,
                              int parent, double budget_s, int min_reps,
                              int max_reps, Body body) {
  std::vector<double> times;
  const auto start = Clock::now();
  while (static_cast<int>(times.size()) < max_reps &&
         (static_cast<int>(times.size()) < min_reps ||
          SecondsSince(start) < budget_s)) {
    const int id = rec->Begin(name, parent);
    const auto t0 = Clock::now();
    body();
    times.push_back(SecondsSince(t0));
    rec->End(id);
  }
  return times;
}

/// `rounds` weighted all-reduces among `members` threads through the
/// dispatch the strategies use, over the workload's transport and codec.
/// Returns member 0's per-call seconds.
std::vector<double> TimeRing(const Workload& w, size_t n, int rounds,
                             const std::string& workdir, SpanRecorder* rec,
                             int parent, std::string* error) {
  const int g = GroupSize(w);
  std::unique_ptr<pr::Transport> transport;
  if (w.entry == Entry::kLaunch) {
    pr::SocketConfig sc;
    sc.dir = workdir + "/ring";
    std::filesystem::create_directories(sc.dir);
    auto fabric = std::make_unique<pr::SocketFabric>(sc, g);
    const pr::Status s = fabric->Start();
    if (!s.ok()) {
      *error = "SocketFabric: " + s.message();
      return {};
    }
    transport = std::move(fabric);
  } else {
    transport = std::make_unique<pr::InProcTransport>(g);
  }
  std::vector<pr::NodeId> members(static_cast<size_t>(g));
  for (int i = 0; i < g; ++i) members[static_cast<size_t>(i)] = i;
  const std::vector<double> weights(static_cast<size_t>(g), 1.0 / g);
  std::vector<double> times;
  std::vector<std::string> errors(static_cast<size_t>(g));
  std::vector<std::thread> threads;
  for (int m = 0; m < g; ++m) {
    threads.emplace_back([&, m] {
      pr::Endpoint ep(transport.get(), m);
      pr::Compressor compressor(w.config.strategy.compression);
      pr::Rng rng(static_cast<uint64_t>(m) + 1);
      std::vector<float> data(n);
      for (float& v : data) v = static_cast<float>(rng.Normal());
      for (int round = 0; round < rounds; ++round) {
        const int id = m == 0 ? rec->Begin("comm.ring", parent, 1) : -1;
        const auto t0 = Clock::now();
        const pr::Status s = pr::GroupWeightedAllReduce(
            &ep, members, weights, static_cast<size_t>(m),
            static_cast<uint64_t>(round + 1), data.data(), n,
            compressor.enabled() ? &compressor : nullptr);
        if (m == 0) {
          times.push_back(SecondsSince(t0));
          rec->End(id);
        }
        if (!s.ok()) {
          errors[static_cast<size_t>(m)] = s.message();
          return;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  transport->Shutdown();
  for (const std::string& e : errors) {
    if (!e.empty()) *error = "ring: " + e;
  }
  return times;
}

/// Feeds the controller a straggler-shaped signal order: every worker is
/// ready after one unit of compute except the workload's stragglers (one
/// per eight workers) which need two; grouped workers restart together.
std::vector<double> TimeDecisions(const Workload& w, int signals,
                                  SpanRecorder* rec, int parent) {
  const int n = w.config.run.num_workers;
  pr::ControllerOptions opts;
  opts.num_workers = n;
  opts.group_size = GroupSize(w);
  opts.topology = w.config.run.topology;
  opts.hierarchy = w.config.strategy.hierarchy;
  pr::Controller controller(opts);
  auto speed = [&](int worker) {
    const bool slow = worker == w.straggler || (n >= 8 && worker % 8 == 7);
    return slow ? 2.0 : 1.0;
  };
  // ready[i] = virtual time worker i next signals; queued workers wait.
  std::vector<double> ready(static_cast<size_t>(n));
  std::vector<int64_t> iteration(static_cast<size_t>(n), 0);
  for (int i = 0; i < n; ++i) ready[static_cast<size_t>(i)] = speed(i);
  std::vector<double> times;
  const int id = rec->Begin("core.decide", parent);
  for (int k = 0; k < signals; ++k) {
    const auto next = std::min_element(ready.begin(), ready.end());
    const int worker = static_cast<int>(next - ready.begin());
    const double now = *next;
    *next = HUGE_VAL;
    const auto t0 = Clock::now();
    const std::vector<pr::GroupDecision> groups =
        controller.OnReadySignal(worker, ++iteration[static_cast<size_t>(worker)]);
    times.push_back(SecondsSince(t0));
    for (const pr::GroupDecision& g : groups) {
      for (int m : g.members) {
        ready[static_cast<size_t>(m)] = now + speed(m);
        iteration[static_cast<size_t>(m)] = g.advanced_iteration;
      }
    }
  }
  rec->End(id);
  return times;
}

int LayersMain(const std::string& name, uint64_t seed,
               const std::string& workdir, const std::string& trace_out) {
  Workload w;
  MakeWorkload(name, seed, &w);
  SpanRecorder rec;
  std::map<std::string, double> m;
  std::string error;
  const int root = rec.Begin("bench.layers", -1);

  // data: the dataset every engine generates at start-up.
  const pr::SyntheticSpec spec = DatasetSpec(w);
  pr::TrainTestSplit data;
  std::vector<double> gen = TimeCalls(&rec, "data.generate", root, 0.0, 3, 3,
                                      [&] { data = pr::GenerateSynthetic(spec); });
  m["data.generate_ms"] = Percentile(gen, 0.5) * 1e3;

  // models + optim: one local step at the workload's shape.
  auto model = BuildModel(w);
  pr::Rng rng(seed);
  std::vector<float> params;
  model->InitParams(&params, &rng);
  const size_t n = params.size();
  std::vector<float> grad(n);
  pr::Shard all;
  for (size_t i = 0; i < data.train.size(); ++i) all.indices.push_back(i);
  pr::BatchSampler sampler(&data.train, all, w.config.run.batch_size, seed);
  pr::Tensor x;
  std::vector<int> y;
  sampler.NextBatch(&x, &y);
  const std::vector<double> grads =
      TimeCalls(&rec, "models.grad", root, 0.6, 50, 2000, [&] {
        model->LossAndGradient(params.data(), x, y, grad.data());
      });
  m["models.grad_p50_ms"] = Percentile(grads, 0.5) * 1e3;
  m["models.grad_p99_ms"] = Percentile(grads, 0.99) * 1e3;
  const std::vector<double> evals =
      TimeCalls(&rec, "models.eval", root, 0.0, 3, 3, [&] {
        pr::EvaluateLoss(*model, params.data(), data.test);
      });
  m["models.eval_ms"] = Percentile(evals, 0.5) * 1e3;
  pr::Sgd sgd(n, w.config.run.sgd);
  std::vector<float> scratch = params;
  const std::vector<double> steps =
      TimeCalls(&rec, "optim.step", root, 0.3, 50, 2000, [&] {
        sgd.Step(grad.data(), scratch.data(), n);
      });
  m["optim.step_p50_ms"] = Percentile(steps, 0.5) * 1e3;

  // compress: the int8 codec on a parameter-sized vector.
  auto codec = pr::MakeCodec(pr::CompressionKind::kInt8);
  pr::Buffer blob;
  const std::vector<double> enc =
      TimeCalls(&rec, "compress.encode", root, 0.3, 20, 2000,
                [&] { blob = codec->Encode(grad.data(), n); });
  std::vector<float> decoded;
  const std::vector<double> dec =
      TimeCalls(&rec, "compress.decode", root, 0.3, 20, 2000, [&] {
        if (!codec->Decode(blob, &decoded).ok()) error = "int8 decode failed";
      });
  m["compress.encode_ns_per_elem"] = Percentile(enc, 0.5) * 1e9 / n;
  m["compress.decode_ns_per_elem"] = Percentile(dec, 0.5) * 1e9 / n;

  // comm: the group all-reduce at the workload's group size and transport.
  const int rounds = n > 100000 ? 40 : 400;
  const std::vector<double> ring =
      TimeRing(w, n, rounds, workdir, &rec, root, &error);
  m["comm.ring_p50_ms"] = Percentile(ring, 0.5) * 1e3;
  m["comm.ring_p99_ms"] = Percentile(ring, 0.99) * 1e3;

  // core: controller decisions at the workload's N, P and topology.
  const std::vector<double> decide = TimeDecisions(
      w, std::clamp(40 * w.config.run.num_workers, 4000, 20000), &rec, root);
  m["core.decide_p50_us"] = Percentile(decide, 0.5) * 1e6;
  m["core.decide_p99_us"] = Percentile(decide, 0.99) * 1e6;

  // sim: the simulator on this workload's configuration (for sim-scale,
  // the traced job below is the simulator run).
  const double step_s = Percentile(grads, 0.5) + Percentile(steps, 0.5);
  if (w.entry != Entry::kSim) {
    pr::RunConfig sim_config = w.config;
    sim_config.run.iterations_per_worker =
        std::min<size_t>(sim_config.run.iterations_per_worker, 20);
    const int id = rec.Begin("sim.run", root);
    const auto t0 = Clock::now();
    const pr::RunOutcome res = pr::StartRun(sim_config, pr::EngineKind::kSim);
    const double wall = SecondsSince(t0);
    rec.End(id);
    const double grads_done =
        static_cast<double>(res.sync_rounds) * GroupSize(w);
    m["sim.us_per_update"] = Ratio(wall, res.sync_rounds) * 1e6;
    m["sim.engine_share"] = 1.0 - grads_done * Percentile(grads, 0.5) / wall;
  }

  // The traced job: the workload's own entry point with the timeline and
  // the event trace on, read through the counters the run publishes.
  JobResult job;
  const int job_span =
      rec.Begin(w.entry == Entry::kSim ? "sim.job" : "runtime.job", root);
  const double job_start = rec.Now();
  RunJob(w, /*traced=*/true, workdir, &job);
  rec.End(job_span);
  if (!job.ok) error = job.reason;
  const double rounds_done = static_cast<double>(job.sync_rounds);
  const pr::MetricsSnapshot& mt = job.metrics;
  m["comm.bytes_per_sync"] = Ratio(mt.counter("transport.bytes_sent"), rounds_done);
  m["comm.copies_per_sync"] =
      Ratio(mt.counter("transport.payload_copies"), rounds_done);
  const double bytes_in = mt.counter("compress.bytes_in");
  m["compress.ratio"] =
      bytes_in > 0.0 ? Ratio(bytes_in, mt.counter("compress.bytes_out")) : 1.0;
  const double formed = mt.counter("controller.groups_formed");
  m["core.bridged_share"] = Ratio(mt.counter("controller.bridged_groups"), formed);
  m["core.holds_per_group"] = Ratio(mt.counter("controller.holds"), formed);
  m["topo.inter_node_bytes_per_sync"] =
      Ratio(mt.counter("transport.inter_node_bytes"), rounds_done);

  // runtime: where each worker's active span went, and its step intervals.
  const int workers = w.config.run.num_workers;
  double compute = 0.0, comm = 0.0, idle = 0.0, active = 0.0;
  for (int i = 0; i < workers; ++i) {
    const std::string p = "worker." + std::to_string(i) + ".";
    compute += mt.counter(p + "compute_seconds");
    comm += mt.counter(p + "comm_seconds");
    idle += mt.counter(p + "idle_seconds");
  }
  if (w.entry == Entry::kSim) {
    active = mt.gauge("run.sim_seconds") * workers;
  } else {
    for (double f : job.worker_finish_seconds) active += f;
  }
  m["runtime.compute_share"] = Ratio(compute, active);
  m["runtime.comm_share"] = Ratio(comm, active);
  m["runtime.idle_share"] = Ratio(idle, active);
  std::vector<double> intervals;
  std::vector<std::vector<double>> begins(static_cast<size_t>(workers));
  for (const pr::TimelineInterval& iv : job.timeline.intervals()) {
    if (iv.worker < 0 || iv.worker >= workers) continue;
    if (iv.activity == pr::WorkerActivity::kCompute) {
      begins[static_cast<size_t>(iv.worker)].push_back(iv.begin);
    }
    if (w.entry == Entry::kThreaded) {
      // Worker activity on its own track, anchored at the job span's start.
      static const char* kNames[] = {"runtime.compute", "runtime.comm",
                                     "runtime.idle"};
      rec.Add(kNames[static_cast<int>(iv.activity)], job_span, 100 + iv.worker,
              job_start + iv.begin, job_start + iv.end);
    }
  }
  for (std::vector<double>& b : begins) {
    std::sort(b.begin(), b.end());
    for (size_t k = 1; k < b.size(); ++k) intervals.push_back(b[k] - b[k - 1]);
  }
  if (w.entry == Entry::kLaunch) {
    // Launched processes return no timeline: use each worker's mean step.
    for (size_t i = 0; i < job.worker_iterations.size(); ++i) {
      intervals.push_back(Ratio(job.worker_finish_seconds[i],
                                static_cast<double>(job.worker_iterations[i])));
    }
  } else if (w.entry == Entry::kSim) {
    // StartRun returns no simulator timeline: each worker's mean step in
    // virtual time.
    for (int i = 0; i < workers; ++i) {
      intervals.push_back(Ratio(
          mt.gauge("run.sim_seconds"),
          mt.counter("worker." + std::to_string(i) + ".iterations")));
    }
  }
  m["runtime.step_p50_ms"] = Percentile(intervals, 0.5) * 1e3;
  m["runtime.step_p99_ms"] = Percentile(intervals, 0.99) * 1e3;
  if (w.entry == Entry::kSim) {
    m["sim.us_per_update"] = Ratio(job.call_seconds, rounds_done) * 1e6;
    m["sim.engine_share"] = 1.0 - static_cast<double>(job.gradients) *
                                      Percentile(grads, 0.5) / job.call_seconds;
  }
  // The single-worker baseline: each worker alone, at its own delay. The
  // simulator runs every worker's step on one thread, so its baseline is
  // one worker.
  double baseline = 0.0;
  for (int i = 0; i < (w.entry == Entry::kSim ? 1 : workers); ++i) {
    const double delay = i == w.straggler ? job.delay_s : 0.0;
    baseline += static_cast<double>(w.config.run.batch_size) / (step_s + delay);
  }
  rec.End(root);

  const std::map<std::string, double> self = rec.SelfSecondsByLayer();
  for (const char* layer : {"bench", "data", "models", "optim", "compress",
                            "comm", "core", "sim", "runtime"}) {
    const auto it = self.find(layer);
    m[std::string(layer) + ".self_ms"] =
        it == self.end() ? 0.0 : it->second * 1e3;
  }
  if (!trace_out.empty() && !rec.WriteChromeTrace(trace_out)) {
    error = "cannot write " + trace_out;
  }
  JsonLine metrics;
  for (const auto& [k, v] : m) metrics.Add(k, v);
  JsonLine line;
  line.Add("ok", error.empty());
  line.Add("reason", error);
  line.Raw("metrics", metrics.str());
  line.Add("baseline_samples_per_s", baseline);
  line.Add("traced_samples_per_s", job.samples_per_s);
  std::printf("%s\n", line.str().c_str());
  return 0;
}

// ---------------------------------------------------------------------------

/// A process of a launched job: `--role node --node I --config P
/// --sockdir D --report R` (the flags Launch passes to self_binary).
int NodeMain(int argc, char** argv) {
  pr::NodeRunOptions options;
  std::string config_path;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    const std::string v = argv[i + 1];
    if (arg == "--node") {
      options.node = std::atoi(v.c_str());
    } else if (arg == "--config") {
      config_path = v;
    } else if (arg == "--sockdir") {
      options.socket.dir = v;
    } else if (arg == "--report") {
      options.report_path = v;
    } else if (arg != "--role") {
      std::fprintf(stderr, "unknown node flag %s\n", arg.c_str());
      return 2;
    }
  }
  pr::Status s = pr::LoadRunConfig(config_path, &options.config);
  if (s.ok()) s = pr::RunNode(options);
  if (!s.ok()) {
    std::fprintf(stderr, "node %d: %s\n", options.node, s.message().c_str());
    return 3;
  }
  std::ofstream(options.report_path + ".rss") << Num(PeakRssMb(RUSAGE_SELF));
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver job|layers --workload W --seed S "
               "--workdir D [--trace-out F]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc > 2 && std::string(argv[1]) == "--role") return NodeMain(argc, argv);
  if (argc < 2) return Usage();
  const std::string mode = argv[1];
  std::string workload, workdir = ".", trace_out;
  uint64_t seed = 1;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string arg = argv[i];
    if (arg == "--workload") workload = argv[i + 1];
    else if (arg == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (arg == "--workdir") workdir = argv[i + 1];
    else if (arg == "--trace-out") trace_out = argv[i + 1];
    else return Usage();
  }
  Workload w;
  if (!MakeWorkload(workload, seed, &w)) return Usage();
  std::filesystem::create_directories(workdir);
  if (mode == "layers") return LayersMain(workload, seed, workdir, trace_out);
  if (mode != "job") return Usage();
  JobResult job;
  RunJob(w, /*traced=*/false, workdir, &job);
  std::printf("%s\n", JobJson(job).c_str());
  return 0;
}
