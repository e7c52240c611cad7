#include "launch/config_io.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <vector>

#include "obs/json.h"

namespace pr {
namespace {

// %.17g round-trips any double exactly through strtod; good enough for every
// numeric field here (integers up to 2^53 included).
std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string StrategyKindToken(StrategyKind kind) {
  return StrategyKindName(kind);
}

bool ParseStrategyKind(const std::string& token, StrategyKind* out) {
  static const std::pair<const char*, StrategyKind> kNames[] = {
      {"AR", StrategyKind::kAllReduce},
      {"ER", StrategyKind::kEagerReduce},
      {"AD", StrategyKind::kAdPsgd},
      {"PS-BSP", StrategyKind::kPsBsp},
      {"PS-ASP", StrategyKind::kPsAsp},
      {"PS-HETE", StrategyKind::kPsHete},
      {"PS-BK", StrategyKind::kPsBackup},
      {"CON", StrategyKind::kPReduceConst},
      {"DYN", StrategyKind::kPReduceDynamic},
  };
  for (const auto& [name, kind] : kNames) {
    if (token == name) {
      *out = kind;
      return true;
    }
  }
  return false;
}

const char* MissingSlotToken(MissingSlotPolicy policy) {
  switch (policy) {
    case MissingSlotPolicy::kRenormalize:
      return "renormalize";
    case MissingSlotPolicy::kAssignToStaler:
      return "staler";
    case MissingSlotPolicy::kAssignToNearest:
      return "nearest";
  }
  return "staler";
}

bool ParseMissingSlot(const std::string& token, MissingSlotPolicy* out) {
  if (token == "renormalize") {
    *out = MissingSlotPolicy::kRenormalize;
  } else if (token == "staler") {
    *out = MissingSlotPolicy::kAssignToStaler;
  } else if (token == "nearest") {
    *out = MissingSlotPolicy::kAssignToNearest;
  } else {
    return false;
  }
  return true;
}

const char* WorkerFaultToken(WorkerFaultEvent::Kind kind) {
  switch (kind) {
    case WorkerFaultEvent::Kind::kCrash:
      return "crash";
    case WorkerFaultEvent::Kind::kHang:
      return "hang";
    case WorkerFaultEvent::Kind::kSlowdown:
      return "slowdown";
  }
  return "crash";
}

bool ParseWorkerFault(const std::string& token, WorkerFaultEvent::Kind* out) {
  if (token == "crash") {
    *out = WorkerFaultEvent::Kind::kCrash;
  } else if (token == "hang") {
    *out = WorkerFaultEvent::Kind::kHang;
  } else if (token == "slowdown") {
    *out = WorkerFaultEvent::Kind::kSlowdown;
  } else {
    return false;
  }
  return true;
}

// Parsing machinery: each line is split into a key plus a value stream; the
// Take* helpers report malformed fields as a Status naming the offending
// line so a config mismatch points straight at its cause.
class LineParser {
 public:
  LineParser(int line_no, std::string key, std::istringstream* values)
      : line_no_(line_no), key_(std::move(key)), values_(values) {}

  Status TakeDouble(double* out) {
    std::string token;
    if (!(*values_ >> token)) return Missing();
    char* end = nullptr;
    *out = std::strtod(token.c_str(), &end);
    if (end == token.c_str() || *end != '\0') return Bad(token);
    return Status::OK();
  }

  Status TakeInt(int64_t* out) {
    std::string token;
    if (!(*values_ >> token)) return Missing();
    char* end = nullptr;
    *out = std::strtoll(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') return Bad(token);
    return Status::OK();
  }

  Status TakeUInt(uint64_t* out) {
    std::string token;
    if (!(*values_ >> token)) return Missing();
    char* end = nullptr;
    *out = std::strtoull(token.c_str(), &end, 10);
    if (end == token.c_str() || *end != '\0') return Bad(token);
    return Status::OK();
  }

  Status TakeBool(bool* out) {
    int64_t v = 0;
    PR_RETURN_NOT_OK(TakeInt(&v));
    if (v != 0 && v != 1) return Bad(std::to_string(v));
    *out = v == 1;
    return Status::OK();
  }

  Status TakeString(std::string* out) {
    if (!(*values_ >> *out)) return Missing();
    return Status::OK();
  }

  // The remainder of the line, leading whitespace stripped (for values that
  // may contain spaces, e.g. paths).
  std::string Rest() {
    std::string rest;
    std::getline(*values_, rest);
    size_t start = rest.find_first_not_of(" \t");
    return start == std::string::npos ? std::string() : rest.substr(start);
  }

  Status Missing() const {
    return Status::InvalidArgument("config line " + std::to_string(line_no_) +
                                   ": key '" + key_ + "' is missing a value");
  }

  Status Bad(const std::string& token) const {
    return Status::InvalidArgument("config line " + std::to_string(line_no_) +
                                   ": key '" + key_ + "' has bad value '" +
                                   token + "'");
  }

 private:
  int line_no_;
  std::string key_;
  std::istringstream* values_;
};

}  // namespace

std::string SerializeRunConfig(const RunConfig& config) {
  const StrategyOptions& s = config.strategy;
  const ThreadedRunOptions& r = config.run;
  std::ostringstream out;
  out << "prconfig 1\n";

  out << "strategy.kind " << StrategyKindToken(s.kind) << "\n";
  out << "strategy.group_size " << s.group_size << "\n";
  out << "strategy.backup_workers " << s.backup_workers << "\n";
  out << "strategy.er_quorum " << s.er_quorum << "\n";
  out << "strategy.frozen_avoidance " << (s.frozen_avoidance ? 1 : 0) << "\n";
  out << "strategy.history_window " << s.history_window << "\n";
  out << "strategy.record_sync_matrices " << (s.record_sync_matrices ? 1 : 0)
      << "\n";
  out << "strategy.average_momentum " << (s.average_momentum ? 1 : 0) << "\n";
  out << "strategy.compression " << CompressionKindName(s.compression)
      << "\n";
  out << "strategy.dynamic.alpha " << Num(s.dynamic.alpha) << "\n";
  out << "strategy.dynamic.staleness_tolerance "
      << s.dynamic.staleness_tolerance << "\n";
  out << "strategy.dynamic.missing_slot "
      << MissingSlotToken(s.dynamic.missing_slot_policy) << "\n";
  out << "strategy.hierarchy.enabled " << (s.hierarchy.enabled ? 1 : 0)
      << "\n";
  out << "strategy.hierarchy.cross_period " << s.hierarchy.cross_period
      << "\n";
  out << "strategy.group_cost_budget " << Num(s.group_cost_budget) << "\n";
  out << "strategy.scale_policy.kind " << ScalePolicyKindName(s.scale_policy.kind)
      << "\n";
  out << "strategy.scale_policy.interval_seconds "
      << Num(s.scale_policy.interval_seconds) << "\n";
  out << "strategy.scale_policy.idle_high " << Num(s.scale_policy.idle_high)
      << "\n";
  out << "strategy.scale_policy.idle_low " << Num(s.scale_policy.idle_low)
      << "\n";
  out << "strategy.scale_policy.min_workers " << s.scale_policy.min_workers
      << "\n";
  out << "strategy.scale_policy.max_workers " << s.scale_policy.max_workers
      << "\n";
  out << "strategy.scale_policy.trend_window " << s.scale_policy.trend_window
      << "\n";
  out << "strategy.scale_policy.min_group_size "
      << s.scale_policy.min_group_size << "\n";
  out << "strategy.scale_policy.liveness_floor "
      << s.scale_policy.liveness_floor << "\n";
  out << "strategy.scale_policy.partition_ckpt_seconds "
      << Num(s.scale_policy.partition_ckpt_seconds) << "\n";

  out << "run.num_workers " << r.num_workers << "\n";
  out << "run.iterations_per_worker " << r.iterations_per_worker << "\n";
  out << "run.batch_size " << r.batch_size << "\n";
  out << "run.seed " << r.seed << "\n";
  out << "run.record_timeline " << (r.record_timeline ? 1 : 0) << "\n";
  out << "run.trace_capacity " << r.trace_capacity << "\n";
  out << "run.sgd.learning_rate " << Num(r.sgd.learning_rate) << "\n";
  out << "run.sgd.momentum " << Num(r.sgd.momentum) << "\n";
  out << "run.sgd.weight_decay " << Num(r.sgd.weight_decay) << "\n";

  out << "run.model.kind "
      << (r.model.kind == ProxyModelSpec::Kind::kConvNet ? "conv" : "mlp")
      << "\n";
  for (size_t width : r.model.hidden) out << "run.model.hidden " << width << "\n";
  out << "run.model.conv_filters " << r.model.conv_filters << "\n";

  out << "run.dataset.num_train " << r.dataset.num_train << "\n";
  out << "run.dataset.num_test " << r.dataset.num_test << "\n";
  out << "run.dataset.dim " << r.dataset.dim << "\n";
  out << "run.dataset.num_classes " << r.dataset.num_classes << "\n";
  out << "run.dataset.modes_per_class " << r.dataset.modes_per_class << "\n";
  out << "run.dataset.separation " << Num(r.dataset.separation) << "\n";
  out << "run.dataset.noise " << Num(r.dataset.noise) << "\n";
  out << "run.dataset.label_noise " << Num(r.dataset.label_noise) << "\n";
  out << "run.dataset.dirichlet_alpha " << Num(r.dataset.dirichlet_alpha)
      << "\n";
  out << "run.dataset.seed " << r.dataset.seed << "\n";

  for (double d : r.worker_delay_seconds) out << "run.delay " << Num(d) << "\n";
  for (const ChurnEvent& e : r.churn) {
    out << "run.churn " << e.worker << " " << e.after_iterations << " "
        << Num(e.pause_seconds) << "\n";
  }

  if (!r.ckpt.dir.empty()) out << "run.ckpt.dir " << r.ckpt.dir << "\n";
  out << "run.ckpt.every_iterations " << r.ckpt.every_iterations << "\n";

  // Flat (default) topologies emit nothing: a pre-topology config and a flat
  // config are byte-identical.
  if (!r.topology.flat()) {
    out << "topology.inter_cost " << Num(r.topology.inter_cost()) << "\n";
    out << "topology.inter_latency_factor "
        << Num(r.topology.inter_latency_factor()) << "\n";
    for (const std::vector<int>& node : r.topology.nodes()) {
      out << "topology.node";
      for (int w : node) out << " " << w;
      out << "\n";
    }
  }

  const FaultPlan& f = r.fault;
  out << "fault.seed " << f.seed << "\n";
  out << "fault.force_fault_tolerant " << (f.force_fault_tolerant ? 1 : 0)
      << "\n";
  out << "fault.default_edge " << Num(f.default_edge.drop_prob) << " "
      << Num(f.default_edge.dup_prob) << " " << Num(f.default_edge.delay_prob)
      << " " << Num(f.default_edge.delay_seconds) << "\n";
  for (const auto& [edge, spec] : f.edges) {
    out << "fault.edge " << edge.first << " " << edge.second << " "
        << Num(spec.drop_prob) << " " << Num(spec.dup_prob) << " "
        << Num(spec.delay_prob) << " " << Num(spec.delay_seconds) << "\n";
  }
  for (const auto& [edge, delay] : f.link_delay_seconds) {
    out << "fault.link_delay " << edge.first << " " << edge.second << " "
        << Num(delay) << "\n";
  }
  for (const WorkerFaultEvent& e : f.worker_events) {
    out << "fault.worker_event " << e.worker << " " << WorkerFaultToken(e.kind)
        << " " << e.after_iterations << " " << (e.in_group ? 1 : 0) << " "
        << Num(e.hang_seconds) << " " << Num(e.slowdown_factor) << " "
        << e.slowdown_iterations << "\n";
  }
  for (const ControllerFaultEvent& e : f.controller_events) {
    out << "fault.controller_event " << e.after_groups << " "
        << Num(e.down_seconds) << " " << (e.restart ? 1 : 0) << "\n";
  }
  out << "fault.lease_seconds " << Num(f.lease_seconds) << "\n";
  out << "fault.missed_threshold " << f.missed_threshold << "\n";
  out << "fault.recv_timeout_seconds " << Num(f.recv_timeout_seconds) << "\n";
  out << "fault.stuck_report_ticks " << f.stuck_report_ticks << "\n";
  out << "fault.resend_ready_ticks " << f.resend_ready_ticks << "\n";
  out << "fault.stuck_abort_reports " << f.stuck_abort_reports << "\n";
  out << "fault.max_verdict_wait_seconds " << Num(f.max_verdict_wait_seconds)
      << "\n";
  out << "fault.max_reduce_stall_seconds " << Num(f.max_reduce_stall_seconds)
      << "\n";
  out << "fault.reregister_backoff_seconds "
      << Num(f.reregister_backoff_seconds) << "\n";
  out << "fault.reregister_backoff_max_seconds "
      << Num(f.reregister_backoff_max_seconds) << "\n";
  out << "fault.reregister_window_seconds "
      << Num(f.reregister_window_seconds) << "\n";
  out << "fault.max_controller_outage_seconds "
      << Num(f.max_controller_outage_seconds) << "\n";
  out << "fault.reregister_report_groups " << f.reregister_report_groups
      << "\n";

  // Chaos scenario: the header fields always serialize (defaults round-trip
  // like every other scalar); events are a repeated list key mirroring the
  // standalone `prtrace 1` dialect's event grammar.
  out << "scenario.name " << r.scenario.name << "\n";
  out << "scenario.seed " << r.scenario.seed << "\n";
  out << "scenario.expected_iteration_seconds "
      << Num(r.scenario.expected_iteration_seconds) << "\n";
  for (const ScenarioEvent& e : r.scenario.events) {
    out << "scenario.event " << ScenarioEventKindName(e.kind) << " "
        << Num(e.time) << " " << e.worker << " " << e.node << " "
        << Num(e.duration) << " " << Num(e.factor) << "\n";
  }
  return out.str();
}

Status ParseRunConfig(const std::string& text, RunConfig* out) {
  RunConfig config;
  // List-valued fields replace (not append to) the defaults; the first
  // occurrence of each clears the default value.
  bool saw_hidden = false;
  bool saw_delay = false;
  bool saw_churn = false;
  // Node rows accumulate here and are validated as one placement after the
  // last line, so row-level mistakes (duplicate worker, empty node) surface
  // no matter how the rows are ordered.
  std::vector<std::vector<int>> topo_nodes;

  std::istringstream lines(text);
  std::string line;
  int line_no = 0;
  bool saw_header = false;
  while (std::getline(lines, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream values(line);
    std::string key;
    values >> key;
    if (key.empty()) continue;
    LineParser p(line_no, key, &values);

    if (!saw_header) {
      uint64_t version = 0;
      if (key != "prconfig" || !p.TakeUInt(&version).ok() || version != 1) {
        return Status::InvalidArgument(
            "config does not start with a 'prconfig 1' header");
      }
      saw_header = true;
      continue;
    }

    StrategyOptions& s = config.strategy;
    ThreadedRunOptions& r = config.run;
    FaultPlan& f = r.fault;
    int64_t i64 = 0;
    uint64_t u64 = 0;
    std::string token;

    if (key == "strategy.kind") {
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ParseStrategyKind(token, &s.kind)) return p.Bad(token);
    } else if (key == "strategy.group_size") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.group_size = static_cast<int>(i64);
    } else if (key == "strategy.backup_workers") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.backup_workers = static_cast<int>(i64);
    } else if (key == "strategy.er_quorum") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.er_quorum = static_cast<int>(i64);
    } else if (key == "strategy.frozen_avoidance") {
      PR_RETURN_NOT_OK(p.TakeBool(&s.frozen_avoidance));
    } else if (key == "strategy.history_window") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      s.history_window = u64;
    } else if (key == "strategy.record_sync_matrices") {
      PR_RETURN_NOT_OK(p.TakeBool(&s.record_sync_matrices));
    } else if (key == "strategy.average_momentum") {
      PR_RETURN_NOT_OK(p.TakeBool(&s.average_momentum));
    } else if (key == "strategy.compression") {
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ParseCompressionKind(token, &s.compression)) return p.Bad(token);
    } else if (key == "strategy.dynamic.alpha") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.dynamic.alpha));
    } else if (key == "strategy.dynamic.staleness_tolerance") {
      PR_RETURN_NOT_OK(p.TakeInt(&s.dynamic.staleness_tolerance));
    } else if (key == "strategy.dynamic.missing_slot") {
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ParseMissingSlot(token, &s.dynamic.missing_slot_policy)) {
        return p.Bad(token);
      }
    } else if (key == "strategy.hierarchy.enabled") {
      PR_RETURN_NOT_OK(p.TakeBool(&s.hierarchy.enabled));
    } else if (key == "strategy.hierarchy.cross_period") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.hierarchy.cross_period = static_cast<int>(i64);
    } else if (key == "strategy.group_cost_budget") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.group_cost_budget));
    } else if (key == "topology.inter_cost") {
      double v = 0.0;
      PR_RETURN_NOT_OK(p.TakeDouble(&v));
      if (v <= 0.0) return p.Bad(Num(v));
      r.topology.set_inter_cost(v);
    } else if (key == "topology.inter_latency_factor") {
      double v = 0.0;
      PR_RETURN_NOT_OK(p.TakeDouble(&v));
      if (v <= 0.0) return p.Bad(Num(v));
      r.topology.set_inter_latency_factor(v);
    } else if (key == "topology.node") {
      std::vector<int> node;
      while (values >> token) {
        char* end = nullptr;
        const long long w = std::strtoll(token.c_str(), &end, 10);
        if (end == token.c_str() || *end != '\0') return p.Bad(token);
        node.push_back(static_cast<int>(w));
      }
      topo_nodes.push_back(std::move(node));
    } else if (key == "run.num_workers") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      r.num_workers = static_cast<int>(i64);
    } else if (key == "run.iterations_per_worker") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.iterations_per_worker = u64;
    } else if (key == "run.batch_size") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.batch_size = u64;
    } else if (key == "run.seed") {
      PR_RETURN_NOT_OK(p.TakeUInt(&r.seed));
    } else if (key == "run.record_timeline") {
      PR_RETURN_NOT_OK(p.TakeBool(&r.record_timeline));
    } else if (key == "run.trace_capacity") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.trace_capacity = u64;
    } else if (key == "run.sgd.learning_rate") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.sgd.learning_rate));
    } else if (key == "run.sgd.momentum") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.sgd.momentum));
    } else if (key == "run.sgd.weight_decay") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.sgd.weight_decay));
    } else if (key == "run.model.kind") {
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (token == "mlp") {
        r.model.kind = ProxyModelSpec::Kind::kMlp;
      } else if (token == "conv") {
        r.model.kind = ProxyModelSpec::Kind::kConvNet;
      } else {
        return p.Bad(token);
      }
    } else if (key == "run.model.hidden") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      if (!saw_hidden) r.model.hidden.clear();
      saw_hidden = true;
      r.model.hidden.push_back(u64);
    } else if (key == "run.model.conv_filters") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.model.conv_filters = u64;
    } else if (key == "run.dataset.num_train") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.dataset.num_train = u64;
    } else if (key == "run.dataset.num_test") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.dataset.num_test = u64;
    } else if (key == "run.dataset.dim") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.dataset.dim = u64;
    } else if (key == "run.dataset.num_classes") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      r.dataset.num_classes = static_cast<int>(i64);
    } else if (key == "run.dataset.modes_per_class") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      r.dataset.modes_per_class = static_cast<int>(i64);
    } else if (key == "run.dataset.separation") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.dataset.separation));
    } else if (key == "run.dataset.noise") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.dataset.noise));
    } else if (key == "run.dataset.label_noise") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.dataset.label_noise));
    } else if (key == "run.dataset.dirichlet_alpha") {
      PR_RETURN_NOT_OK(p.TakeDouble(&r.dataset.dirichlet_alpha));
    } else if (key == "run.dataset.seed") {
      PR_RETURN_NOT_OK(p.TakeUInt(&r.dataset.seed));
    } else if (key == "run.delay") {
      double d = 0.0;
      PR_RETURN_NOT_OK(p.TakeDouble(&d));
      if (!saw_delay) r.worker_delay_seconds.clear();
      saw_delay = true;
      r.worker_delay_seconds.push_back(d);
    } else if (key == "run.churn") {
      ChurnEvent e;
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.worker = static_cast<int>(i64);
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      e.after_iterations = u64;
      PR_RETURN_NOT_OK(p.TakeDouble(&e.pause_seconds));
      if (!saw_churn) r.churn.clear();
      saw_churn = true;
      r.churn.push_back(e);
    } else if (key == "run.ckpt.dir") {
      r.ckpt.dir = p.Rest();
      if (r.ckpt.dir.empty()) return p.Missing();
    } else if (key == "run.ckpt.every_iterations") {
      PR_RETURN_NOT_OK(p.TakeUInt(&u64));
      r.ckpt.every_iterations = u64;
    } else if (key == "fault.seed") {
      PR_RETURN_NOT_OK(p.TakeUInt(&f.seed));
    } else if (key == "fault.force_fault_tolerant") {
      PR_RETURN_NOT_OK(p.TakeBool(&f.force_fault_tolerant));
    } else if (key == "fault.default_edge") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.default_edge.drop_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&f.default_edge.dup_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&f.default_edge.delay_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&f.default_edge.delay_seconds));
    } else if (key == "fault.edge") {
      int64_t from = 0, to = 0;
      EdgeFaultSpec spec;
      PR_RETURN_NOT_OK(p.TakeInt(&from));
      PR_RETURN_NOT_OK(p.TakeInt(&to));
      PR_RETURN_NOT_OK(p.TakeDouble(&spec.drop_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&spec.dup_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&spec.delay_prob));
      PR_RETURN_NOT_OK(p.TakeDouble(&spec.delay_seconds));
      f.edges[{static_cast<int>(from), static_cast<int>(to)}] = spec;
    } else if (key == "fault.link_delay") {
      int64_t from = 0, to = 0;
      double seconds = 0.0;
      PR_RETURN_NOT_OK(p.TakeInt(&from));
      PR_RETURN_NOT_OK(p.TakeInt(&to));
      PR_RETURN_NOT_OK(p.TakeDouble(&seconds));
      if (seconds < 0.0) return p.Bad(Num(seconds));
      f.link_delay_seconds[{static_cast<int>(from), static_cast<int>(to)}] =
          seconds;
    } else if (key == "fault.worker_event") {
      WorkerFaultEvent e;
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.worker = static_cast<int>(i64);
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ParseWorkerFault(token, &e.kind)) return p.Bad(token);
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.after_iterations = static_cast<int>(i64);
      PR_RETURN_NOT_OK(p.TakeBool(&e.in_group));
      PR_RETURN_NOT_OK(p.TakeDouble(&e.hang_seconds));
      PR_RETURN_NOT_OK(p.TakeDouble(&e.slowdown_factor));
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.slowdown_iterations = static_cast<int>(i64);
      f.worker_events.push_back(e);
    } else if (key == "fault.controller_event") {
      ControllerFaultEvent e;
      PR_RETURN_NOT_OK(p.TakeUInt(&e.after_groups));
      PR_RETURN_NOT_OK(p.TakeDouble(&e.down_seconds));
      PR_RETURN_NOT_OK(p.TakeBool(&e.restart));
      f.controller_events.push_back(e);
    } else if (key == "fault.lease_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.lease_seconds));
    } else if (key == "fault.missed_threshold") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      f.missed_threshold = static_cast<int>(i64);
    } else if (key == "fault.recv_timeout_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.recv_timeout_seconds));
    } else if (key == "fault.stuck_report_ticks") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      f.stuck_report_ticks = static_cast<int>(i64);
    } else if (key == "fault.resend_ready_ticks") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      f.resend_ready_ticks = static_cast<int>(i64);
    } else if (key == "fault.stuck_abort_reports") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      f.stuck_abort_reports = static_cast<int>(i64);
    } else if (key == "fault.max_verdict_wait_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.max_verdict_wait_seconds));
    } else if (key == "fault.max_reduce_stall_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.max_reduce_stall_seconds));
    } else if (key == "fault.reregister_backoff_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.reregister_backoff_seconds));
    } else if (key == "fault.reregister_backoff_max_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.reregister_backoff_max_seconds));
    } else if (key == "fault.reregister_window_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.reregister_window_seconds));
    } else if (key == "fault.max_controller_outage_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&f.max_controller_outage_seconds));
    } else if (key == "fault.reregister_report_groups") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      f.reregister_report_groups = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.kind") {
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ScalePolicyKindFromName(token, &s.scale_policy.kind)) {
        return p.Bad(token);
      }
    } else if (key == "strategy.scale_policy.interval_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.scale_policy.interval_seconds));
    } else if (key == "strategy.scale_policy.idle_high") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.scale_policy.idle_high));
    } else if (key == "strategy.scale_policy.idle_low") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.scale_policy.idle_low));
    } else if (key == "strategy.scale_policy.min_workers") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.scale_policy.min_workers = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.max_workers") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.scale_policy.max_workers = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.trend_window") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.scale_policy.trend_window = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.min_group_size") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.scale_policy.min_group_size = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.liveness_floor") {
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      s.scale_policy.liveness_floor = static_cast<int>(i64);
    } else if (key == "strategy.scale_policy.partition_ckpt_seconds") {
      PR_RETURN_NOT_OK(p.TakeDouble(&s.scale_policy.partition_ckpt_seconds));
    } else if (key == "scenario.name") {
      r.scenario.name = p.Rest();
      if (r.scenario.name.empty()) return p.Missing();
    } else if (key == "scenario.seed") {
      PR_RETURN_NOT_OK(p.TakeUInt(&r.scenario.seed));
    } else if (key == "scenario.expected_iteration_seconds") {
      double v = 0.0;
      PR_RETURN_NOT_OK(p.TakeDouble(&v));
      if (!(v > 0.0)) return p.Bad(Num(v));
      r.scenario.expected_iteration_seconds = v;
    } else if (key == "scenario.event") {
      ScenarioEvent e;
      PR_RETURN_NOT_OK(p.TakeString(&token));
      if (!ScenarioEventKindFromName(token, &e.kind)) return p.Bad(token);
      PR_RETURN_NOT_OK(p.TakeDouble(&e.time));
      if (!(e.time >= 0.0)) return p.Bad(Num(e.time));
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.worker = static_cast<int>(i64);
      PR_RETURN_NOT_OK(p.TakeInt(&i64));
      e.node = static_cast<int>(i64);
      PR_RETURN_NOT_OK(p.TakeDouble(&e.duration));
      if (e.duration < 0.0) return p.Bad(Num(e.duration));
      PR_RETURN_NOT_OK(p.TakeDouble(&e.factor));
      r.scenario.events.push_back(e);
    } else {
      return Status::InvalidArgument("config line " + std::to_string(line_no) +
                                     ": unknown key '" + key + "'");
    }
  }
  if (!saw_header) {
    return Status::InvalidArgument("config is empty (no 'prconfig 1' header)");
  }
  if (!topo_nodes.empty()) {
    PR_RETURN_NOT_OK(Topology::FromNodes(topo_nodes, &config.run.topology));
  }
  *out = std::move(config);
  return Status::OK();
}

Status SaveRunConfig(const std::string& path, const RunConfig& config) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out << SerializeRunConfig(config);
    out.flush();
    if (!out) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

Status LoadRunConfig(const std::string& path, RunConfig* out) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("config file " + path + " not readable");
  std::ostringstream text;
  text << in.rdbuf();
  return ParseRunConfig(text.str(), out);
}

namespace {

// Keys the text dialect may emit more than once; their JSON members are
// always arrays (one element per line).
bool IsListKey(std::string_view key) {
  return key == "run.model.hidden" || key == "run.delay" ||
         key == "run.churn" || key == "topology.node" ||
         key == "fault.edge" || key == "fault.link_delay" ||
         key == "fault.worker_event" || key == "fault.controller_event" ||
         key == "scenario.event";
}

// Whether the token at `index` on a `key` line is a string in the text
// dialect (everything else is numeric).
bool IsStringToken(std::string_view key, size_t index) {
  if (key == "strategy.kind" || key == "strategy.compression" ||
      key == "strategy.dynamic.missing_slot" || key == "run.model.kind" ||
      key == "strategy.scale_policy.kind" || key == "scenario.name" ||
      key == "scenario.event") {
    return index == 0;
  }
  if (key == "fault.worker_event") return index == 1;
  return false;
}

JsonValue TokenToJson(std::string_view key, size_t index,
                      const std::string& token) {
  if (IsStringToken(key, index)) return JsonValue::MakeString(token);
  char* end = nullptr;
  double value = std::strtod(token.c_str(), &end);
  // SerializeRunConfig only emits numeric tokens here; a parse failure would
  // mean the two dialects drifted, which the round-trip test catches.
  if (end == token.c_str() || *end != '\0') {
    return JsonValue::MakeString(token);
  }
  return JsonValue::MakeNumber(value);
}

// Renders a JSON scalar back into a text-dialect token. Integral doubles
// print without an exponent or trailing zeros so TakeInt/TakeUInt accept
// them; everything else uses the same %.17g as SerializeRunConfig.
Status JsonScalarToToken(const std::string& key, const JsonValue& value,
                         std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kString: {
      const std::string& s = value.string_value();
      if (key != "run.ckpt.dir" && key != "scenario.name" &&
          s.find_first_of(" \t\n\r") != std::string::npos) {
        return Status::InvalidArgument("json config key '" + key +
                                       "': string value contains whitespace");
      }
      if (s.find('\n') != std::string::npos ||
          s.find('\r') != std::string::npos) {
        return Status::InvalidArgument("json config key '" + key +
                                       "': string value contains a newline");
      }
      *out = s;
      return Status::OK();
    }
    case JsonValue::Kind::kNumber: {
      double v = value.number_value();
      char buf[64];
      if (std::isfinite(v) && v == std::floor(v) && std::fabs(v) < 9.0e18) {
        std::snprintf(buf, sizeof(buf), "%lld",
                      static_cast<long long>(v));  // NOLINT(runtime/int)
      } else {
        std::snprintf(buf, sizeof(buf), "%.17g", v);
      }
      *out = buf;
      return Status::OK();
    }
    case JsonValue::Kind::kBool:
      *out = value.bool_value() ? "1" : "0";
      return Status::OK();
    default:
      return Status::InvalidArgument("json config key '" + key +
                                     "': value must be a scalar");
  }
}

// One text line for `key` from a scalar or an array-of-scalars.
Status JsonLineToText(const std::string& key, const JsonValue& value,
                      std::ostringstream* out) {
  *out << key;
  if (value.is_array()) {
    for (const JsonValue& item : value.items()) {
      std::string token;
      PR_RETURN_NOT_OK(JsonScalarToToken(key, item, &token));
      *out << ' ' << token;
    }
  } else {
    std::string token;
    PR_RETURN_NOT_OK(JsonScalarToToken(key, value, &token));
    *out << ' ' << token;
  }
  *out << '\n';
  return Status::OK();
}

}  // namespace

std::string RunConfigToJson(const RunConfig& config) {
  // Re-encode the text dialect line by line so the two forms cannot drift:
  // the set of keys, their order, and their token grammar all come from
  // SerializeRunConfig itself.
  const std::string text = SerializeRunConfig(config);
  JsonValue root = JsonValue::MakeObject();
  root.Set("prconfig", JsonValue::MakeNumber(1));

  std::istringstream lines(text);
  std::string line;
  bool saw_header = false;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (!saw_header) {
      saw_header = true;  // "prconfig 1"
      continue;
    }
    std::istringstream values(line);
    std::string key;
    values >> key;
    if (key.empty()) continue;

    JsonValue entry;
    if (key == "run.ckpt.dir" || key == "scenario.name") {
      std::string rest;
      std::getline(values, rest);
      size_t start = rest.find_first_not_of(" \t");
      entry = JsonValue::MakeString(
          start == std::string::npos ? std::string() : rest.substr(start));
    } else {
      std::vector<JsonValue> tokens;
      std::string token;
      while (values >> token) {
        tokens.push_back(TokenToJson(key, tokens.size(), token));
      }
      if (tokens.size() == 1 && !IsListKey(key)) {
        entry = std::move(tokens[0]);
      } else {
        entry = JsonValue::MakeArray(std::move(tokens));
      }
    }

    if (IsListKey(key)) {
      JsonValue* list = nullptr;
      for (auto& member : root.mutable_members()) {
        if (member.first == key) {
          list = &member.second;
          break;
        }
      }
      if (list == nullptr) {
        root.Set(key, JsonValue::MakeArray());
        list = &root.mutable_members().back().second;
      }
      list->Append(std::move(entry));
    } else {
      root.Set(key, std::move(entry));
    }
  }
  return root.Dump();
}

Status RunConfigFromJson(const std::string& json, RunConfig* out) {
  JsonValue root;
  PR_RETURN_NOT_OK(ParseJson(json, &root));
  if (!root.is_object()) {
    return Status::InvalidArgument("json config must be an object");
  }
  const JsonValue* version = root.Find("prconfig");
  if (version == nullptr || !version->is_number() ||
      version->number_value() != 1) {
    return Status::InvalidArgument(
        "json config is missing '\"prconfig\": 1'");
  }

  // Rebuild the text form and delegate to the strict text parser, so unknown
  // keys and malformed values fail with the same diagnostics either way.
  std::ostringstream text;
  text << "prconfig 1\n";
  for (const auto& [key, value] : root.members()) {
    if (key == "prconfig") continue;
    if (IsListKey(key)) {
      if (!value.is_array()) {
        return Status::InvalidArgument("json config key '" + key +
                                       "' must be an array of entries");
      }
      for (const JsonValue& entry : value.items()) {
        PR_RETURN_NOT_OK(JsonLineToText(key, entry, &text));
      }
    } else {
      PR_RETURN_NOT_OK(JsonLineToText(key, value, &text));
    }
  }
  return ParseRunConfig(text.str(), out);
}

}  // namespace pr
