#include "launch/report_io.h"

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

namespace pr {
namespace {

// The replica travels as the host's own float bytes, which are the format's
// little-endian binary32 only on a little-endian host.
static_assert(std::endian::native == std::endian::little,
              "prreport 2 stores the replica as little-endian binary32");

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

Status BadLine(int line_no, const std::string& what) {
  return Status::InvalidArgument("report line " + std::to_string(line_no) +
                                 ": " + what);
}

}  // namespace

std::string SerializeProcessReport(const ProcessReport& report) {
  std::ostringstream out;
  out << "prreport 2\n";
  out << "node " << report.node << "\n";
  out << "role " << report.role << "\n";
  out << "strategy " << report.strategy << "\n";
  out << "wall_seconds " << Num(report.wall_seconds) << "\n";
  out << "group_reduces " << report.group_reduces << "\n";
  for (size_t w = 0; w < report.worker_iterations.size(); ++w) {
    if (report.worker_iterations[w] == 0) continue;
    out << "iterations " << w << " " << report.worker_iterations[w] << "\n";
  }
  out << "num_workers " << report.worker_iterations.size() << "\n";
  for (size_t w = 0; w < report.worker_finish_seconds.size(); ++w) {
    if (report.worker_finish_seconds[w] == 0.0) continue;
    out << "finish " << w << " " << Num(report.worker_finish_seconds[w])
        << "\n";
  }
  out << "replica " << report.replica.size() << "\n";
  out.write(reinterpret_cast<const char*>(report.replica.data()),
            static_cast<std::streamsize>(report.replica.size() *
                                         sizeof(float)));
  for (const auto& [name, value] : report.metrics.counters) {
    out << "counter " << name << " " << Num(value) << "\n";
  }
  for (const auto& [name, value] : report.metrics.gauges) {
    out << "gauge " << name << " " << Num(value) << "\n";
  }
  for (const auto& [name, h] : report.metrics.histograms) {
    out << "hist " << name << " " << h.upper_bounds.size();
    for (double b : h.upper_bounds) out << " " << Num(b);
    for (uint64_t c : h.counts) out << " " << c;
    out << " " << h.total_count << " " << Num(h.sum) << "\n";
  }
  out << "end\n";
  return out.str();
}

Status ParseProcessReport(const std::string& text, ProcessReport* out) {
  ProcessReport report;
  size_t pos = 0;  // start of the next line in `text`
  int line_no = 0;
  bool saw_header = false;
  bool saw_end = false;
  size_t num_workers = 0;
  // Sparse per-worker entries arrive before the num_workers line is
  // guaranteed to have been seen, so stage them and resize at the end.
  std::vector<std::pair<size_t, size_t>> iteration_entries;
  std::vector<std::pair<size_t, double>> finish_entries;

  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string line = text.substr(pos, eol - pos);
    pos = std::min(eol + 1, text.size());
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    if (saw_end) return BadLine(line_no, "content after 'end' sentinel");
    std::istringstream values(line);
    std::string key;
    values >> key;
    if (key.empty()) continue;

    if (!saw_header) {
      int version = 0;
      if (key != "prreport" || !(values >> version) || version != 2) {
        return Status::InvalidArgument(
            "report does not start with a 'prreport 2' header");
      }
      saw_header = true;
      continue;
    }

    if (key == "node") {
      if (!(values >> report.node)) return BadLine(line_no, "bad node");
    } else if (key == "role") {
      if (!(values >> report.role)) return BadLine(line_no, "bad role");
    } else if (key == "strategy") {
      if (!(values >> report.strategy)) {
        return BadLine(line_no, "bad strategy");
      }
    } else if (key == "wall_seconds") {
      if (!(values >> report.wall_seconds)) {
        return BadLine(line_no, "bad wall_seconds");
      }
    } else if (key == "group_reduces") {
      if (!(values >> report.group_reduces)) {
        return BadLine(line_no, "bad group_reduces");
      }
    } else if (key == "num_workers") {
      if (!(values >> num_workers)) return BadLine(line_no, "bad num_workers");
    } else if (key == "iterations") {
      size_t w = 0, n = 0;
      if (!(values >> w >> n)) return BadLine(line_no, "bad iterations");
      iteration_entries.emplace_back(w, n);
    } else if (key == "finish") {
      size_t w = 0;
      double t = 0.0;
      if (!(values >> w >> t)) return BadLine(line_no, "bad finish");
      finish_entries.emplace_back(w, t);
    } else if (key == "replica") {
      // The n values follow the line as raw bytes; check they are all there
      // before allocating anything for them.
      size_t n = 0;
      if (!(values >> n)) return BadLine(line_no, "bad replica length");
      if (n > (text.size() - pos) / sizeof(float)) {
        return BadLine(line_no, "replica of " + std::to_string(n) +
                                    " values runs past the end of the report");
      }
      report.replica.resize(n);
      if (n > 0) {
        std::memcpy(report.replica.data(), text.data() + pos,
                    n * sizeof(float));
      }
      pos += n * sizeof(float);
    } else if (key == "counter") {
      std::string name;
      double value = 0.0;
      if (!(values >> name >> value)) return BadLine(line_no, "bad counter");
      report.metrics.counters[name] = value;
    } else if (key == "gauge") {
      std::string name;
      double value = 0.0;
      if (!(values >> name >> value)) return BadLine(line_no, "bad gauge");
      report.metrics.gauges[name] = value;
    } else if (key == "hist") {
      std::string name;
      size_t num_bounds = 0;
      if (!(values >> name >> num_bounds)) {
        return BadLine(line_no, "bad histogram");
      }
      // Every bound and count takes at least two characters of the line.
      if (num_bounds > line.size() / 4) {
        return BadLine(line_no, "histogram bounds exceed the line");
      }
      HistogramSnapshot h;
      h.upper_bounds.resize(num_bounds);
      for (double& b : h.upper_bounds) {
        if (!(values >> b)) return BadLine(line_no, "histogram bounds cut");
      }
      h.counts.resize(num_bounds + 1);
      for (uint64_t& c : h.counts) {
        if (!(values >> c)) return BadLine(line_no, "histogram counts cut");
      }
      if (!(values >> h.total_count >> h.sum)) {
        return BadLine(line_no, "histogram tail cut");
      }
      report.metrics.histograms[name] = h;
    } else if (key == "end") {
      saw_end = true;
    } else {
      return BadLine(line_no, "unknown key '" + key + "'");
    }
  }
  if (!saw_header) return Status::InvalidArgument("report has no header");
  if (!saw_end) {
    return Status::InvalidArgument(
        "report has no 'end' sentinel (writer died mid-report?)");
  }
  report.worker_iterations.assign(num_workers, 0);
  report.worker_finish_seconds.assign(num_workers, 0.0);
  for (const auto& [w, n] : iteration_entries) {
    if (w >= num_workers) return Status::InvalidArgument("iterations index");
    report.worker_iterations[w] = n;
  }
  for (const auto& [w, t] : finish_entries) {
    if (w >= num_workers) return Status::InvalidArgument("finish index");
    report.worker_finish_seconds[w] = t;
  }
  *out = std::move(report);
  return Status::OK();
}

Status SaveProcessReport(const std::string& path,
                         const ProcessReport& report) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return Status::Internal("cannot open " + tmp + " for writing");
    out << SerializeProcessReport(report);
    out.flush();
    if (!out) return Status::Internal("short write to " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    return Status::Internal("rename " + tmp + " -> " + path + " failed");
  }
  return Status::OK();
}

Status LoadProcessReport(const std::string& path, ProcessReport* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::NotFound("report file " + path + " not readable");
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::Internal("cannot size " + path);
  std::string text(static_cast<size_t>(size), '\0');
  in.seekg(0);
  if (!in.read(text.data(), static_cast<std::streamsize>(text.size()))) {
    return Status::Internal("short read from " + path);
  }
  return ParseProcessReport(text, out);
}

}  // namespace pr
