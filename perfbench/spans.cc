#include "spans.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

int SpanRecorder::Begin(const std::string& name, int parent, int track) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, name, track, now, now});
  return id;
}

void SpanRecorder::End(int id) {
  const double now = Now();
  std::lock_guard<std::mutex> lock(mu_);
  spans_.at(static_cast<size_t>(id)).end_s = now;
}

int SpanRecorder::Add(const std::string& name, int parent, int track,
                      double start_s, double end_s) {
  std::lock_guard<std::mutex> lock(mu_);
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, parent, name, track, start_s, end_s});
  return id;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

std::map<std::string, double> SpanRecorder::SelfSecondsByLayer() const {
  const std::vector<Span> all = spans();
  std::vector<std::vector<std::pair<double, double>>> children(all.size());
  for (const Span& s : all) {
    if (s.parent >= 0) {
      children[static_cast<size_t>(s.parent)].push_back({s.start_s, s.end_s});
    }
  }
  std::map<std::string, double> self;
  for (const Span& s : all) {
    // Children may overlap (one per worker track), so subtract the union
    // of their intervals clipped to the parent, not their sum.
    auto& kids = children[static_cast<size_t>(s.id)];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_begin = 0.0;
    double run_end = -1.0;
    for (auto [b, e] : kids) {
      b = std::max(b, s.start_s);
      e = std::min(e, s.end_s);
      if (e <= b) continue;
      if (b > run_end) {
        if (run_end > run_begin) covered += run_end - run_begin;
        run_begin = b;
        run_end = e;
      } else {
        run_end = std::max(run_end, e);
      }
    }
    if (run_end > run_begin) covered += run_end - run_begin;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    self[layer] += std::max(0.0, (s.end_s - s.start_s) - covered);
  }
  return self;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<Span> all = spans();
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                  "\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%d,\"parent\":%d}}",
                  i == 0 ? "" : ",", s.name.c_str(),
                  s.name.substr(0, s.name.find('.')).c_str(), s.track,
                  s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, s.id,
                  s.parent);
    out << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
