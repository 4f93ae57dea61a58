#include "spans.h"

#include <fstream>

namespace perfbench {

std::uint64_t SpanRecorder::now_ns() const {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - origin_)
          .count());
}

SpanId SpanRecorder::open(std::string name, SpanId parent) {
  if (!enabled_) return kNoSpan;
  spans_.push_back({std::move(name), now_ns(), 0, parent});
  return static_cast<SpanId>(spans_.size() - 1);
}

void SpanRecorder::close(SpanId id) {
  if (id == kNoSpan) return;
  spans_[id].end_ns = now_ns();
}

std::map<std::string, double> SpanRecorder::totals_ms() const {
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    out[s.name] += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return out;
}

double SpanRecorder::total_ms(const std::string& name) const {
  double ms = 0;
  for (const SpanRecord& s : spans_) {
    if (s.name == name) ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
  }
  return ms;
}

bool SpanRecorder::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":";
    if (s.parent == kNoSpan) {
      out << "null";
    } else {
      out << s.parent;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
