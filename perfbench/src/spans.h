// In-memory span recorder for the traced run.
//
// Spans are recorded only around the public library calls the benchmark
// itself makes (no tracing inside the simulator).  Each span keeps its
// name, start and end (ns on the steady clock, relative to the recorder's
// creation) and the index of the span that caused it.  Nothing is written
// until the run ends (write_jsonl).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using SpanId = std::uint32_t;
inline constexpr SpanId kNoSpan = ~SpanId{0};

struct SpanRecord {
  std::string name;
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  SpanId parent = kNoSpan;
};

class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}

  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Open a span; returns kNoSpan when disabled.
  SpanId open(std::string name, SpanId parent = kNoSpan);
  void close(SpanId id);

  /// Total duration per span name, in ms.
  [[nodiscard]] std::map<std::string, double> totals_ms() const;
  /// Total duration of spans named `name`, in ms (0 when none).
  [[nodiscard]] double total_ms(const std::string& name) const;
  /// One JSON object per line: {"id","name","start_ns","end_ns","parent"}.
  bool write_jsonl(const std::string& path) const;

 private:
  [[nodiscard]] std::uint64_t now_ns() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_ =
      std::chrono::steady_clock::now();
  std::vector<SpanRecord> spans_;
};

/// RAII span.
class Span {
 public:
  Span(SpanRecorder& rec, std::string name, SpanId parent = kNoSpan)
      : rec_(rec), id_(rec.open(std::move(name), parent)) {}
  ~Span() { rec_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  [[nodiscard]] SpanId id() const { return id_; }

 private:
  SpanRecorder& rec_;
  SpanId id_;
};

}  // namespace perfbench
