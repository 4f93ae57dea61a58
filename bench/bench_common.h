// Shared helpers for the benchmark harnesses: the common run flags and
// per-cell artifacts (parsed and written by tools/run_options.h), system
// construction per evaluation configuration, and the parallel
// config-matrix driver.
//
// Every bench cell (one mode x benchmark x granularity point) builds its
// own System — a fresh simulated universe — so cells fan out across
// worker threads with run_cells() and land in a slot array in index
// order: the printed tables are byte-identical at any --jobs value,
// only wall-clock changes.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/sharded_runner.h"
#include "hypernel/system.h"
#include "sim/trace_io.h"
#include "tools/run_options.h"

namespace hn::bench {

/// The common flags every bench driver takes (tools/run_options.h).
inline constexpr unsigned kBenchFlags =
    tools::kJobsFlag | tools::kMetricsOutFlag | tools::kTraceOutFlag |
    tools::kSampleCyclesFlag | tools::kTimeseriesOutFlag;

namespace detail {

inline tools::RunOptions& args() {
  static tools::RunOptions a;
  return a;
}

/// Per-cell artifacts, keyed by cell index so the final fold happens in
/// index order regardless of which worker finished when.  Metrics fold
/// over every cell; --trace-out and --timeseries-out take the lowest-index
/// cell's blob, so every exported file is jobs-independent.
struct CellSink {
  std::mutex mu;
  std::map<u64, obs::Snapshot> metrics;
  std::map<u64, std::vector<u8>> traces;
  std::map<u64, std::vector<u8>> timeseries;
};

inline CellSink& sink() {
  static CellSink s;
  return s;
}

/// The lowest-index cell's blob, moved out (empty when none recorded).
inline std::vector<u8> take_first(std::map<u64, std::vector<u8>>& cells) {
  return cells.empty() ? std::vector<u8>{} : std::move(cells.begin()->second);
}

}  // namespace detail

[[nodiscard]] inline bool metrics_enabled() {
  return !detail::args().metrics_out.empty();
}

[[nodiscard]] inline bool trace_enabled() {
  return !detail::args().trace_out.empty();
}

[[nodiscard]] inline bool timeseries_enabled() {
  return !detail::args().timeseries_out.empty();
}

namespace detail {

inline std::unique_ptr<hypernel::System> make_system(hypernel::Mode mode,
                                                     bool enable_mbm) {
  hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = enable_mbm;
  cfg.metrics = metrics_enabled() || trace_enabled();
  cfg.machine.sample_cycles = args().sample_cycles;
  auto sys = hypernel::System::create(cfg);
  if (!sys.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 sys.status().message().c_str());
    std::abort();
  }
  if (trace_enabled()) sys.value()->machine().trace().set_enabled(true);
  return std::move(sys).value();
}

}  // namespace detail

/// Build a system in the §7.1 performance setup: Hypersec without the MBM
/// ("only Hypersec is working in the case of Hypernel").
inline std::unique_ptr<hypernel::System> make_perf_system(hypernel::Mode mode) {
  return detail::make_system(mode, /*enable_mbm=*/false);
}

/// Build a system in the §7.2 monitoring setup: Hypernel with the MBM.
inline std::unique_ptr<hypernel::System> make_monitor_system() {
  return detail::make_system(hypernel::Mode::kHypernel, /*enable_mbm=*/true);
}

/// Stash one cell's metrics snapshot.  Safe from any worker thread;
/// no-op unless --metrics-out was given.
inline void record_cell_metrics(u64 index, const obs::Snapshot& snap) {
  if (!metrics_enabled()) return;
  detail::CellSink& sink = detail::sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.metrics[index].merge(snap);
}

/// Stash one cell's pre-serialized flight-recorder blob — for drivers
/// whose cells own their trace capture (fuzz-executor based benches get
/// the blob from RunResult instead of a live System).
inline void record_cell_trace(u64 index, std::vector<u8> blob) {
  if (!trace_enabled() || blob.empty()) return;
  detail::CellSink& sink = detail::sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  sink.traces.emplace(index, std::move(blob));
}

/// Convenience overload: snapshot a System's registry before it dies.
/// Also stashes the cell's flight-recorder blob when --trace-out is on
/// and its time-series stream when --timeseries-out is.
inline void record_cell_metrics(u64 index, hypernel::System& sys) {
  if (trace_enabled()) {
    record_cell_trace(index, sim::capture_trace(sys.machine()));
  }
  if (timeseries_enabled()) {
    std::vector<u8> stream = sim::capture_timeseries(sys.machine());
    detail::CellSink& sink = detail::sink();
    std::lock_guard<std::mutex> lock(sink.mu);
    sink.timeseries.emplace(index, std::move(stream));
  }
  if (metrics_enabled()) record_cell_metrics(index, sys.metrics_snapshot());
}

/// Fold every recorded cell (index order) and write the artifacts the
/// command line asked for.  Returns 0, or 2 if a write failed (the exit
/// code of a failed artifact write on every front end; benches used to
/// return 1) — benches `return write_bench_metrics()` (or combine it with
/// their own exit code) as their last statement.
inline int write_bench_metrics() {
  detail::CellSink& sink = detail::sink();
  std::lock_guard<std::mutex> lock(sink.mu);
  obs::Snapshot total;
  for (const auto& [index, snap] : sink.metrics) total.merge(snap);
  const bool ok = tools::write_artifacts(
      detail::args(), total, detail::take_first(sink.traces),
      detail::take_first(sink.timeseries), "first-cell");
  return ok ? 0 : 2;
}

inline void print_rule(int width = 78) {
  for (int i = 0; i < width; ++i) std::putchar('-');
  std::putchar('\n');
}

/// For drivers whose framework owns the command line (google-benchmark):
/// extract the common bench flags from argv, compacting it in place, and
/// leave every other argument for the caller's own parser.  A malformed
/// value is a usage error: exit 2.
inline void parse_and_strip_args(int* argc, char** argv) {
  if (!tools::strip_run_flags(argc, argv, kBenchFlags, &detail::args())) {
    std::exit(2);
  }
}

/// Parse the common bench arguments from argv, storing them where
/// make_*_system / record_cell_metrics / write_bench_metrics can see
/// them.  Any other argument is a usage error (exit 2), so typos don't
/// silently run the default.
inline tools::RunOptions parse_args(int argc, char** argv) {
  parse_and_strip_args(&argc, argv);
  if (argc > 1) {
    std::fprintf(stderr, "unknown argument '%s'\nusage: %s [options]\n%s",
                 argv[1], argv[0], tools::run_flags_usage(kBenchFlags).c_str());
    std::exit(2);
  }
  return detail::args();
}

/// Run `fn(i)` for every cell i in [0, n) across `jobs` workers (0 =
/// hardware concurrency), returning results in index order.  Wall time
/// and per-worker stats go to stderr so table output stays clean.
template <typename Result, typename Fn>
std::vector<Result> run_cells(u64 n, unsigned jobs, Fn&& fn) {
  exec::ShardOptions opt;
  opt.jobs = jobs;
  exec::ShardReport report;
  std::vector<Result> results =
      exec::run_sharded<Result>(n, std::forward<Fn>(fn), opt, &report);
  std::fprintf(stderr, "bench exec: %llu cells, jobs=%u, wall=%.1fms\n",
               static_cast<unsigned long long>(n),
               jobs == 0 ? exec::ThreadPool::default_parallelism() : jobs,
               report.wall_ms);
  return results;
}

}  // namespace hn::bench
