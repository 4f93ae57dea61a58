#include "tools/run_options.h"

#include <cstdio>
#include <cstring>

#include "common/parse.h"
#include "obs/export.h"
#include "obs/timeseries.h"
#include "sim/trace_io.h"

namespace hn::tools {
namespace {

static_assert(obs::kDefaultSampleCycles == 65536, "update the usage text");

constexpr struct {
  RunFlag flag;
  const char* text;
} kUsage[] = {
    {kJobsFlag,
     "  --jobs=N          worker threads, at most 256 (default: hardware\n"
     "                    concurrency); never changes the output\n"},
    {kCoresFlag,
     "  --cores=N         simulated cores per machine, 1 to 8 (default 1)\n"},
    {kMetricsOutFlag,
     "  --metrics-out=F   write observability metrics to F (.csv: CSV,\n"
     "                    else JSON)\n"},
    {kTraceOutFlag,
     "  --trace-out=F     write a causal flight-recorder trace to F\n"},
    {kSampleCyclesFlag,
     "  --sample-cycles[=N]\n"
     "                    sample time-series tracks every N simulated\n"
     "                    cycles (default 65536)\n"},
    {kTimeseriesOutFlag,
     "  --timeseries-out=F\n"
     "                    write the sampled HNTSERIE stream to F; implies\n"
     "                    --sample-cycles unless one is given\n"},
    {kProfileFlag,
     "  --profile         host self-time profile, rendered to stderr\n"},
    {kSnapshotBootFlag,
     "  --snapshot-boot   fork runs from boot snapshots (COW restore)\n"
     "                    instead of re-booting; same output\n"},
};

bool parse_in_range(const char* flag, const char* text, unsigned lo,
                    unsigned hi, unsigned* out) {
  unsigned value = 0;
  if (!parse_u64(flag, text, &value)) return false;
  if (value < lo || value > hi) {
    std::fprintf(stderr, "%s must be in [%u, %u]\n", flag, lo, hi);
    return false;
  }
  *out = value;
  return true;
}

/// --timeseries-out without an interval samples at the library default.
void resolve_sample_cycles(RunOptions* opts) {
  if (opts->sample_cycles == 0 && !opts->timeseries_out.empty()) {
    opts->sample_cycles = obs::kDefaultSampleCycles;
  }
}

/// Writes one artifact that was asked for and reports it; true unless the
/// write failed.  `blob` is null for metrics, which are written even when
/// empty.
template <typename Write>
bool write_one(const char* tag, const std::string& path,
               const std::vector<u8>* blob, Write write,
               const std::string& what) {
  if (path.empty()) return true;
  if (blob != nullptr && blob->empty()) {
    std::fprintf(stderr, "%s: no %s recorded; %s not written\n", tag,
                 what.c_str(), path.c_str());
    return true;
  }
  if (!write()) {
    std::fprintf(stderr, "%s: failed to write %s\n", tag, path.c_str());
    return false;
  }
  std::fprintf(stderr, "%s: %s written to %s\n", tag, what.c_str(),
               path.c_str());
  return true;
}

}  // namespace

const char* flag_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') return arg + n + 1;
  return nullptr;
}

FlagResult consume_run_flag(const char* arg, unsigned accepted,
                            RunOptions* opts) {
  const auto takes = [accepted](RunFlag flag) {
    return (accepted & flag) != 0;
  };
  const char* v = nullptr;
  bool ok = true;
  if (takes(kJobsFlag) && (v = flag_value(arg, "--jobs"))) {
    ok = parse_in_range("--jobs", v, 0, kMaxJobs, &opts->jobs);
  } else if (takes(kCoresFlag) && (v = flag_value(arg, "--cores"))) {
    ok = parse_in_range("--cores", v, 1, kMaxCores, &opts->cores);
  } else if (takes(kMetricsOutFlag) &&
             (v = flag_value(arg, "--metrics-out"))) {
    opts->metrics_out = v;
  } else if (takes(kTraceOutFlag) && (v = flag_value(arg, "--trace-out"))) {
    opts->trace_out = v;
  } else if (takes(kSampleCyclesFlag) &&
             std::strcmp(arg, "--sample-cycles") == 0) {
    opts->sample_cycles = obs::kDefaultSampleCycles;
  } else if (takes(kSampleCyclesFlag) &&
             (v = flag_value(arg, "--sample-cycles"))) {
    ok = parse_u64("--sample-cycles", v, &opts->sample_cycles);
    resolve_sample_cycles(opts);
  } else if (takes(kTimeseriesOutFlag) &&
             (v = flag_value(arg, "--timeseries-out"))) {
    opts->timeseries_out = v;
    resolve_sample_cycles(opts);
  } else if (takes(kProfileFlag) && std::strcmp(arg, "--profile") == 0) {
    opts->profile = true;
  } else if (takes(kSnapshotBootFlag) &&
             std::strcmp(arg, "--snapshot-boot") == 0) {
    opts->snapshot_boot = true;
  } else {
    return FlagResult::kNotConsumed;
  }
  return ok ? FlagResult::kConsumed : FlagResult::kUsageError;
}

bool strip_run_flags(int* argc, char** argv, unsigned accepted,
                     RunOptions* opts) {
  int kept = 1;
  for (int i = 1; i < *argc; ++i) {
    const FlagResult result = consume_run_flag(argv[i], accepted, opts);
    if (result == FlagResult::kUsageError) return false;
    if (result == FlagResult::kNotConsumed) argv[kept++] = argv[i];
  }
  *argc = kept;
  return true;
}

std::string run_flags_usage(unsigned accepted) {
  std::string text;
  for (const auto& [flag, line] : kUsage) {
    if ((accepted & flag) != 0) text += line;
  }
  return text;
}

bool write_artifacts(const RunOptions& opts, const obs::Snapshot& metrics,
                     const std::vector<u8>& trace,
                     const std::vector<u8>& timeseries,
                     const std::string& source) {
  const bool metrics_ok = write_one(
      "metrics", opts.metrics_out, nullptr,
      [&] { return obs::write_metrics_file(metrics, opts.metrics_out); },
      std::to_string(metrics.entries.size()) + " entries");
  const bool trace_ok = write_one(
      "trace", opts.trace_out, &trace,
      [&] { return sim::write_trace_file(trace, opts.trace_out); },
      source + " trace");
  const bool timeseries_ok = write_one(
      "timeseries", opts.timeseries_out, &timeseries,
      [&] {
        return obs::write_timeseries_file(timeseries, opts.timeseries_out);
      },
      source + " stream");
  return metrics_ok && trace_ok && timeseries_ok;
}

}  // namespace hn::tools
