// Run options shared by every front end (hypernel_fuzz, hypernel_score,
// hypernel-sim, the bench drivers): the flags that pick how a run executes
// and which artifacts it writes, parsed, documented and written in one
// place.  Each front end takes its own subset of the common flags (README
// "Run options" lists them) and rejects the rest like any unknown
// argument.
#pragma once

#include <string>
#include <vector>

#include "common/types.h"
#include "obs/metrics.h"

namespace hn::tools {

/// One bit per common flag; a front end ORs together the ones it takes.
enum RunFlag : unsigned {
  kJobsFlag = 1u << 0,           // --jobs=N
  kCoresFlag = 1u << 1,          // --cores=N
  kMetricsOutFlag = 1u << 2,     // --metrics-out=F
  kTraceOutFlag = 1u << 3,       // --trace-out=F
  kSampleCyclesFlag = 1u << 4,   // --sample-cycles[=N]
  kTimeseriesOutFlag = 1u << 5,  // --timeseries-out=F
  kProfileFlag = 1u << 6,        // --profile
  kSnapshotBootFlag = 1u << 7,   // --snapshot-boot
  kAllRunFlags = (1u << 8) - 1,
};

/// Largest --jobs: more workers than this only asks the OS for threads.
inline constexpr unsigned kMaxJobs = 256;
/// Largest --cores: the SMP machine models at most 8 cores.
inline constexpr unsigned kMaxCores = 8;

/// The common flags of one command line.  Empty paths mean "not asked for".
struct RunOptions {
  unsigned jobs = 0;  // 0 = hardware concurrency
  unsigned cores = 1;
  std::string metrics_out;
  std::string trace_out;
  std::string timeseries_out;
  /// Time-series sampling interval: --sample-cycles=N, the library
  /// default for a bare --sample-cycles or for --timeseries-out given
  /// without one (in either order), else 0 (sampling off).
  Cycles sample_cycles = 0;
  bool profile = false;
  bool snapshot_boot = false;
};

enum class FlagResult {
  kNotConsumed,  // not a common flag, or one this front end does not take
  kConsumed,
  kUsageError,  // a common flag with a bad value; the reason is on stderr
};

/// The value of `arg` when it reads `<name>=<value>`, else nullptr.
const char* flag_value(const char* arg, const char* name);

/// Parse `arg` into `*opts` if it is one of the `accepted` common flags
/// (RunFlag bits).  Numbers parse strictly (common/parse.h); --jobs must
/// be at most kMaxJobs and --cores in [1, kMaxCores].
FlagResult consume_run_flag(const char* arg, unsigned accepted,
                            RunOptions* opts);

/// consume_run_flag() over argv[1..argc), compacting the arguments it does
/// not consume in place so the front end parses only its own flags.
/// Returns false on a usage error.
bool strip_run_flags(int* argc, char** argv, unsigned accepted,
                     RunOptions* opts);

/// The usage lines of the `accepted` common flags, one paragraph.
std::string run_flags_usage(unsigned accepted);

/// Write every artifact `opts` asks for: `metrics` to --metrics-out,
/// `trace` to --trace-out, `timeseries` to --timeseries-out.  `source`
/// names the run the trace and stream come from ("campaign", a config
/// name, ...); an empty blob is reported and not written.  Prints one
/// line per file to stderr and returns false if any write failed, which
/// every front end turns into exit 2.
bool write_artifacts(const RunOptions& opts, const obs::Snapshot& metrics,
                     const std::vector<u8>& trace,
                     const std::vector<u8>& timeseries,
                     const std::string& source);

}  // namespace hn::tools
