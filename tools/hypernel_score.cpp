// hypernel_score — the per-detector attack scorecard.
//
// Runs every scenario in the attack library (src/attacks) under every
// detector configuration, plus one benign false-positive probe per
// detector, grades the results against the library's declared ground
// truth, and emits a deterministic report: a human table on stdout, the
// full JSON via --out, and the scorecard digest on the last line.
//
// The report is byte-identical at any --jobs value and (with
// --no-trace) whether cells boot fresh or fork from boot snapshots —
// the scorecard tests pin both.
//
//   hypernel_score                           # table + digest
//   hypernel_score --jobs=4 --out=score.json
//   hypernel_score --no-trace --snapshot-boot
#include <cstdio>
#include <cstring>
#include <fstream>

#include "attacks/scorecard.h"
#include "common/parse.h"
#include "obs/timeseries.h"
#include "sim/trace_io.h"

namespace {

void usage() {
  std::puts(
      "usage: hypernel_score [options]\n"
      "  --jobs=N          worker threads for cell evaluation (default:\n"
      "                    hardware concurrency; 1 = sequential).  Never\n"
      "                    changes the report, only wall-clock\n"
      "  --out=F           write the full JSON scorecard to F\n"
      "  --trace-out=F     write the flight-recorder trace of the first\n"
      "                    intended-hit cell to F (render: hypernel_trace)\n"
      "  --no-trace        skip flight-recorder capture and causal\n"
      "                    attribution (faster; attribution not required\n"
      "                    for the exit code)\n"
            "  --snapshot-boot   fork cells from per-configuration boot\n"
      "                    snapshots (COW restore) instead of re-booting\n"
      "  --cores=N         simulated cores per machine (default 1); N > 1\n"
      "                    adds the cross-core scenario rows\n"
      "  --decoupled[=N]   temporally decoupled execution (local charge\n"
      "                    quantum of N cycles, default 4096); the JSON\n"
      "                    report must stay byte-identical\n"
      "  --sample-cycles[=N]\n"
      "                    sample time-series tracks every N simulated\n"
      "                    cycles (default 65536); pairs with\n"
      "                    --timeseries-out\n"
      "  --timeseries-out=F\n"
      "                    write the sampled HNTSERIE stream of the first\n"
      "                    intended-hit cell to F (render:\n"
      "                    hypernel_trace timeline)\n"
      "  --profile         host self-time profile across all cells,\n"
      "                    rendered to stderr (stdout stays identical)");
}

}  // namespace

int main(int argc, char** argv) {
  hn::attacks::ScorecardOptions opt;
  opt.jobs = 0;  // CLI default: hardware concurrency (library: 1)
  std::string out_path;
  std::string trace_out;
  std::string timeseries_out;
  auto usage_error = [] {
    usage();
    return 2;
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--jobs=", 7) == 0) {
      if (!hn::parse_u64("--jobs", arg + 7, &opt.jobs)) return usage_error();
    } else if (std::strncmp(arg, "--out=", 6) == 0) {
      out_path = arg + 6;
    } else if (std::strncmp(arg, "--trace-out=", 12) == 0) {
      trace_out = arg + 12;
    } else if (std::strcmp(arg, "--no-trace") == 0) {
      opt.trace_attribution = false;
    } else if (std::strcmp(arg, "--snapshot-boot") == 0) {
      opt.snapshot_boot = true;
    } else if (std::strncmp(arg, "--cores=", 8) == 0) {
      if (!hn::parse_u64("--cores", arg + 8, &opt.cores)) return usage_error();
      if (opt.cores == 0 || opt.cores > 8) {
        std::fprintf(stderr, "--cores must be in [1, 8]\n");
        return 2;
      }
    } else if (std::strncmp(arg, "--decoupled=", 12) == 0) {
      if (!hn::parse_u64("--decoupled", arg + 12, &opt.decoupled_quantum)) {
        return usage_error();
      }
    } else if (std::strcmp(arg, "--decoupled") == 0) {
      opt.decoupled_quantum = hn::fuzz::kDefaultDecoupledQuantum;
    } else if (std::strncmp(arg, "--sample-cycles=", 16) == 0) {
      if (!hn::parse_u64("--sample-cycles", arg + 16, &opt.sample_cycles)) {
        return usage_error();
      }
    } else if (std::strcmp(arg, "--sample-cycles") == 0) {
      opt.sample_cycles = hn::obs::kDefaultSampleCycles;
    } else if (std::strncmp(arg, "--timeseries-out=", 17) == 0) {
      timeseries_out = arg + 17;
      if (opt.sample_cycles == 0) {
        opt.sample_cycles = hn::obs::kDefaultSampleCycles;
      }
    } else if (std::strcmp(arg, "--profile") == 0) {
      opt.profile = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return usage_error();
    }
  }

  const hn::attacks::Scorecard score = hn::attacks::run_scorecard(opt);
  std::fputs(hn::attacks::render_scorecard(score).c_str(), stdout);
  if (opt.profile) {
    // Host wall clock goes to stderr: stdout (table, digest) must stay
    // byte-identical across hosts, jobs, and decoupled mode.
    std::fprintf(stderr, "profile (scorecard self-time):\n%s",
                 hn::obs::render_profile(score.profile).c_str());
  }

  if (!out_path.empty()) {
    std::ofstream out(out_path);
    out << score.json;
    if (!out) {
      std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
      return 2;
    }
    std::fprintf(stderr, "scorecard JSON written to %s\n", out_path.c_str());
  }
  if (!trace_out.empty()) {
    if (score.sample_trace.empty()) {
      std::fprintf(stderr,
                   "trace: no intended hit to capture (or --no-trace)\n");
    } else if (hn::sim::write_trace_file(score.sample_trace, trace_out)) {
      std::fprintf(stderr, "trace: first-hit trace written to %s\n",
                   trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n", trace_out.c_str());
      return 2;
    }
  }
  if (!timeseries_out.empty()) {
    if (score.sample_timeseries.empty()) {
      std::fprintf(stderr, "timeseries: no intended hit to sample\n");
    } else if (hn::obs::write_timeseries_file(score.sample_timeseries,
                                              timeseries_out)) {
      std::fprintf(stderr, "timeseries: first-hit stream written to %s\n",
                   timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "timeseries: failed to write %s\n",
                   timeseries_out.c_str());
      return 2;
    }
  }
  std::printf("scorecard digest: %016llx\n",
              static_cast<unsigned long long>(score.digest));
  return score.ok(/*require_attribution=*/opt.trace_attribution) ? 0 : 1;
}
