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
//
// It takes every common run flag but --metrics-out (tools/run_options.h);
// a failed write of --out or an artifact exits 2.
#include <cstdio>
#include <cstring>
#include <fstream>

#include "attacks/scorecard.h"
#include "obs/profile.h"
#include "tools/run_options.h"

namespace {

constexpr unsigned kRunFlags =
    hn::tools::kAllRunFlags & ~hn::tools::kMetricsOutFlag;

void usage() {
  std::fputs(
      "usage: hypernel_score [options]\n"
      "  --out=F           write the full JSON scorecard to F\n"
      "  --no-trace        skip flight-recorder capture and causal\n"
      "                    attribution (faster; attribution not required\n"
      "                    for the exit code)\n",
      stdout);
  std::fputs(hn::tools::run_flags_usage(kRunFlags).c_str(), stdout);
  std::puts(
      "  The trace and the stream are the first intended-hit cell's.\n"
      "  --cores=N > 1 adds the cross-core scenario rows.");
}

}  // namespace

int main(int argc, char** argv) {
  hn::tools::RunOptions run;
  std::string out_path;
  bool trace_attribution = true;
  auto usage_error = [] {
    usage();
    return 2;
  };
  if (!hn::tools::strip_run_flags(&argc, argv, kRunFlags, &run)) {
    return usage_error();
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (const char* v = hn::tools::flag_value(arg, "--out")) {
      out_path = v;
    } else if (std::strcmp(arg, "--no-trace") == 0) {
      trace_attribution = false;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      return 0;
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return usage_error();
    }
  }

  const hn::attacks::Scorecard score =
      hn::attacks::run_scorecard({.jobs = run.jobs,
                                  .snapshot_boot = run.snapshot_boot,
                                  .trace_attribution = trace_attribution,
                                  .profile = run.profile,
                                  .cores = run.cores,
                                  .sample_cycles = run.sample_cycles});
  std::fputs(hn::attacks::render_scorecard(score).c_str(), stdout);
  if (run.profile) {
    // Host wall clock goes to stderr: stdout (table, digest) must stay
    // byte-identical across hosts and jobs.
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
  if (!hn::tools::write_artifacts(run, {}, score.sample_trace,
                                  score.sample_timeseries, "first-hit")) {
    return 2;
  }
  std::printf("scorecard digest: %016llx\n",
              static_cast<unsigned long long>(score.digest));
  return score.ok(/*require_attribution=*/trace_attribution) ? 0 : 1;
}
