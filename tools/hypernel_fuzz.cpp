// hypernel_fuzz — deterministic differential fuzzer for the Hypernel
// simulation.
//
// Generates random operation sequences from a seed, executes each under
// the whole configuration matrix (Native / KVM-guest / Hypernel, both
// monitoring granularities, optional hardware-knob sweep), and checks the
// two oracles after every step: differential functional equivalence and
// Hypersec/monitor invariants.  Failures are shrunk to a minimal
// reproducer, the failing step's machine trace is dumped, and a replay
// command is printed.
//
// Campaigns fan sequences across --jobs worker threads (default: all
// hardware threads); results merge in index order, so stdout — progress
// lines, failure reports, the summary — is byte-identical at any job
// count.  Host-side throughput stats go to stderr.
//
// It takes all eight common run flags (tools/run_options.h); a failed
// artifact write exits 2, on the campaign and both replay paths.
//
//   hypernel_fuzz --seed=1 --sequences=50            # campaign
//   hypernel_fuzz --seed=1 --sequences=50 --jobs=4   # same output, faster
//   hypernel_fuzz --seed=1 --sequences=50 --matrix=full
//   hypernel_fuzz --replay=<sequence-seed> --ops=40  # one sequence
//   hypernel_fuzz --inject-bypass ...                # prove the oracle bites
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>

#include "attacks/scenario.h"
#include "common/parse.h"
#include "attacks/scorecard.h"
#include "fuzz/fuzzer.h"
#include "fuzz/seed_io.h"
#include "obs/profile.h"
#include "sim/trace_io.h"
#include "tools/run_options.h"

namespace {

using hn::fuzz::CampaignResult;
using hn::fuzz::FuzzOptions;
using hn::tools::flag_value;

struct Options {
  FuzzOptions fuzz;
  hn::tools::RunOptions run;
  std::optional<hn::u64> replay_seed;
  std::string replay_file;
  std::string failure_dir;
};

void usage() {
  std::fputs(
      "usage: hypernel_fuzz [options]\n"
      "  --seed=N          campaign master seed (default 1)\n"
      "  --sequences=N     number of sequences to run (default 10)\n"
      "  --ops=K           ops per sequence (default 40)\n"
      "  --matrix=M        quick (default) or full hardware-knob sweep\n"
      "  --replay=S        run the single sequence with sequence seed S\n"
      "                    (as printed in a failure's replay line)\n"
      "  --replay-file=F   run the op program in F (`op <name> <a> <b> <c>`\n"
      "                    per line; the attack-corpus seed format) under\n"
      "                    the matrix plus the three detector configs\n"
      "  --attack-seeds    splice attack-library scenarios into generated\n"
      "                    sequences as structured seeds and mix in the\n"
      "                    control-flow / page-table attack kinds\n"
      "  --audit-stride=N  run Hypersec::audit() every N steps (default 1)\n"
      "  --failure-dir=D   write one reproducer file per failing sequence\n"
      "                    (shrunk ops, replay command, machine trace) to D\n"
      "  --fail-fast       cancel the campaign at the first failing sequence\n"
      "  --no-shrink       report original failing sequences unshrunk\n"
      "  --reference       force host-side reference mode (no sim fast\n"
      "                    path); output must stay byte-identical\n"
      "  --no-attacks      generate no attack writes\n"
      "  --no-forged       generate no forged-hypercall probes\n"
      "  --inject-bypass   test hook: attack writes dodge the bus snooper\n"
      "                    (the detection oracle must catch this)\n",
      stdout);
  std::fputs(hn::tools::run_flags_usage(hn::tools::kAllRunFlags).c_str(),
             stdout);
  std::puts(
      "  Traces and streams: the first failure's reproducer, else sequence 0\n"
      "  (a replay: its first config).  --profile adds profile.* counters\n"
      "  to --metrics-out (render with hypernel_trace profile).");
}

bool parse(int argc, char** argv, Options* opt) {
  if (!hn::tools::strip_run_flags(&argc, argv, hn::tools::kAllRunFlags,
                                  &opt->run)) {
    return false;
  }
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if ((v = flag_value(arg, "--seed"))) {
      if (!hn::parse_u64("--seed", v, &opt->fuzz.seed)) return false;
    } else if ((v = flag_value(arg, "--sequences"))) {
      if (!hn::parse_u64("--sequences", v, &opt->fuzz.sequences)) {
        return false;
      }
    } else if ((v = flag_value(arg, "--ops"))) {
      if (!hn::parse_u64("--ops", v, &opt->fuzz.ops)) return false;
    } else if ((v = flag_value(arg, "--matrix"))) {
      if (std::strcmp(v, "full") == 0) {
        opt->fuzz.full_matrix = true;
      } else if (std::strcmp(v, "quick") != 0) {
        std::fprintf(stderr, "unknown matrix '%s'\n", v);
        return false;
      }
    } else if ((v = flag_value(arg, "--replay-file"))) {
      opt->replay_file = v;
    } else if ((v = flag_value(arg, "--replay"))) {
      hn::u64 seed = 0;
      if (!hn::parse_u64("--replay", v, &seed)) return false;
      opt->replay_seed = seed;
    } else if (std::strcmp(arg, "--attack-seeds") == 0) {
      opt->fuzz.extended_attacks = true;
      opt->fuzz.scenario_pool = hn::attacks::scenario_pool();
    } else if ((v = flag_value(arg, "--audit-stride"))) {
      if (!hn::parse_u64("--audit-stride", v, &opt->fuzz.audit_stride)) {
        return false;
      }
    } else if ((v = flag_value(arg, "--failure-dir"))) {
      opt->failure_dir = v;
    } else if (std::strcmp(arg, "--reference") == 0) {
      opt->fuzz.host_fast_path = false;
    } else if (std::strcmp(arg, "--fail-fast") == 0) {
      opt->fuzz.fail_fast = true;
    } else if (std::strcmp(arg, "--no-shrink") == 0) {
      opt->fuzz.shrink = false;
    } else if (std::strcmp(arg, "--no-attacks") == 0) {
      opt->fuzz.attacks = false;
    } else if (std::strcmp(arg, "--no-forged") == 0) {
      opt->fuzz.forged = false;
    } else if (std::strcmp(arg, "--inject-bypass") == 0) {
      opt->fuzz.inject_bypass = true;
    } else if (std::strcmp(arg, "--help") == 0) {
      usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown argument '%s'\n", arg);
      return false;
    }
  }
  const hn::tools::RunOptions& run = opt->run;
  opt->fuzz.jobs = run.jobs;
  opt->fuzz.cores = run.cores;
  opt->fuzz.sample_cycles = run.sample_cycles;
  opt->fuzz.profile = run.profile;
  opt->fuzz.snapshot_boot = run.snapshot_boot;
  opt->fuzz.collect_metrics = !run.metrics_out.empty();
  // Reproducers in --failure-dir ship with their trace.
  opt->fuzz.capture_trace =
      !run.trace_out.empty() || !opt->failure_dir.empty();
  return true;
}

/// Apply the command line's per-configuration options to `specs` and
/// return the executor options a replay runs them with.
hn::fuzz::ExecutorOptions replay_setup(
    const Options& opt, std::vector<hn::fuzz::FuzzConfigSpec>& specs) {
  for (auto& spec : specs) {
    spec.host_fast_path = opt.fuzz.host_fast_path;
    spec.cores = opt.fuzz.cores;
  }
  return {.inject_bypass = opt.fuzz.inject_bypass,
          .audit_stride = opt.fuzz.audit_stride,
          .collect_metrics = opt.fuzz.collect_metrics,
          .capture_trace = !opt.run.trace_out.empty(),
          .snapshot_boot = opt.fuzz.snapshot_boot,
          .profile = opt.fuzz.profile,
          .sample_cycles = opt.fuzz.sample_cycles};
}

void print_ops(const std::vector<hn::fuzz::Op>& ops) {
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  [%zu] %s\n", i, hn::fuzz::describe(ops[i]).c_str());
  }
}

/// Shared tail of both replay paths: the profile, the artifacts (the
/// metrics of every run, the first run's trace and time series) and the
/// oracle verdict (exit 0 clean, 1 findings, 2 failed artifact write).
int finish_replay(const Options& opt,
                  const std::vector<hn::fuzz::FuzzConfigSpec>& specs,
                  const std::vector<hn::fuzz::RunResult>& runs,
                  const hn::fuzz::OracleReport& report) {
  if (opt.fuzz.profile) {
    hn::obs::ProfileReport merged;
    for (const hn::fuzz::RunResult& run : runs) merged.merge(run.profile);
    std::fprintf(stderr, "profile (replay self-time):\n%s",
                 hn::obs::render_profile(merged).c_str());
  }
  hn::obs::Snapshot metrics;
  for (const hn::fuzz::RunResult& run : runs) metrics.merge(run.metrics);
  const bool written =
      hn::tools::write_artifacts(opt.run, metrics, runs[0].trace_blob,
                                 runs[0].timeseries_blob, specs[0].name);
  if (report.ok()) std::puts("clean: all oracles passed");
  for (const std::string& finding : report.findings) {
    std::printf("finding: %s\n", finding.c_str());
  }
  if (!written) return 2;
  return report.ok() ? 0 : 1;
}

int replay(const Options& opt) {
  auto specs = hn::fuzz::build_matrix(opt.fuzz.full_matrix);
  const hn::fuzz::ExecutorOptions exec = replay_setup(opt, specs);
  hn::fuzz::GeneratorOptions gen{.ops = opt.fuzz.ops,
                                 .attacks = opt.fuzz.attacks,
                                 .forged = opt.fuzz.forged};
  const auto ops = hn::fuzz::generate_sequence(*opt.replay_seed, gen);
  std::printf("replaying sequence seed %llu (%zu ops, %zu configurations)\n",
              static_cast<unsigned long long>(*opt.replay_seed), ops.size(),
              specs.size());
  print_ops(ops);
  std::vector<hn::fuzz::RunResult> runs;
  const hn::fuzz::OracleReport report = hn::fuzz::run_sequence_seed(
      *opt.replay_seed, gen, specs, exec, &runs);
  return finish_replay(opt, specs, runs, report);
}

/// Replay an explicit op program (the attack-corpus seed format) under
/// the standard matrix plus the three detector configurations, with both
/// oracles armed.  This is the repro path for scorecard and corpus
/// failures: the seed file pins the exact program, the run prints every
/// detector's alerts.
int replay_file(const Options& opt) {
  hn::Result<std::vector<hn::fuzz::Op>> loaded =
      hn::fuzz::load_ops_file(opt.replay_file);
  if (!loaded.ok()) {
    std::fprintf(stderr, "%s\n", loaded.status().message().c_str());
    return 2;
  }
  const std::vector<hn::fuzz::Op>& ops = loaded.value();
  std::vector<hn::fuzz::FuzzConfigSpec> specs =
      hn::fuzz::build_matrix(opt.fuzz.full_matrix);
  for (hn::fuzz::FuzzConfigSpec& spec : hn::attacks::detector_configs()) {
    specs.push_back(spec);
  }
  const hn::fuzz::ExecutorOptions exec = replay_setup(opt, specs);

  std::printf("replaying %s (%zu ops, %zu configurations)\n",
              opt.replay_file.c_str(), ops.size(), specs.size());
  print_ops(ops);
  std::vector<hn::fuzz::RunResult> runs;
  runs.reserve(specs.size());
  for (const auto& spec : specs) {
    runs.push_back(hn::fuzz::run_sequence(spec, ops, exec));
    const hn::fuzz::RunResult& rec = runs.back();
    std::printf("  %-24s alerts=%llu events=%llu\n", rec.config.c_str(),
                static_cast<unsigned long long>(rec.fingerprint.alerts),
                static_cast<unsigned long long>(
                    rec.fingerprint.monitor_events));
    for (const hn::fuzz::AlertRecord& a : rec.alert_log) {
      std::printf("    alert %s by %s at cycle %llu\n",
                  hn::secapps::alert_kind_name(a.kind), a.detector.c_str(),
                  static_cast<unsigned long long>(a.at));
    }
  }
  return finish_replay(opt, specs, runs,
                       hn::fuzz::check_sequence(ops, specs, runs));
}

/// One self-contained reproducer file per failing sequence: everything a
/// developer needs to replay a CI failure without the CI logs.
void write_failure_artifacts(const Options& opt, const CampaignResult& result) {
  std::error_code ec;
  std::filesystem::create_directories(opt.failure_dir, ec);
  if (ec) {
    std::fprintf(stderr, "failure-dir: cannot create %s: %s\n",
                 opt.failure_dir.c_str(), ec.message().c_str());
    return;
  }
  for (const hn::fuzz::SequenceFailure& f : result.failure_details) {
    const std::string path = opt.failure_dir + "/failure_seq" +
                             std::to_string(f.index) + ".txt";
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) {
      std::fprintf(stderr, "failure-dir: cannot write %s\n", path.c_str());
      continue;
    }
    std::fprintf(out,
                 "campaign seed: %llu\n"
                 "sequence index: %llu\n"
                 "sequence seed: %llu\n"
                 "replay: %s\n\n",
                 static_cast<unsigned long long>(opt.fuzz.seed),
                 static_cast<unsigned long long>(f.index),
                 static_cast<unsigned long long>(f.sequence_seed),
                 f.replay.c_str());
    std::fprintf(out, "findings (%zu):\n", f.findings.size());
    for (const std::string& finding : f.findings) {
      std::fprintf(out, "  %s\n", finding.c_str());
    }
    std::fprintf(out, "\nminimal reproducer (%zu ops):\n", f.ops.size());
    for (size_t i = 0; i < f.ops.size(); ++i) {
      std::fprintf(out, "  [%zu] %s\n", i,
                   hn::fuzz::describe(f.ops[i]).c_str());
    }
    if (!f.trace.empty()) {
      std::fprintf(out, "\nmachine trace (%s, step %llu):\n",
                   f.trace_config.c_str(),
                   static_cast<unsigned long long>(f.trace_step));
      for (const std::string& line : f.trace) {
        std::fprintf(out, "  %s\n", line.c_str());
      }
    }
    std::fclose(out);
    // Each reproducer ships with its causal trace (same basename, .trace):
    // `hypernel_trace report` shows the detection chains of the failure.
    if (!f.trace_blob.empty()) {
      const std::string trace_path = opt.failure_dir + "/failure_seq" +
                                     std::to_string(f.index) + ".trace";
      if (!hn::sim::write_trace_file(f.trace_blob, trace_path)) {
        std::fprintf(stderr, "failure-dir: cannot write %s\n",
                     trace_path.c_str());
      }
    }
  }
  std::fprintf(stderr, "failure artifacts: %zu file(s) in %s\n",
               result.failure_details.size(), opt.failure_dir.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, &opt)) {
    usage();
    return 2;
  }
  if (!opt.replay_file.empty()) return replay_file(opt);
  if (opt.replay_seed) return replay(opt);

  std::printf("campaign: seed=%llu sequences=%llu ops=%llu matrix=%s%s\n",
              static_cast<unsigned long long>(opt.fuzz.seed),
              static_cast<unsigned long long>(opt.fuzz.sequences),
              static_cast<unsigned long long>(opt.fuzz.ops),
              opt.fuzz.full_matrix ? "full" : "quick",
              opt.fuzz.inject_bypass ? " (bypass injected)" : "");
  CampaignResult result = hn::fuzz::run_campaign(opt.fuzz, &std::cout);
  // Host-side execution stats go to stderr: stdout stays byte-identical
  // across --jobs values (the determinism contract the CI pins).
  const hn::fuzz::CampaignExecStats& exec = result.exec;
  std::fprintf(stderr, "exec: jobs=%u wall=%.1fms throughput=%.1f seq/s%s\n",
               exec.jobs, exec.wall_ms,
               exec.wall_ms > 0
                   ? 1000.0 * static_cast<double>(result.sequences_run) /
                         exec.wall_ms
                   : 0.0,
               opt.fuzz.fail_fast && exec.sequences_skipped > 0
                   ? " (fail-fast cancelled)"
                   : "");
  for (size_t w = 0; w < exec.workers.size(); ++w) {
    std::fprintf(stderr, "  worker %zu: %llu jobs, busy %.1fms\n", w,
                 static_cast<unsigned long long>(exec.workers[w].jobs),
                 static_cast<double>(exec.workers[w].busy_ns) / 1e6);
  }
  if (opt.fuzz.profile) {
    // Host wall clock — stderr, like the exec stats, so stdout stays
    // byte-identical across hosts and job counts.
    std::fprintf(stderr, "profile (campaign self-time):\n%s",
                 hn::obs::render_profile(result.profile).c_str());
    if (!opt.run.metrics_out.empty()) {
      // Fold the report into the exported snapshot as profile.* counters,
      // so `hypernel_trace profile` can render it from the JSON.
      hn::obs::Registry reg;
      reg.set_enabled(true);
      hn::obs::publish_profile(result.profile, reg);
      result.metrics.merge(reg.snapshot());
    }
  }
  std::printf("sequences: %llu  failures: %llu  corpus digest: %016llx\n",
              static_cast<unsigned long long>(result.sequences_run),
              static_cast<unsigned long long>(result.failures),
              static_cast<unsigned long long>(result.corpus_digest));
  if (!opt.failure_dir.empty() && !result.failure_details.empty()) {
    write_failure_artifacts(opt, result);
  }
  if (!hn::tools::write_artifacts(opt.run, result.metrics, result.trace_blob,
                                  result.timeseries_blob, "campaign")) {
    return 2;
  }
  return result.ok() ? 0 : 1;
}
