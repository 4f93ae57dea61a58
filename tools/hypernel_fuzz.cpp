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
#include "obs/export.h"
#include "obs/timeseries.h"
#include "sim/trace_io.h"

namespace {

using hn::fuzz::CampaignResult;
using hn::fuzz::FuzzOptions;

struct Options {
  FuzzOptions fuzz;
  std::optional<hn::u64> replay_seed;
  std::string replay_file;
  std::string metrics_out;
  std::string trace_out;
  std::string timeseries_out;
  std::string failure_dir;
};

std::optional<std::string> arg_value(const char* arg, const char* name) {
  const size_t n = std::strlen(name);
  if (std::strncmp(arg, name, n) == 0 && arg[n] == '=') {
    return std::string(arg + n + 1);
  }
  return std::nullopt;
}

void usage() {
  std::puts(
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
            "  --jobs=N          worker threads for sequence evaluation (default:\n"
      "                    hardware concurrency; 1 = fully sequential).\n"
      "                    Never changes output, only wall-clock\n"
      "  --cores=N         simulated cores per machine (default 1).  A\n"
      "                    differential dimension: cross-core interleaving\n"
      "                    with deterministic bus arbitration; output is\n"
      "                    reproducible at any --jobs for a fixed N\n"
      "  --metrics-out=F   collect observability metrics across the campaign\n"
      "                    and write the folded snapshot to F (.csv = CSV,\n"
      "                    anything else = JSON)\n"
      "  --trace-out=F     write a causal flight-recorder trace to F: the\n"
      "                    first failure's reproducer, or sequence 0 under\n"
      "                    the reference config when the campaign is clean\n"
      "                    (render with hypernel_trace)\n"
      "  --sample-cycles[=N]\n"
      "                    sample time-series tracks every N simulated\n"
      "                    cycles (default 65536); pairs with\n"
      "                    --timeseries-out\n"
      "  --timeseries-out=F\n"
      "                    write the sampled HNTSERIE stream (sequence 0,\n"
      "                    reference config) to F (render with\n"
      "                    hypernel_trace timeline)\n"
      "  --failure-dir=D   write one reproducer file per failing sequence\n"
      "                    (shrunk ops, replay command, machine trace) to D\n"
      "  --fail-fast       cancel the campaign at the first failing sequence\n"
      "  --no-shrink       report original failing sequences unshrunk\n"
      "  --reference       force host-side reference mode (no sim fast\n"
      "                    path); output must stay byte-identical\n"
      "  --decoupled[=N]   temporally decoupled execution: cycle charges\n"
      "                    accumulate in a local quantum of N cycles\n"
      "                    (default 4096) and fold at every observation\n"
      "                    point; output must stay byte-identical\n"
      "  --profile         host self-time profile (boot/step/dispatch/\n"
      "                    syscall/translate/memory/audit/digest/snapshot)\n"
      "                    rendered to stderr; folded into --metrics-out as\n"
      "                    profile.* counters (see hypernel_trace profile)\n"
      "  --snapshot-boot   fork every case from a per-configuration boot\n"
      "                    snapshot (COW restore) instead of re-booting;\n"
      "                    output must stay byte-identical\n"
      "  --no-attacks      generate no attack writes\n"
      "  --no-forged       generate no forged-hypercall probes\n"
      "  --inject-bypass   test hook: attack writes dodge the bus snooper\n"
      "                    (the detection oracle must catch this)");
}

bool parse(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    std::optional<std::string> v;
    if ((v = arg_value(arg, "--seed"))) {
      if (!hn::parse_u64("--seed", v->c_str(), &opt->fuzz.seed)) return false;
    } else if ((v = arg_value(arg, "--sequences"))) {
      if (!hn::parse_u64("--sequences", v->c_str(), &opt->fuzz.sequences)) {
        return false;
      }
    } else if ((v = arg_value(arg, "--ops"))) {
      if (!hn::parse_u64("--ops", v->c_str(), &opt->fuzz.ops)) return false;
    } else if ((v = arg_value(arg, "--matrix"))) {
      if (*v == "full") {
        opt->fuzz.full_matrix = true;
      } else if (*v != "quick") {
        std::fprintf(stderr, "unknown matrix '%s'\n", v->c_str());
        return false;
      }
    } else if ((v = arg_value(arg, "--replay-file"))) {
      opt->replay_file = *v;
    } else if ((v = arg_value(arg, "--replay"))) {
      hn::u64 seed = 0;
      if (!hn::parse_u64("--replay", v->c_str(), &seed)) return false;
      opt->replay_seed = seed;
    } else if (std::strcmp(arg, "--attack-seeds") == 0) {
      opt->fuzz.extended_attacks = true;
      opt->fuzz.scenario_pool = hn::attacks::scenario_pool();
    } else if ((v = arg_value(arg, "--audit-stride"))) {
      if (!hn::parse_u64("--audit-stride", v->c_str(),
                         &opt->fuzz.audit_stride)) {
        return false;
      }
    } else if ((v = arg_value(arg, "--jobs"))) {
      if (!hn::parse_u64("--jobs", v->c_str(), &opt->fuzz.jobs)) return false;
    } else if ((v = arg_value(arg, "--cores"))) {
      if (!hn::parse_u64("--cores", v->c_str(), &opt->fuzz.cores)) return false;
      if (opt->fuzz.cores == 0 || opt->fuzz.cores > 8) {
        std::fprintf(stderr, "--cores must be in [1, 8]\n");
        return false;
      }
    } else if ((v = arg_value(arg, "--metrics-out"))) {
      opt->metrics_out = *v;
      opt->fuzz.collect_metrics = true;
    } else if ((v = arg_value(arg, "--trace-out"))) {
      opt->trace_out = *v;
      opt->fuzz.capture_trace = true;
    } else if ((v = arg_value(arg, "--sample-cycles"))) {
      if (!hn::parse_u64("--sample-cycles", v->c_str(),
                         &opt->fuzz.sample_cycles)) {
        return false;
      }
    } else if (std::strcmp(arg, "--sample-cycles") == 0) {
      opt->fuzz.sample_cycles = hn::obs::kDefaultSampleCycles;
    } else if ((v = arg_value(arg, "--timeseries-out"))) {
      opt->timeseries_out = *v;
      if (opt->fuzz.sample_cycles == 0) {
        opt->fuzz.sample_cycles = hn::obs::kDefaultSampleCycles;
      }
    } else if ((v = arg_value(arg, "--failure-dir"))) {
      opt->failure_dir = *v;
      opt->fuzz.capture_trace = true;  // reproducers ship with their trace
    } else if (std::strcmp(arg, "--reference") == 0) {
      opt->fuzz.host_fast_path = false;
    } else if ((v = arg_value(arg, "--decoupled"))) {
      if (!hn::parse_u64("--decoupled", v->c_str(),
                         &opt->fuzz.decoupled_quantum)) {
        return false;
      }
    } else if (std::strcmp(arg, "--decoupled") == 0) {
      opt->fuzz.decoupled_quantum = hn::fuzz::kDefaultDecoupledQuantum;
    } else if (std::strcmp(arg, "--profile") == 0) {
      opt->fuzz.profile = true;
    } else if (std::strcmp(arg, "--snapshot-boot") == 0) {
      opt->fuzz.snapshot_boot = true;
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
  return true;
}

int replay(const Options& opt) {
  auto specs = hn::fuzz::build_matrix(opt.fuzz.full_matrix);
  for (auto& spec : specs) {
    spec.host_fast_path = opt.fuzz.host_fast_path;
    spec.decoupled_quantum = opt.fuzz.decoupled_quantum;
    spec.cores = opt.fuzz.cores;
  }
  hn::fuzz::GeneratorOptions gen{.ops = opt.fuzz.ops,
                                 .attacks = opt.fuzz.attacks,
                                 .forged = opt.fuzz.forged};
  hn::fuzz::ExecutorOptions exec{.inject_bypass = opt.fuzz.inject_bypass,
                                 .audit_stride = opt.fuzz.audit_stride};
  exec.capture_trace = !opt.trace_out.empty();
  exec.snapshot_boot = opt.fuzz.snapshot_boot;
  exec.profile = opt.fuzz.profile;
  exec.sample_cycles = opt.fuzz.sample_cycles;
  const auto ops = hn::fuzz::generate_sequence(*opt.replay_seed, gen);
  std::printf("replaying sequence seed %llu (%zu ops, %zu configurations)\n",
              static_cast<unsigned long long>(*opt.replay_seed), ops.size(),
              specs.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  [%zu] %s\n", i, hn::fuzz::describe(ops[i]).c_str());
  }
  std::vector<hn::fuzz::RunResult> runs;
  hn::fuzz::OracleReport report = hn::fuzz::run_sequence_seed(
      *opt.replay_seed, gen, specs, exec, &runs);
  if (opt.fuzz.profile) {
    hn::obs::ProfileReport merged;
    for (const hn::fuzz::RunResult& run : runs) merged.merge(run.profile);
    std::fprintf(stderr, "profile (replay self-time):\n%s",
                 hn::obs::render_profile(merged).c_str());
  }
  if (!opt.trace_out.empty() && !runs.empty()) {
    if (hn::sim::write_trace_file(runs[0].trace_blob, opt.trace_out)) {
      std::fprintf(stderr, "trace: %s trace written to %s\n",
                   specs[0].name.c_str(), opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   opt.trace_out.c_str());
    }
  }
  if (!opt.timeseries_out.empty() && !runs.empty()) {
    if (hn::obs::write_timeseries_file(runs[0].timeseries_blob,
                                       opt.timeseries_out)) {
      std::fprintf(stderr, "timeseries: %s stream written to %s\n",
                   specs[0].name.c_str(), opt.timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "timeseries: failed to write %s\n",
                   opt.timeseries_out.c_str());
    }
  }
  if (report.ok()) {
    std::puts("clean: all oracles passed");
    return 0;
  }
  for (const std::string& finding : report.findings) {
    std::printf("finding: %s\n", finding.c_str());
  }
  return 1;
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
  for (auto& spec : specs) {
    spec.host_fast_path = opt.fuzz.host_fast_path;
    spec.decoupled_quantum = opt.fuzz.decoupled_quantum;
    spec.cores = opt.fuzz.cores;
  }
  hn::fuzz::ExecutorOptions exec{.inject_bypass = opt.fuzz.inject_bypass,
                                 .audit_stride = opt.fuzz.audit_stride};
  exec.capture_trace = !opt.trace_out.empty();
  exec.snapshot_boot = opt.fuzz.snapshot_boot;
  exec.profile = opt.fuzz.profile;
  exec.sample_cycles = opt.fuzz.sample_cycles;

  std::printf("replaying %s (%zu ops, %zu configurations)\n",
              opt.replay_file.c_str(), ops.size(), specs.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    std::printf("  [%zu] %s\n", i, hn::fuzz::describe(ops[i]).c_str());
  }
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
  if (opt.fuzz.profile) {
    hn::obs::ProfileReport merged;
    for (const hn::fuzz::RunResult& run : runs) merged.merge(run.profile);
    std::fprintf(stderr, "profile (replay self-time):\n%s",
                 hn::obs::render_profile(merged).c_str());
  }
  if (!opt.trace_out.empty() && !runs.empty()) {
    if (hn::sim::write_trace_file(runs[0].trace_blob, opt.trace_out)) {
      std::fprintf(stderr, "trace: %s trace written to %s\n",
                   specs[0].name.c_str(), opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   opt.trace_out.c_str());
    }
  }
  if (!opt.timeseries_out.empty() && !runs.empty()) {
    if (hn::obs::write_timeseries_file(runs[0].timeseries_blob,
                                       opt.timeseries_out)) {
      std::fprintf(stderr, "timeseries: %s stream written to %s\n",
                   specs[0].name.c_str(), opt.timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "timeseries: failed to write %s\n",
                   opt.timeseries_out.c_str());
    }
  }
  hn::fuzz::OracleReport report = hn::fuzz::check_sequence(ops, specs, runs);
  if (report.ok()) {
    std::puts("clean: all oracles passed");
    return 0;
  }
  for (const std::string& finding : report.findings) {
    std::printf("finding: %s\n", finding.c_str());
  }
  return 1;
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
  opt.fuzz.jobs = 0;  // CLI default: hardware concurrency (library: 1)
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
    if (!opt.metrics_out.empty()) {
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
  if (!opt.metrics_out.empty()) {
    if (hn::obs::write_metrics_file(result.metrics, opt.metrics_out)) {
      std::fprintf(stderr, "metrics: %zu entries written to %s\n",
                   result.metrics.entries.size(), opt.metrics_out.c_str());
    } else {
      std::fprintf(stderr, "metrics: failed to write %s\n",
                   opt.metrics_out.c_str());
      return 2;
    }
  }
  if (!opt.trace_out.empty()) {
    if (hn::sim::write_trace_file(result.trace_blob, opt.trace_out)) {
      std::fprintf(stderr, "trace: campaign trace written to %s\n",
                   opt.trace_out.c_str());
    } else {
      std::fprintf(stderr, "trace: failed to write %s\n",
                   opt.trace_out.c_str());
      return 2;
    }
  }
  if (!opt.timeseries_out.empty()) {
    if (hn::obs::write_timeseries_file(result.timeseries_blob,
                                       opt.timeseries_out)) {
      std::fprintf(stderr, "timeseries: campaign stream written to %s\n",
                   opt.timeseries_out.c_str());
    } else {
      std::fprintf(stderr, "timeseries: failed to write %s\n",
                   opt.timeseries_out.c_str());
      return 2;
    }
  }
  return result.ok() ? 0 : 1;
}
