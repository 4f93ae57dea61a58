// hypernel-sim: command-line driver for the Hypernel simulation.
//
//   hypernel-sim lmbench  [--mode=native|kvm|hypernel] [--iters=N]
//   hypernel-sim app      --name=<whetstone|dhrystone|untar|iozone|apache>
//                         [--mode=...] [--scale=X] [--seed=N]
//                         [--monitor=none|word|object]
//   hypernel-sim attack   --scenario=<slug|cred|dentry|transient|dma>
//                         [--trace]
//   hypernel-sim audit    (forged-hypercall storm + invariant audit)
//   hypernel-sim info     (configuration and timing-model dump)
//
// Every command but attack also takes --save-state / --load-state, and
// every command four common run flags (tools/run_options.h); a bad flag
// or failed write exits 2.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "common/hvc_abi.h"
#include "common/parse.h"
#include "common/rng.h"
#include "fuzz/executor.h"
#include "hypernel/system.h"
#include "secapps/object_monitor.h"
#include "sim/snapshot.h"
#include "sim/trace_io.h"
#include "tools/run_options.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace {

using namespace hn;
using tools::flag_value;

constexpr unsigned kRunFlags = tools::kMetricsOutFlag | tools::kTraceOutFlag |
                               tools::kSampleCyclesFlag |
                               tools::kTimeseriesOutFlag;

struct Options {
  std::string command;
  hypernel::Mode mode = hypernel::Mode::kHypernel;
  unsigned iters = 32;
  std::string name = "untar";
  double scale = 0.2;
  u64 seed = 0x90DA'5EED;
  std::string monitor = "none";
  std::string scenario = "cred";
  bool trace = false;
  tools::RunOptions run;
  std::string save_state;  // write a machine snapshot at command exit
  std::string load_state;  // restore a machine snapshot right after boot
};

/// Largest --scale: 16x the paper-sized runs.
constexpr double kMaxAppScale = 16;

/// The attack demo's first four names, kept as aliases of library
/// scenarios.  Every library tamper op writes and then restores its word,
/// so the transient attack is the setuid cred theft.
constexpr std::pair<std::string_view, std::string_view> kScenarioAliases[] = {
    {"cred", "cred-theft-setuid"},
    {"dentry", "dentry-hide-vtable"},
    {"dma", "cred-theft-dma"},
    {"transient", "cred-theft-setuid"},
};

/// Library lookup by slug or alias; nullptr when unknown.
const attacks::AttackScenario* find_attack(std::string_view name) {
  for (const auto& [alias, slug] : kScenarioAliases) {
    if (name == alias) return attacks::find_scenario(slug);
  }
  return attacks::find_scenario(name);
}

bool parse(int argc, char** argv, Options& opt) {
  if (argc < 2) return false;
  opt.command = argv[1];
  // The command stands in for argv[0]: the flags follow it.
  int flags = argc - 1;
  if (!tools::strip_run_flags(&flags, argv + 1, kRunFlags, &opt.run)) {
    return false;
  }
  for (int i = 2; i <= flags; ++i) {
    const char* arg = argv[i];
    const char* v = nullptr;
    if ((v = flag_value(arg, "--mode"))) {
      if (std::strcmp(v, "native") == 0) {
        opt.mode = hypernel::Mode::kNative;
      } else if (std::strcmp(v, "kvm") == 0) {
        opt.mode = hypernel::Mode::kKvmGuest;
      } else if (std::strcmp(v, "hypernel") == 0) {
        opt.mode = hypernel::Mode::kHypernel;
      } else {
        std::fprintf(stderr, "unknown mode '%s'\n", v);
        return false;
      }
    } else if ((v = flag_value(arg, "--iters"))) {
      if (!parse_u64("--iters", v, &opt.iters)) return false;
      if (opt.iters == 0) {
        std::fprintf(stderr, "--iters must be at least 1\n");
        return false;
      }
    } else if ((v = flag_value(arg, "--name"))) {
      auto same = [v](const char* n) { return std::strcmp(n, v) == 0; };
      if (std::ranges::none_of(workloads::kAppNames, same)) {
        std::fprintf(stderr, "unknown app '%s'\n", v);
        return false;
      }
      opt.name = v;
    } else if ((v = flag_value(arg, "--scale"))) {
      if (!parse_decimal("--scale", v, kMaxAppScale, &opt.scale)) {
        return false;
      }
    } else if ((v = flag_value(arg, "--seed"))) {
      if (!parse_u64("--seed", v, &opt.seed)) return false;
    } else if ((v = flag_value(arg, "--monitor"))) {
      const std::string monitor = v;
      if (monitor != "none" && monitor != "word" && monitor != "object") {
        std::fprintf(stderr, "unknown monitor '%s'\n", v);
        return false;
      }
      opt.monitor = monitor;
    } else if ((v = flag_value(arg, "--scenario"))) {
      if (find_attack(v) == nullptr) {
        std::fprintf(stderr, "unknown scenario '%s'\n", v);
        return false;
      }
      opt.scenario = v;
    } else if ((v = flag_value(arg, "--save-state"))) {
      opt.save_state = v;
    } else if ((v = flag_value(arg, "--load-state"))) {
      opt.load_state = v;
    } else if (std::strcmp(arg, "--trace") == 0) {
      opt.trace = true;
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg);
      return false;
    }
  }
  if (opt.command == "app" && opt.monitor != "none" &&
      opt.mode != hypernel::Mode::kHypernel) {
    std::fprintf(stderr, "--monitor requires --mode=hypernel\n");
    return false;
  }
  if (opt.command == "attack" &&
      (!opt.save_state.empty() || !opt.load_state.empty())) {
    // The fuzz executor builds and owns the attacked system.
    std::fprintf(stderr, "attack takes no --save-state/--load-state\n");
    return false;
  }
  return true;
}

std::unique_ptr<hypernel::System> build(const Options& opt, bool want_mbm) {
  hypernel::SystemConfig cfg;
  cfg.mode = opt.mode;
  cfg.enable_mbm = want_mbm && opt.mode != hypernel::Mode::kKvmGuest;
  // The flight recorder interleaves obs spans on the exported timeline,
  // and spans only record when the registry is enabled.
  cfg.metrics = !opt.run.metrics_out.empty() || !opt.run.trace_out.empty();
  cfg.machine.sample_cycles = opt.run.sample_cycles;
  auto r = hypernel::System::create(cfg);
  if (!r.ok()) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 r.status().message().c_str());
    std::exit(1);
  }
  if (!opt.run.trace_out.empty()) {
    r.value()->machine().trace().set_enabled(true);
  }
  if (!opt.load_state.empty()) {
    std::vector<u8> blob;
    if (!sim::read_snapshot_file(opt.load_state, blob)) {
      std::fprintf(stderr, "load-state: cannot read %s\n",
                   opt.load_state.c_str());
      std::exit(1);
    }
    sim::Snapshot snap;
    if (Status s = sim::unpack_snapshot(blob, snap); !s.ok()) {
      std::fprintf(stderr, "load-state: %s\n", s.message().c_str());
      std::exit(1);
    }
    if (Status s = r.value()->restore_state(snap); !s.ok()) {
      std::fprintf(stderr, "load-state: %s\n", s.message().c_str());
      std::exit(1);
    }
    std::fprintf(stderr, "load-state: restored %s (%llu populated page(s))\n",
                 opt.load_state.c_str(),
                 (unsigned long long)snap.pages.populated_count());
  }
  return std::move(r).value();
}

/// Write the machine snapshot when --save-state was given.
bool dump_state(const Options& opt, hypernel::System& sys) {
  if (opt.save_state.empty()) return true;
  const sim::Snapshot snap = sys.save_state();
  const std::vector<u8> blob = sim::pack_snapshot(snap);
  if (!sim::write_snapshot_file(blob, opt.save_state)) {
    std::fprintf(stderr, "save-state: failed to write %s\n",
                 opt.save_state.c_str());
    return false;
  }
  std::fprintf(stderr, "save-state: %zu byte(s) written to %s\n", blob.size(),
               opt.save_state.c_str());
  return true;
}

/// All exit artifacts (--metrics-out / --trace-out / --timeseries-out /
/// --save-state), in one place.
bool dump_outputs(const Options& opt, hypernel::System& sys) {
  const tools::RunOptions& run = opt.run;
  const obs::Snapshot metrics =
      run.metrics_out.empty() ? obs::Snapshot{} : sys.metrics_snapshot();
  const std::vector<u8> trace = run.trace_out.empty()
                                    ? std::vector<u8>{}
                                    : sim::capture_trace(sys.machine());
  const std::vector<u8> timeseries =
      run.timeseries_out.empty() ? std::vector<u8>{}
                                 : sim::capture_timeseries(sys.machine());
  const bool artifacts_ok =
      tools::write_artifacts(run, metrics, trace, timeseries, opt.command);
  const bool state_ok = dump_state(opt, sys);
  return artifacts_ok && state_ok;
}

int cmd_lmbench(const Options& opt) {
  auto sys = build(opt, false);
  std::printf("LMbench kernel operations, %s, %u iterations\n",
              hypernel::mode_name(opt.mode), opt.iters);
  workloads::LmbenchSuite suite(*sys, opt.iters);
  for (const auto& r : suite.run_all()) {
    std::printf("  %-16s %8.2f us\n", r.name.c_str(), r.us);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

int cmd_app(const Options& opt) {
  const bool want_monitor = opt.monitor != "none";  // Hypernel (parse())
  auto sys = build(opt, want_monitor);
  std::unique_ptr<secapps::ObjectIntegrityMonitor> monitor;
  if (want_monitor) {
    monitor = std::make_unique<secapps::ObjectIntegrityMonitor>(
        *sys, opt.monitor == "word"
                  ? secapps::Granularity::kSensitiveFields
                  : secapps::Granularity::kWholeObject);
    if (!monitor->install().ok()) {
      std::fprintf(stderr, "monitor install failed\n");
      return 1;
    }
  }
  workloads::AppParams p;
  p.scale = opt.scale;
  p.seed = opt.seed;
  const workloads::AppResult r =
      workloads::run_app_by_name(*sys, opt.name, p);
  std::printf("%s on %s: %.0f us simulated (%.2f ms)\n", r.name.c_str(),
              hypernel::mode_name(opt.mode), r.us, r.us / 1000.0);
  if (monitor) {
    std::printf("monitor(%s): %llu events, %zu alerts; MBM detections %llu, "
                "IRQs %llu\n",
                opt.monitor.c_str(),
                (unsigned long long)monitor->stats().events_total,
                monitor->alerts().size(),
                (unsigned long long)sys->mbm()->stats().detections,
                (unsigned long long)sys->mbm()->stats().irqs_raised);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

/// Replay one library scenario under its intended detector, exactly as
/// the scorecard runs that cell.  Exit 0 only when the detector raised the
/// scenario's declared alert at or after the tamper.
int cmd_attack(const Options& opt) {
  const attacks::AttackScenario& scenario = *find_attack(opt.scenario);
  fuzz::FuzzConfigSpec spec;
  for (const fuzz::FuzzConfigSpec& s : attacks::detector_configs()) {
    if (s.name == scenario.intended_detector) spec = s;
  }
  fuzz::ExecutorOptions exec;
  if (opt.trace) exec.trace_step = scenario.tamper_steps.front();
  exec.collect_metrics = !opt.run.metrics_out.empty();
  exec.capture_trace = !opt.run.trace_out.empty();
  exec.sample_cycles = opt.run.sample_cycles;
  const fuzz::RunResult run = fuzz::run_sequence(spec, scenario.ops, exec);
  if (run.build_failed) {
    std::fprintf(stderr, "system creation failed: %s\n",
                 run.build_error.c_str());
    return 1;
  }
  const attacks::ScorecardCell cell = attacks::grade_cell(
      scenario, spec, run, /*trace_attribution=*/exec.capture_trace);

  std::printf("scenario '%s' (%s): %s\n", scenario.name.c_str(),
              attacks::family_name(scenario.family),
              scenario.description.c_str());
  if (opt.trace) {
    std::printf("--- architectural trace (tamper step %llu) ---\n",
                (unsigned long long)exec.trace_step);
    for (const std::string& line : run.trace) {
      std::printf("%s\n", line.c_str());
    }
  }
  std::printf("%s: %zu alert(s)\n", spec.name.c_str(), run.alert_log.size());
  for (const fuzz::AlertRecord& a : run.alert_log) {
    std::printf("  [%s] pa=%#llx at %llu cy\n",
                secapps::alert_kind_name(a.kind), (unsigned long long)a.pa,
                (unsigned long long)a.at);
  }
  if (cell.expected_seen) {
    std::printf("detected: %s, %llu cycles after the tamper\n",
                secapps::alert_kind_name(scenario.expected_alert),
                (unsigned long long)cell.latency);
  } else {
    std::printf("MISSED: no %s at or after the tamper\n",
                secapps::alert_kind_name(scenario.expected_alert));
  }
  if (exec.capture_trace) {
    std::printf("causal chain to a bus write: %s\n",
                cell.attributed ? "yes" : "no");
  }
  if (!tools::write_artifacts(opt.run, run.metrics, run.trace_blob,
                              run.timeseries_blob, opt.command)) {
    return 2;
  }
  return cell.expected_seen ? 0 : 1;
}

int cmd_audit(const Options& opt) {
  Options hy = opt;
  hy.mode = hypernel::Mode::kHypernel;
  auto sys = build(hy, false);
  kernel::Kernel& k = sys->kernel();
  SplitMix64 rng(opt.seed);
  u64 accepted = 0;
  u64 denied = 0;
  for (int i = 0; i < 5000; ++i) {
    const PhysAddr table =
        page_align_down(rng.next_below(sys->machine().phys().size()));
    const u64 desc = rng.next();
    if (sys->machine().hvc(hvc::kPtWrite,
                           {table, rng.next_below(kPtEntries), desc}) ==
        hvc::kOk) {
      ++accepted;
    } else {
      ++denied;
    }
  }
  const auto violations = sys->hypersec()->audit();
  std::printf("forged hypercall storm: %llu accepted, %llu denied\n",
              (unsigned long long)accepted, (unsigned long long)denied);
  std::printf("invariant audit: %zu violation(s)\n", violations.size());
  for (const std::string& v : violations) std::printf("  %s\n", v.c_str());
  std::printf("kernel alive: %s\n",
              k.sys_creat("/post-storm").ok() ? "yes" : "no");
  if (!dump_outputs(opt, *sys)) return 2;
  return violations.empty() ? 0 : 1;
}

int cmd_info(const Options& opt) {
  auto sys = build(opt, opt.mode == hypernel::Mode::kHypernel);
  const TimingModel& t = sys->machine().timing();
  std::printf("mode: %s\n", hypernel::mode_name(opt.mode));
  std::printf("DRAM: %llu MiB, secure space: %llu MiB @ %#llx\n",
              (unsigned long long)(sys->machine().phys().size() >> 20),
              (unsigned long long)(sys->machine().secure_size() >> 20),
              (unsigned long long)sys->machine().secure_base());
  std::printf("clock: %.2f GHz; L1 hit %llu cy, fill %llu cy, NC %llu cy\n",
              t.cpu_ghz, (unsigned long long)t.l1_hit,
              (unsigned long long)t.l1_miss_fill,
              (unsigned long long)t.noncacheable_access);
  std::printf("HVC %llu cy, trap %llu cy, VM exit+entry %llu cy\n",
              (unsigned long long)t.hvc_roundtrip,
              (unsigned long long)t.sysreg_trap,
              (unsigned long long)(t.vm_exit + t.vm_entry));
  std::printf("kernel PT pages: %llu; boot cycles: %llu\n",
              (unsigned long long)sys->kernel().kpt().pt_page_count(),
              (unsigned long long)sys->machine().account().cycles());
  if (sys->hypersec() != nullptr) {
    std::printf("hypersec: engaged (verifier checked %llu writes so far)\n",
                (unsigned long long)
                    sys->hypersec()->verifier().stats().checked);
  }
  return dump_outputs(opt, *sys) ? 0 : 2;
}

void usage() {
  std::fputs(
      "usage: hypernel-sim <command> [options]\n"
      "  lmbench [--mode=native|kvm|hypernel] [--iters=N]\n"
      "  app     --name=<whetstone|dhrystone|untar|iozone|apache>\n"
      "          [--mode=...] [--scale=X] [--seed=N] [--monitor=none|word|object]\n"
      "          (X: decimal in (0, 16]; 1 = paper-sized run, default 0.2)\n"
      "  attack  --scenario=S [--trace]  (S: a scenario-library slug, or\n"
      "          cred|dentry|transient|dma)\n"
      "  audit   [--seed=N]\n"
      "  info    [--mode=...]\n"
      "  --save-state=F / --load-state=F (not attack): write the machine\n"
      "  snapshot at exit / restore one right after boot (the configuration\n"
      "  must match the one the snapshot was taken from).  Every command\n"
      "  also takes:\n",
      stderr);
  std::fputs(tools::run_flags_usage(kRunFlags).c_str(), stderr);
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  if (!parse(argc, argv, opt)) {
    usage();
    return 2;
  }
  if (opt.command == "lmbench") return cmd_lmbench(opt);
  if (opt.command == "app") return cmd_app(opt);
  if (opt.command == "attack") return cmd_attack(opt);
  if (opt.command == "audit") return cmd_audit(opt);
  if (opt.command == "info") return cmd_info(opt);
  usage();
  return 2;
}
