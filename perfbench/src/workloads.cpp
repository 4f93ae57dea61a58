#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <memory>
#include <thread>

#include "attacks/scenario.h"
#include "attacks/scorecard.h"
#include "common/rng.h"
#include "fuzz/fuzzer.h"
#include "hypernel/system.h"
#include "secapps/object_monitor.h"
#include "refloop.h"
#include "workloads/apps.h"
#include "workloads/lmbench.h"

namespace perfbench {

namespace {

using hn::hypernel::Mode;
using Clock = std::chrono::steady_clock;

constexpr Mode kModes[3] = {Mode::kNative, Mode::kKvmGuest, Mode::kHypernel};
constexpr const char* kApps[5] = {"whetstone", "dhrystone", "untar", "iozone",
                                  "apache"};
constexpr const char* kGranSlugs[2] = {"page", "word"};
constexpr unsigned kLmbenchIterations = 64;
constexpr double kFig6Scale = 0.35;
constexpr std::size_t kMaxErrors = 8;

// Paper reference values, as in bench/bench_table1_lmbench.cpp,
// bench/bench_fig6_apps.cpp and bench/bench_table2_granularity.cpp.
constexpr double kPaperT1[9][3] = {
    {1.92, 1.83, 1.94},       {0.68, 0.75, 0.68},     {2.96, 3.38, 2.98},
    {10.07, 11.45, 10.68},    {13.76, 16.08, 14.51},  {271.68, 337.84, 314.77},
    {285.53, 351.81, 340.70}, {1.57, 1.98, 1.89},     {24.60, 28.40, 27.50},
};
constexpr double kPaperF6AvgPct[2] = {13.5, 3.1};  // KVM-guest, Hypernel
constexpr double kPaperT2[5][2] = {
    {525, 48}, {637, 39}, {2173870, 96467}, {1510, 117}, {48650, 1754},
};

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

u64 fold(u64 h, u64 v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001B3ull;
  }
  return h;
}

u64 fold_double(u64 h, double d) {
  u64 bits = 0;
  std::memcpy(&bits, &d, sizeof bits);
  return fold(h, bits);
}

/// Timing context of one unit: null phase = untimed (the paper check).
struct Ctx {
  Phase* phase = nullptr;
  double pass_setup_ms = 0;  // set-up time accumulated in this pass

  [[nodiscard]] bool traced() const { return phase != nullptr && phase->traced; }
  /// Time a set-up stretch (boot, install, suite set-up).
  template <typename Fn>
  double setup(const char* name, Fn&& fn, SpanId parent = kNoSpan) {
    if (phase == nullptr) {
      fn();
      return 0;
    }
    const Clock::time_point t0 = Clock::now();
    const SpanId id = phase->spans.open(name, parent);
    fn();
    phase->spans.close(id);
    const double ms = ms_since(t0);
    pass_setup_ms += ms;
    return ms;
  }

  /// Time one item, then run one reference chunk.  `fn(span)` receives
  /// the item's span so it can open child spans.
  template <typename Fn>
  double item(const std::string& span_name, Fn&& fn) {
    if (phase == nullptr) {
      fn(kNoSpan);
      return 0;
    }
    const Clock::time_point t0 = Clock::now();
    const SpanId id = phase->spans.open(span_name);
    fn(id);
    phase->spans.close(id);
    const double ms = ms_since(t0);
    phase->item_ms.push_back(ms);
    phase->item_tags.push_back(span_name);
    ++phase->attempted;
    phase->ref_ms.push_back(run_reference_chunk());
    return ms;
  }

  /// A unit that failed before its items ran counts as one failed item.
  void fail_unit(const std::string& why) {
    if (phase == nullptr) return;
    ++phase->attempted;
    phase->fail(why);
  }
};

/// Build a system, timing it as set-up.  Returns null on failure.
std::unique_ptr<hn::hypernel::System> boot(Ctx& ctx, Mode mode, bool mbm) {
  hn::hypernel::SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mbm;
  std::unique_ptr<hn::hypernel::System> sys;
  const double ms = ctx.setup("hypernel.boot", [&] {
    auto built = hn::hypernel::System::create(cfg);
    if (built.ok()) sys = std::move(built).value();
  });
  if (ctx.phase != nullptr) {
    ++ctx.phase->boots;
    ctx.phase->boot_ms += ms;
  }
  return sys;
}

void arm_profiler(Ctx& ctx, hn::hypernel::System& sys) {
  if (!ctx.traced()) return;
  sys.machine().profiler().set_enabled(true);
  sys.machine().profiler().reset();
}

void collect_profiler(Ctx& ctx, hn::hypernel::System& sys) {
  if (!ctx.traced()) return;
  ctx.phase->profile.merge(sys.machine().profiler().report());
  sys.machine().profiler().set_enabled(false);
}

ModeCounters counters_since(hn::hypernel::System& sys,
                            const hn::hypernel::System::Snapshot& before) {
  const hn::sim::Counters c = sys.counters_since(before);
  return {.cycles = sys.cycles_since(before),
          .tlb_hits = c.tlb_hits,
          .tlb_misses = c.tlb_misses,
          .s1_fetches = c.pt_descriptor_fetches,
          .s2_fetches = c.s2_descriptor_fetches,
          .vm_exits = c.vm_exits,
          .hvc_calls = c.hvc_calls,
          .tvm_traps = c.sysreg_traps};
}

void add(ModeCounters& into, const ModeCounters& c) {
  into.cycles += c.cycles;
  into.tlb_hits += c.tlb_hits;
  into.tlb_misses += c.tlb_misses;
  into.s1_fetches += c.s1_fetches;
  into.s2_fetches += c.s2_fetches;
  into.vm_exits += c.vm_exits;
  into.hvc_calls += c.hvc_calls;
  into.tvm_traps += c.tvm_traps;
}

u64 counters_digest(const ModeCounters& c) {
  u64 h = hn::hypernel::kFnvOffset;
  for (const u64 v : {c.cycles, c.tlb_hits, c.tlb_misses, c.s1_fetches,
                      c.s2_fetches, c.vm_exits, c.hvc_calls, c.tvm_traps}) {
    h = fold(h, v);
  }
  return h;
}

/// Identity of one unit's simulated result: `digest` folds every
/// simulated output, so a timed pass can be compared with the check.
struct UnitResult {
  bool ok = false;
  std::string key;
  u64 digest = 0;
};

/// Record a unit's simulated result and per-mode host cost (timed phases).
void record_unit(Ctx& ctx, const UnitResult& unit, int mode, u64 cycles,
                 double host_ms) {
  if (ctx.phase == nullptr) return;
  ctx.phase->sim.emplace_back(unit.key, unit.digest);
  ctx.phase->sim_cycles[kModeSlugs[mode]] += static_cast<double>(cycles);
  ctx.phase->sim_host_ms[kModeSlugs[mode]] += host_ms;
}

// --- Units: shared by the timed passes and the paper check ----------------

struct T1Block : UnitResult {
  std::array<double, 9> us{};
  ModeCounters counters;
};

/// Table 1: one freshly booted system per mode, suite set-up, then the
/// nine LMbench ops in Table 1 order (they share the system's state).
T1Block run_t1_block(Ctx& ctx, int m) {
  T1Block out;
  out.key = std::string("t1/") + kModeSlugs[m];
  auto sys = boot(ctx, kModes[m], /*mbm=*/false);
  if (!sys) {
    ctx.fail_unit(std::string("t1 boot failed: ") + kModeSlugs[m]);
    return out;
  }
  hn::workloads::LmbenchSuite suite(*sys, kLmbenchIterations);
  hn::Status setup_status = hn::Status::Ok();
  ctx.setup("lmbench.setup", [&] { setup_status = suite.setup(); });
  if (!setup_status.ok()) {
    ctx.fail_unit("lmbench setup failed: " + setup_status.message());
    return out;
  }
  using Op = hn::workloads::LmbenchResult (hn::workloads::LmbenchSuite::*)();
  constexpr Op kOps[9] = {
      &hn::workloads::LmbenchSuite::syscall_stat,
      &hn::workloads::LmbenchSuite::signal_install,
      &hn::workloads::LmbenchSuite::signal_overhead,
      &hn::workloads::LmbenchSuite::pipe_latency,
      &hn::workloads::LmbenchSuite::socket_latency,
      &hn::workloads::LmbenchSuite::fork_exit,
      &hn::workloads::LmbenchSuite::fork_execv,
      &hn::workloads::LmbenchSuite::page_fault,
      &hn::workloads::LmbenchSuite::mmap,
  };
  const std::string tag = std::string("lmbench.") + kModeSlugs[m];
  const hn::hypernel::System::Snapshot before = sys->snapshot();
  double host_ms = 0;
  arm_profiler(ctx, *sys);
  for (int i = 0; i < 9; ++i) {
    host_ms += ctx.item(tag, [&](SpanId) { out.us[i] = (suite.*kOps[i])().us; });
  }
  collect_profiler(ctx, *sys);
  out.counters = counters_since(*sys, before);
  if (ctx.phase != nullptr) ctx.phase->host_ms[tag] += host_ms;
  out.digest = counters_digest(out.counters);
  for (const double us : out.us) out.digest = fold_double(out.digest, us);
  out.ok = true;
  record_unit(ctx, out, m, out.counters.cycles, host_ms);
  return out;
}

struct F6Cell : UnitResult {
  double us = 0;
  ModeCounters counters;
};

/// Fig. 6: one app on a freshly booted system (§7.1 setup, no MBM).
F6Cell run_f6_cell(Ctx& ctx, int m, int a) {
  F6Cell out;
  out.key = std::string("f6/") + kModeSlugs[m] + "/" + kApps[a];
  auto sys = boot(ctx, kModes[m], /*mbm=*/false);
  if (!sys) {
    ctx.fail_unit(std::string("f6 boot failed: ") + kModeSlugs[m]);
    return out;
  }
  hn::workloads::AppParams params;
  params.scale = kFig6Scale;
  const std::string tag = std::string("apps.") + kModeSlugs[m];
  const hn::hypernel::System::Snapshot before = sys->snapshot();
  arm_profiler(ctx, *sys);
  const double host_ms = ctx.item(out.key, [&](SpanId) {
    out.us = hn::workloads::run_app_by_name(*sys, kApps[a], params).us;
  });
  collect_profiler(ctx, *sys);
  out.counters = counters_since(*sys, before);
  if (ctx.phase != nullptr) ctx.phase->host_ms[tag] += host_ms;
  out.digest = fold_double(counters_digest(out.counters), out.us);
  out.ok = true;
  record_unit(ctx, out, m, out.counters.cycles, host_ms);
  return out;
}

struct T2Cell : UnitResult {
  MbmCell mbm;
};

/// Table 2: one app at paper scale under Hypernel + MBM with the object
/// integrity monitor at page (whole-object) or word granularity.
T2Cell run_t2_cell(Ctx& ctx, int a, int g) {
  T2Cell out;
  out.key = std::string("t2/") + kApps[a] + "/" + kGranSlugs[g];
  auto sys = boot(ctx, Mode::kHypernel, /*mbm=*/true);
  if (!sys) {
    ctx.fail_unit("t2 boot failed");
    return out;
  }
  hn::secapps::ObjectIntegrityMonitor monitor(
      *sys, g == 0 ? hn::secapps::Granularity::kWholeObject
                   : hn::secapps::Granularity::kSensitiveFields);
  hn::Status installed = hn::Status::Ok();
  const double install_ms =
      ctx.setup("secapps.install", [&] { installed = monitor.install(); });
  if (ctx.phase != nullptr) ctx.phase->install_ms += install_ms;
  if (!installed.ok()) {
    ctx.fail_unit("monitor install failed: " + installed.message());
    return out;
  }
  const std::string tag = std::string("mbm.") + kGranSlugs[g];
  const hn::hypernel::System::Snapshot before = sys->snapshot();
  arm_profiler(ctx, *sys);
  const double host_ms = ctx.item(out.key, [&](SpanId) {
    hn::workloads::run_app_by_name(*sys, kApps[a]);
  });
  collect_profiler(ctx, *sys);
  const hn::mbm::MbmStats s = sys->mbm()->stats();
  out.mbm = {.snooped_writes = s.snooped_word_writes,
             .detections = s.detections,
             .bitmap_cache_hits = s.bitmap_cache_hits,
             .bitmap_cache_misses = s.bitmap_cache_misses,
             .fifo_wait_cycles = s.fifo_wait_cycles,
             .fifo_drops = s.fifo_drops,
             .events_dispatched = sys->hypersec()->stats().events_dispatched};
  const u64 cycles = sys->cycles_since(before);
  if (ctx.phase != nullptr) {
    ctx.phase->host_ms[tag] += host_ms;
    ctx.phase->t2_detections[g] += s.detections;
    ctx.phase->t2_host_ms[g] += host_ms;
  }
  out.digest = fold(hn::hypernel::kFnvOffset, cycles);
  for (const u64 v :
       {out.mbm.snooped_writes, out.mbm.detections, out.mbm.bitmap_cache_hits,
        out.mbm.bitmap_cache_misses, out.mbm.fifo_wait_cycles,
        out.mbm.fifo_drops, out.mbm.events_dispatched}) {
    out.digest = fold(out.digest, v);
  }
  out.ok = true;
  record_unit(ctx, out, 2, cycles, host_ms);
  return out;
}

/// One attack-scorecard pass with causal trace attribution.
hn::attacks::Scorecard run_score_unit(Ctx& ctx) {
  hn::attacks::ScorecardOptions opt;
  opt.jobs = 1;
  opt.trace_attribution = true;
  opt.profile = ctx.traced();
  hn::attacks::Scorecard score;
  const double host_ms = ctx.item(
      "attacks.scorecard", [&](SpanId) { score = hn::attacks::run_scorecard(opt); });
  if (ctx.phase != nullptr) {
    if (!score.ok(/*require_attribution=*/true)) {
      ctx.phase->fail("scorecard: missed, false or unattributed detection");
    }
    ctx.phase->host_ms["attacks.scorecard"] += host_ms;
    if (ctx.traced()) ctx.phase->profile.merge(score.profile);
    ctx.phase->sim.emplace_back("score", score.digest);
  }
  return score;
}

/// Seed-shuffled unit order for one pass.  The order of fresh-system units
/// never changes simulated results, only which host state each meets.
std::vector<int> shuffled(int n, u64 seed, u64 pass) {
  std::vector<int> order(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) order[static_cast<std::size_t>(i)] = i;
  hn::SplitMix64 rng(seed * 0x9E3779B97F4A7C15ull + pass);
  for (int i = n - 1; i > 0; --i) {
    const auto j = static_cast<int>(rng.next_below(static_cast<u64>(i) + 1));
    std::swap(order[static_cast<std::size_t>(i)],
              order[static_cast<std::size_t>(j)]);
  }
  return order;
}

/// Repeat `pass(ctx, index)` until `seconds` elapsed, recording each
/// pass's set-up time.  Passes always complete, so every run measures a
/// whole number of fixed mixes.
template <typename Pass>
void run_passes(Phase& phase, double seconds, Pass&& pass) {
  const Clock::time_point t0 = Clock::now();
  u64 index = 0;
  do {
    Ctx ctx{.phase = &phase};
    pass(ctx, index++);
    phase.setup_ms.push_back(ctx.pass_setup_ms);
  } while (ms_since(t0) < seconds * 1000.0);
}

// --- fuzz_campaign ---------------------------------------------------------

const char* config_slug(const std::string& name) {
  if (name == "hypernel-word") return "hypernel_word";
  if (name == "hypernel-object") return "hypernel_object";
  return name.c_str();
}

bool identical(const hn::fuzz::RunResult& a, const hn::fuzz::RunResult& b) {
  if (a.build_failed != b.build_failed || a.steps.size() != b.steps.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.steps.size(); ++i) {
    if (a.steps[i].result != b.steps[i].result ||
        a.steps[i].state_digest != b.steps[i].state_digest ||
        a.steps[i].alerts != b.steps[i].alerts ||
        a.steps[i].events != b.steps[i].events) {
      return false;
    }
  }
  return a.fingerprint.functional_hash() == b.fingerprint.functional_hash() &&
         a.fingerprint.cycles == b.fingerprint.cycles &&
         a.violations == b.violations;
}

/// The fuzz set-up: boot and snapshot every matrix configuration on the
/// calling thread (snapshot-boot sessions are thread_local), by running an
/// empty sequence under each.
double fuzz_setup(Phase& phase, const std::vector<hn::fuzz::FuzzConfigSpec>& specs,
                  const hn::fuzz::ExecutorOptions& exec) {
  Ctx ctx{.phase = &phase};
  const SpanId root = phase.spans.open("setup");
  for (const hn::fuzz::FuzzConfigSpec& spec : specs) {
    hn::fuzz::RunResult run;
    const double ms = ctx.setup(
        "hypernel.boot", [&] { run = hn::fuzz::run_sequence(spec, {}, exec); },
        root);
    ++phase.boots;
    phase.boot_ms += ms;
    if (run.build_failed) {
      ++phase.attempted;
      phase.fail("fuzz boot failed: " + run.build_error);
    }
  }
  phase.spans.close(root);
  return ctx.pass_setup_ms;
}

}  // namespace

void Phase::fail(const std::string& why) {
  ++failed;
  if (errors.size() < kMaxErrors) errors.push_back(why);
}

void run_fuzz_phase(Phase& phase, u64 seed, double seconds) {
  const std::vector<hn::fuzz::FuzzConfigSpec> specs =
      hn::fuzz::build_matrix(/*full=*/false);
  const std::vector<std::vector<hn::fuzz::Op>> pool =
      hn::attacks::scenario_pool();
  const hn::fuzz::GeneratorOptions gen{.ops = kFuzzOps,
                                       .extended_attacks = true,
                                       .scenario_pool = pool};
  const hn::fuzz::ExecutorOptions exec{.audit_stride = 1,
                                       .snapshot_boot = true,
                                       .profile = phase.traced};

  // The first set-up happens on the worker thread, which keeps its
  // sessions and runs the items.  Further set-ups are spread through the
  // run, each on a fresh thread that re-pays the thread_local boot
  // sessions, so setup_s samples the whole run rather than its start.
  std::thread([&] {
    phase.setup_ms.push_back(fuzz_setup(phase, specs, exec));
    Ctx ctx{.phase = &phase};
    const Clock::time_point t0 = Clock::now();
    for (u64 index = 0; ms_since(t0) < seconds * 1000.0; ++index) {
      std::vector<hn::fuzz::RunResult> runs;
      runs.reserve(specs.size());
      std::vector<std::string> findings;
      ctx.item("fuzz.item", [&](SpanId item) {
        std::vector<hn::fuzz::Op> ops;
        {
          Span s(phase.spans, "fuzz.generate", item);
          ops = hn::fuzz::generate_sequence(hn::fuzz::sequence_seed(seed, index),
                                            gen);
        }
        for (const hn::fuzz::FuzzConfigSpec& spec : specs) {
          Span s(phase.spans, std::string("fuzz.run.") + config_slug(spec.name),
                 item);
          runs.push_back(hn::fuzz::run_sequence(spec, ops, exec));
        }
        hn::fuzz::RunResult rerun;
        {
          Span s(phase.spans, "fuzz.run.reference_rerun", item);
          rerun = hn::fuzz::run_sequence(specs[0], ops, exec);
        }
        Span s(phase.spans, "fuzz.oracle", item);
        findings = hn::fuzz::check_sequence(ops, specs, runs).findings;
        if (!identical(runs[0], rerun)) {
          findings.push_back("reference re-run was not bit-identical");
        }
        runs.push_back(std::move(rerun));
      });
      if (!findings.empty()) {
        phase.fail("sequence " + std::to_string(index) + ": " + findings[0]);
      }
      u64 h = hn::hypernel::kFnvOffset;
      for (std::size_t k = 0; k < runs.size(); ++k) {
        const hn::fuzz::RunResult& run = runs[k];
        h = fold(fold(h, run.fingerprint.functional_hash()), run.fingerprint.cycles);
        const int mode = static_cast<int>(specs[k < specs.size() ? k : 0].mode);
        phase.sim_cycles[kModeSlugs[mode]] +=
            static_cast<double>(run.fingerprint.cycles);
        if (phase.traced) phase.profile.merge(run.profile);
      }
      phase.sim.emplace_back("seq/" + std::to_string(index), h);
      if (index % kFuzzSetupEvery == kFuzzSetupEvery - 1) {
        std::thread([&] {
          phase.setup_ms.push_back(fuzz_setup(phase, specs, exec));
        }).join();
      }
    }
    // Host ms per mode come from the run spans (traced phases only).
    if (phase.traced) {
      for (const hn::fuzz::FuzzConfigSpec& spec : specs) {
        phase.sim_host_ms[kModeSlugs[static_cast<int>(spec.mode)]] +=
            phase.spans.total_ms(std::string("fuzz.run.") + config_slug(spec.name));
      }
      phase.sim_host_ms["hypernel"] +=
          phase.spans.total_ms("fuzz.run.reference_rerun");
    }
  }).join();
}

void run_paper_phase(Phase& phase, u64 seed, double seconds) {
  // 3 Table 1 mode blocks + 15 Fig. 6 cells, seed-shuffled per pass.
  run_passes(phase, seconds, [&](Ctx& ctx, u64 pass) {
    for (const int unit : shuffled(18, seed, pass)) {
      if (unit < 3) {
        run_t1_block(ctx, unit);
      } else {
        run_f6_cell(ctx, (unit - 3) / 5, (unit - 3) % 5);
      }
    }
  });
}

void run_mbm_phase(Phase& phase, u64 seed, double seconds) {
  // 10 Table 2 cells + 1 scorecard pass, seed-shuffled per pass.
  run_passes(phase, seconds, [&](Ctx& ctx, u64 pass) {
    for (const int unit : shuffled(11, seed, pass)) {
      if (unit < 10) {
        run_t2_cell(ctx, unit / 2, unit % 2);
      } else {
        run_score_unit(ctx);
      }
    }
  });
}

PaperCheck run_paper_check() {
  PaperCheck check;
  PaperResults& r = check.results;
  auto note = [&check](const UnitResult& unit) {
    ++check.attempted;
    check.digests[unit.key] = unit.digest;
    if (!unit.ok) {
      ++check.failed;
      if (check.errors.size() < kMaxErrors) check.errors.push_back(unit.key);
    }
  };
  Ctx ctx;  // no phase: untimed
  for (int m = 0; m < 3; ++m) {
    const T1Block block = run_t1_block(ctx, m);
    note(block);
    r.t1_us[static_cast<std::size_t>(m)] = block.us;
    add(r.counters[static_cast<std::size_t>(m)], block.counters);
    for (int a = 0; a < 5; ++a) {
      const F6Cell cell = run_f6_cell(ctx, m, a);
      note(cell);
      r.f6_us[static_cast<std::size_t>(m)][static_cast<std::size_t>(a)] =
          cell.us;
      add(r.counters[static_cast<std::size_t>(m)], cell.counters);
    }
  }
  for (int a = 0; a < 5; ++a) {
    for (int g = 0; g < 2; ++g) {
      const T2Cell cell = run_t2_cell(ctx, a, g);
      note(cell);
      r.t2[static_cast<std::size_t>(a)][static_cast<std::size_t>(g)] = cell.mbm;
    }
  }
  const hn::attacks::Scorecard score = run_score_unit(ctx);
  note({.ok = score.ok(/*require_attribution=*/true),
        .key = "score",
        .digest = score.digest});
  for (const hn::attacks::ScorecardCell& cell : score.cells) {
    if (!cell.intended || !cell.expected_seen) continue;
    ++r.scorecard_hits;
    if (cell.attributed) ++r.scorecard_attributed;
    r.detect_cycles.push_back(cell.latency);
  }
  for (const hn::attacks::DetectorSummary& sum : score.summary) {
    r.scorecard_false_positives += sum.false_positives;
  }
  return check;
}

double PaperResults::hypernel_overhead_pct() const {
  double sum = 0;
  for (std::size_t i = 0; i < 9; ++i) sum += t1_us[2][i] / t1_us[0][i] - 1.0;
  for (std::size_t a = 0; a < 5; ++a) sum += f6_us[2][a] / f6_us[0][a] - 1.0;
  return 100.0 * sum / 14.0;
}

double PaperResults::paper_err_pct() const {
  double err = 0;
  int terms = 0;
  auto add_term = [&](double measured, double paper) {
    err += std::abs(measured - paper) / paper;
    ++terms;
  };
  for (std::size_t i = 0; i < 9; ++i) {
    for (std::size_t m = 0; m < 3; ++m) add_term(t1_us[m][i], kPaperT1[i][m]);
  }
  for (std::size_t m = 1; m < 3; ++m) {
    double overhead = 0;
    for (std::size_t a = 0; a < 5; ++a) overhead += f6_us[m][a] / f6_us[0][a] - 1.0;
    add_term(100.0 * overhead / 5.0, kPaperF6AvgPct[m - 1]);
  }
  for (std::size_t a = 0; a < 5; ++a) {
    for (std::size_t g = 0; g < 2; ++g) {
      add_term(static_cast<double>(t2[a][g].detections), kPaperT2[a][g]);
    }
  }
  return 100.0 * err / terms;
}

double PaperResults::mbm_word_trap_pct() const {
  u64 page = 0;
  u64 word = 0;
  for (const auto& row : t2) {
    page += row[0].detections;
    word += row[1].detections;
  }
  return page == 0 ? 0 : 100.0 * static_cast<double>(word) /
                             static_cast<double>(page);
}

void compare_sim(Phase& phase, const std::map<std::string, u64>& ref) {
  for (const auto& [key, digest] : phase.sim) {
    const auto it = ref.find(key);
    if (it != ref.end() && it->second != digest) {
      phase.fail("simulated result of " + key + " differs from the reference");
    }
  }
}

}  // namespace perfbench
