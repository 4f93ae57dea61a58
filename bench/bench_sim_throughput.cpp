// Host-side simulation throughput microbench (DESIGN.md §9).
//
// Measures how many *simulated* memory accesses per second of *host*
// wall-clock the inner loop of the memory system sustains, with the host
// fast path on (cached walk context, O(1) TLB index, bulk charge-replay)
// and off (reference mode).  Four loops isolate the fast-path mechanisms
// every table, ablation and fuzz campaign funnels through:
//
//   tlb_hit      — pointer-chase over a working set inside TLB reach
//   walk_heavy   — working set past TLB reach: every access walks
//   s2_nested    — walk-heavy with stage 2 enabled (nested descriptor
//                  fetches, the architectural blow-up of §3)
//   bulk_copy    — read/write_block_bulk over a non-cacheable buffer
//                  (the charge-replay path; bus-visible traffic)
//
// End-to-end host throughput (whole fuzz campaigns, snapshot forks) is
// perfbench's record (perfbench/README.md); its fast-vs-reference
// identity is pinned by campaign_digest_test and snapshot_invariance_test.
//
// Both modes run the same simulated workload; the bench asserts their
// simulated cycles and key counters are bit-identical before reporting,
// so a speedup can never be bought with a behaviour change.  Results are
// printed as a table and written to BENCH_sim_throughput.json.
//
//   bench_sim_throughput [--quick] [--repeat=N] [--out=PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/parse.h"
#include "common/stopwatch.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace {

using namespace hn;
using namespace hn::sim;

struct LoopResult {
  std::string name;
  u64 work = 0;          // simulated accesses per mode run
  double fast_ns = 0;    // host wall-clock, fast path on
  double ref_ns = 0;     // host wall-clock, reference mode
  Cycles sim_cycles = 0; // simulated cycles per run (identical both modes)

  [[nodiscard]] double fast_rate() const {
    return static_cast<double>(work) / (fast_ns / 1e9);
  }
  [[nodiscard]] double ref_rate() const {
    return static_cast<double>(work) / (ref_ns / 1e9);
  }
  [[nodiscard]] double speedup() const { return fast_ns > 0 ? ref_ns / fast_ns : 0; }
};

/// A raw machine with a page-table builder: the bench drives sim::Machine
/// directly so the loop under test is exactly Machine::access64 /
/// the bulk paths, with no kernel logic on top.
class BenchMachine {
 public:
  explicit BenchMachine(bool fast_path, bool stage2 = false)
      : machine_(make_config(fast_path)), next_table_(1 * 1024 * 1024) {
    root_ = alloc_table();
    machine_.set_sysreg_raw(SysReg::TTBR1_EL1, root_);
    if (stage2) {
      s2_root_ = alloc_table();
      machine_.set_sysreg_raw(SysReg::VTTBR_EL2, s2_root_);
      machine_.set_sysreg_raw(SysReg::HCR_EL2, u64{1} << kHcrVm);
    }
  }

  static MachineConfig make_config(bool fast_path) {
    MachineConfig cfg;
    cfg.host_fast_path = fast_path;
    return cfg;
  }

  PhysAddr alloc_table() {
    const PhysAddr t = next_table_;
    next_table_ += kPageSize;
    machine_.phys().zero_range(t, kPageSize);
    return t;
  }

  void map(VirtAddr va, PhysAddr pa, const PageAttrs& attrs) {
    PhysAddr table = root_;
    for (unsigned level = 0; level <= 2; ++level) {
      const PhysAddr slot = table + va_index(va, level) * 8;
      u64 d = machine_.phys().read64(slot);
      if (!desc_valid(d)) {
        const PhysAddr next = alloc_table();
        d = make_table_desc(next);
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(va, 3) * 8,
                            make_page_desc(pa, attrs));
    if (s2_root_ != 0) map_s2(pa);
  }

  /// Identity-map one IPA page in the stage-2 tables (plus the stage-1
  /// table pages themselves, which nested descriptor fetches translate).
  void map_s2(IpaAddr ipa) {
    PhysAddr table = s2_root_;
    for (unsigned level = 0; level <= 2; ++level) {
      const PhysAddr slot = table + va_index(ipa, level) * 8;
      u64 d = machine_.phys().read64(slot);
      if (!desc_valid(d)) {
        const PhysAddr next = alloc_table();
        d = make_table_desc(next);
        machine_.phys().write64(slot, d);
      }
      table = desc_out_addr(d);
    }
    machine_.phys().write64(table + va_index(ipa, 3) * 8,
                            make_s2_page_desc(ipa, S2Attrs{}));
  }

  /// Stage-2-map every table page allocated so far (call after building
  /// stage-1 mappings so nested fetches of descriptors succeed).
  void s2_map_tables() {
    for (PhysAddr t = 1 * 1024 * 1024; t < next_table_; t += kPageSize) {
      map_s2(t);
    }
  }

  Machine& m() { return machine_; }

 private:
  Machine machine_;
  PhysAddr next_table_;
  PhysAddr root_ = 0;
  PhysAddr s2_root_ = 0;
};

struct ModeRun {
  double wall_ns = 0;
  Cycles cycles = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 mem_ops = 0;
  u64 noncacheable = 0;
  u64 bus_txns = 0;
};

/// Run `body(machine)` against a fresh machine built by `setup`, in the
/// given fast-path mode, returning wall time and the simulated ledger.
template <typename Setup, typename Body>
ModeRun run_mode(bool fast_path, Setup&& setup, Body&& body) {
  auto bm = setup(fast_path);
  Machine& m = bm->m();
  if (hn::bench::metrics_enabled()) m.obs().set_enabled(true);
  Stopwatch sw;
  body(*bm);
  ModeRun r;
  r.wall_ns = static_cast<double>(sw.elapsed_ns());
  r.cycles = m.account().cycles();
  r.tlb_hits = m.counters().tlb_hits;
  r.tlb_misses = m.counters().tlb_misses;
  r.mem_ops = m.counters().mem_reads + m.counters().mem_writes;
  r.noncacheable = m.counters().noncacheable_accesses;
  r.bus_txns = m.bus().transaction_count();
  if (fast_path && hn::bench::metrics_enabled()) {
    // One cell per fast-mode run (the mode whose counters the table
    // reports); the reference run would double every count.
    static u64 metrics_cell = 0;
    hn::bench::record_cell_metrics(metrics_cell++, m.obs().snapshot());
  }
  return r;
}

/// Assert the two modes produced a bit-identical simulated ledger — the
/// speedup must be host-side only.
void check_identical(const char* name, const ModeRun& fast, const ModeRun& ref) {
  if (fast.cycles != ref.cycles || fast.tlb_hits != ref.tlb_hits ||
      fast.tlb_misses != ref.tlb_misses || fast.mem_ops != ref.mem_ops ||
      fast.noncacheable != ref.noncacheable || fast.bus_txns != ref.bus_txns) {
    std::fprintf(stderr,
                 "FATAL: %s diverged between fast and reference mode:\n"
                 "  cycles %llu/%llu  tlb %llu+%llu/%llu+%llu  mem %llu/%llu"
                 "  nc %llu/%llu  bus %llu/%llu\n",
                 name, (unsigned long long)fast.cycles,
                 (unsigned long long)ref.cycles,
                 (unsigned long long)fast.tlb_hits,
                 (unsigned long long)fast.tlb_misses,
                 (unsigned long long)ref.tlb_hits,
                 (unsigned long long)ref.tlb_misses,
                 (unsigned long long)fast.mem_ops,
                 (unsigned long long)ref.mem_ops,
                 (unsigned long long)fast.noncacheable,
                 (unsigned long long)ref.noncacheable,
                 (unsigned long long)fast.bus_txns,
                 (unsigned long long)ref.bus_txns);
    std::abort();
  }
}

/// Repetitions per mode; each loop reports the minimum wall time (the
/// run least disturbed by host noise).  Simulated results are asserted
/// identical across every run of both modes.
unsigned g_repeat = 3;

template <typename Setup, typename Body>
LoopResult run_loop(const char* name, u64 accesses, Setup&& setup, Body&& body) {
  LoopResult r;
  r.name = name;
  r.work = accesses;
  for (unsigned rep = 0; rep < g_repeat; ++rep) {
    const ModeRun ref = run_mode(false, setup, body);
    const ModeRun fast = run_mode(true, setup, body);
    check_identical(name, fast, ref);
    if (rep == 0 || ref.wall_ns < r.ref_ns) r.ref_ns = ref.wall_ns;
    if (rep == 0 || fast.wall_ns < r.fast_ns) r.fast_ns = fast.wall_ns;
    r.sim_cycles = fast.cycles;
  }
  return r;
}

constexpr VirtAddr kVaBase = kKernelVaBase + 0x4000'0000ull;
constexpr PhysAddr kPaBase = 8ull * 1024 * 1024;

LoopResult bench_tlb_hit(u64 iters) {
  // 128 resident pages inside the 256-entry TLB: after warm-up every
  // access is a hit.  This is the common case of every workload — a
  // well-filled TLB, where the reference full-scan lookup walks half the
  // array per access and the index finds the slot in one hash probe.
  constexpr unsigned kPages = 128;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    u64 sum = 0;
    for (u64 i = 0; i < iters; ++i) {
      const VirtAddr va =
          kVaBase + (i % kPages) * kPageSize + ((i * 64) % kPageSize & ~7ull);
      sum += bm.m().read64(va).value;
    }
    if (sum == 0xDEAD) std::abort();  // keep the loop observable
  };
  return run_loop("tlb_hit", iters, setup, body);
}

LoopResult bench_walk_heavy(u64 iters) {
  // 1024 pages cycled round-robin against a 256-entry TLB: round-robin
  // replacement guarantees every access misses and walks.
  constexpr unsigned kPages = 1024;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    for (u64 i = 0; i < iters; ++i) {
      bm.m().read64(kVaBase + (i % kPages) * kPageSize);
    }
  };
  return run_loop("walk_heavy", iters, setup, body);
}

LoopResult bench_s2_nested(u64 iters) {
  // Walk-heavy with stage 2 on: each stage-1 step is itself stage-2
  // translated (up to 24 descriptor fetches per miss, §3).
  constexpr unsigned kPages = 1024;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp, /*stage2=*/true);
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize,
              PageAttrs{.write = true});
    }
    bm->s2_map_tables();
    return bm;
  };
  auto body = [iters](BenchMachine& bm) {
    for (u64 i = 0; i < iters; ++i) {
      bm.m().read64(kVaBase + (i % kPages) * kPageSize);
    }
  };
  return run_loop("s2_nested", iters, setup, body);
}

LoopResult bench_bulk_copy(u64 iters) {
  // 64 KiB non-cacheable buffer: the bulk paths take the charge-replay
  // branch and every word reaches the bus (MBM-visible traffic).
  constexpr u64 kBufBytes = 64 * 1024;
  constexpr unsigned kPages = kBufBytes / kPageSize;
  auto setup = [](bool fp) {
    auto bm = std::make_unique<BenchMachine>(fp);
    PageAttrs nc{.write = true};
    nc.attr = MemAttr::kNonCacheable;
    for (unsigned i = 0; i < kPages; ++i) {
      bm->map(kVaBase + i * kPageSize, kPaBase + i * kPageSize, nc);
    }
    return bm;
  };
  std::vector<u8> host(kBufBytes, 0xA5);
  auto body = [iters, &host](BenchMachine& bm) {
    for (u64 i = 0; i < iters; ++i) {
      bm.m().write_block_bulk(kVaBase, host.data(), kBufBytes);
      bm.m().read_block_bulk(kVaBase, host.data(), kBufBytes);
    }
  };
  return run_loop("bulk_copy", iters * 2 * (kBufBytes / kWordSize), setup,
                  body);
}

void write_json(const std::string& path, bool quick,
                const std::vector<LoopResult>& loops) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fprintf(f, "{\n  \"bench\": \"sim_throughput\",\n");
  std::fprintf(f, "  \"quick\": %s,\n  \"loops\": [\n", quick ? "true" : "false");
  for (size_t i = 0; i < loops.size(); ++i) {
    const LoopResult& l = loops[i];
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"work\": %llu, "
                 "\"sim_cycles\": %llu, "
                 "\"ref_wall_ns\": %.0f, \"fast_wall_ns\": %.0f, "
                 "\"ref_per_s\": %.0f, "
                 "\"fast_per_s\": %.0f, "
                 "\"speedup\": %.3f}%s\n",
                 l.name.c_str(), (unsigned long long)l.work,
                 (unsigned long long)l.sim_cycles, l.ref_ns, l.fast_ns,
                 l.ref_rate(), l.fast_rate(), l.speedup(),
                 i + 1 < loops.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace

int main(int argc, char** argv) {
  // Peel off the common run flags first; the remaining flags are this
  // bench's own.
  hn::bench::parse_and_strip_args(&argc, argv);
  bool quick = false;
  std::string out = "BENCH_sim_throughput.json";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--repeat=", 9) == 0) {
      if (!hn::parse_u64("--repeat", argv[i] + 9, &g_repeat)) return 2;
      if (g_repeat == 0) g_repeat = 1;
    } else {
      std::fprintf(stderr, "usage: %s [--quick] [--repeat=N] [--out=PATH]\n%s",
                   argv[0],
                   hn::tools::run_flags_usage(hn::bench::kBenchFlags).c_str());
      return 2;
    }
  }

  std::vector<LoopResult> loops;
  loops.push_back(bench_tlb_hit(quick ? 200'000 : 2'000'000));
  loops.push_back(bench_walk_heavy(quick ? 50'000 : 500'000));
  loops.push_back(bench_s2_nested(quick ? 20'000 : 200'000));
  loops.push_back(bench_bulk_copy(quick ? 50 : 500));

  std::printf("Host-side simulation throughput (%s)\n",
              quick ? "quick" : "full");
  std::printf("%-13s %12s %14s %14s %9s\n", "loop", "accesses",
              "ref access/s", "fast access/s", "speedup");
  for (const LoopResult& l : loops) {
    std::printf("%-13s %12llu %14.0f %14.0f %8.2fx\n", l.name.c_str(),
                (unsigned long long)l.work, l.ref_rate(), l.fast_rate(),
                l.speedup());
  }
  write_json(out, quick, loops);
  std::printf("\nwrote %s\n", out.c_str());
  return hn::bench::write_bench_metrics();
}
