// The benchmark's three workloads and the paper check.
//
// Every workload is closed-loop on one thread: the next item starts only
// after the previous one (and its reference chunk) finished.  A Phase is
// one timed stretch of a workload, untraced or traced; the paper check is
// an untimed pass over Table 1, Fig. 6, Table 2 and the attack scorecard
// that yields the simulated end-to-end metrics, which repeat bit for bit.
#pragma once

#include <array>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.h"
#include "obs/profile.h"
#include "spans.h"

namespace perfbench {

using hn::u64;

/// Mode slugs used in metric names, indexed like hypernel::Mode.
inline constexpr const char* kModeSlugs[3] = {"native", "kvm", "hypernel"};

/// Simulated counters summed over the cells of one mode.
struct ModeCounters {
  u64 cycles = 0;
  u64 tlb_hits = 0;
  u64 tlb_misses = 0;
  u64 s1_fetches = 0;
  u64 s2_fetches = 0;
  u64 vm_exits = 0;
  u64 hvc_calls = 0;
  u64 tvm_traps = 0;
};

/// One Table 2 cell's MBM / Hypersec statistics.
struct MbmCell {
  u64 snooped_writes = 0;
  u64 detections = 0;
  u64 bitmap_cache_hits = 0;
  u64 bitmap_cache_misses = 0;
  u64 fifo_wait_cycles = 0;
  u64 fifo_drops = 0;
  u64 events_dispatched = 0;
};

/// Simulated results of the paper check.  Deterministic: no seed, no host
/// time.
struct PaperResults {
  std::array<std::array<double, 9>, 3> t1_us{};  // [mode][op]
  std::array<std::array<double, 5>, 3> f6_us{};  // [mode][app]
  std::array<std::array<MbmCell, 2>, 5> t2{};    // [app][page, word]
  std::array<ModeCounters, 3> counters{};        // Table 1 + Fig. 6 cells
  u64 scorecard_hits = 0;
  u64 scorecard_attributed = 0;
  u64 scorecard_false_positives = 0;
  std::vector<u64> detect_cycles;  // latency of every intended hit

  [[nodiscard]] double hypernel_overhead_pct() const;
  [[nodiscard]] double paper_err_pct() const;
  [[nodiscard]] double mbm_word_trap_pct() const;
};

/// One timed stretch of a workload.  Host times are raw milliseconds.
struct Phase {
  explicit Phase(bool is_traced) : traced(is_traced), spans(is_traced) {}

  bool traced;
  SpanRecorder spans;
  std::vector<double> item_ms;   // one per timed item
  std::vector<std::string> item_tags;  // layer tag of each timed item
  std::vector<double> ref_ms;    // one reference chunk per item
  std::vector<double> setup_ms;  // one per set-up repeat
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;  // first few failure reasons
  hn::obs::ProfileReport profile;   // traced only
  /// Raw host ms of the timed items, by layer tag ("lmbench.native", ...).
  std::map<std::string, double> host_ms;
  /// Simulated cycles run by the timed items, by mode slug.
  std::map<std::string, double> sim_cycles;
  /// Raw host ms of the timed items, by mode slug.
  std::map<std::string, double> sim_host_ms;
  /// Every simulated result the phase produced, as (unit key, digest),
  /// in execution order.  Compared against a reference to prove that
  /// neither repetition nor tracing changes the simulation.
  std::vector<std::pair<std::string, u64>> sim;
  u64 boots = 0;
  double boot_ms = 0;
  double install_ms = 0;
  std::array<u64, 2> t2_detections{};   // timed Table 2 cells: page, word
  std::array<double, 2> t2_host_ms{};   // raw host ms of those cells

  void fail(const std::string& why);
};

struct PaperCheck {
  PaperResults results;
  /// Unit key -> digest, for comparing timed passes against.
  std::map<std::string, u64> digests;
  u64 attempted = 0;
  u64 failed = 0;
  std::vector<std::string> errors;
};

/// Fixed fuzz-campaign shape (see README.md).
inline constexpr u64 kFuzzOps = 40;
inline constexpr u64 kFuzzSetupEvery = 32;  // items between set-ups

void run_fuzz_phase(Phase& phase, u64 seed, double seconds);
void run_paper_phase(Phase& phase, u64 seed, double seconds);
void run_mbm_phase(Phase& phase, u64 seed, double seconds);

/// Run the untimed paper check.
PaperCheck run_paper_check();

/// Count every entry of `phase.sim` whose digest differs from `ref` as a
/// failed item.  Keys missing from `ref` are skipped.
void compare_sim(Phase& phase, const std::map<std::string, u64>& ref);

}  // namespace perfbench
