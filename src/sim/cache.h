// Write-back, write-allocate, physically-indexed data cache (Cortex-A57
// L1D-like: 32 KiB, 2-way, 64 B lines).
//
// The cache holds no data — functional state lives in PhysicalMemory — but
// it decides *when traffic reaches the bus*: a cacheable write marks a line
// dirty and emits nothing; the final line contents surface as a single
// kWriteLine transaction at eviction or explicit flush.  The transaction
// carries no payload: a snooper that wants the contents reads
// PhysicalMemory while the bus delivers it.  This models the MBM
// visibility problem that forces Hypersec to map monitored pages
// non-cacheable (§5.3).
//
// Hot path (DESIGN.md §9): set index by mask, victim rotation by
// compare-and-reset, and one call per run of lines for bulk copies.
#pragma once

#include <vector>

#include "common/timing.h"
#include "common/types.h"
#include "sim/bus.h"
#include "sim/cycle_account.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"

namespace hn::sim {

struct CacheConfig {
  u64 size_bytes = 32 * 1024;
  unsigned ways = 2;
  bool enabled = true;  // disabled => every access behaves as non-cacheable
};

class Cache {
 public:
  Cache(const CacheConfig& config, PhysicalMemory& mem, MemoryBus& bus,
        CycleAccount& account, const TimingModel& timing);

  /// SMP bus provenance: the owning core's id and the machine's shared
  /// monotonic bus clock.  Dirty write-backs are bus transactions the MBM
  /// may snoop, so they must carry the issuing core and a bus-order
  /// (non-decreasing) timestamp even though per-core clocks drift.
  /// Identity on single-core machines, where the one clock is already
  /// the bus clock.
  void set_bus_provenance(u8 core, Cycles* shared_clock) {
    core_id_ = core;
    bus_clock_ = shared_clock;
  }

  /// A cacheable access to the word/line containing `pa`.  Charges hit or
  /// miss cost, performs fills and dirty evictions via the bus, and marks
  /// the line dirty on writes.  The functional data update is the caller's
  /// job (done before/after as appropriate).
  void access(PhysAddr pa, bool is_write);

  /// Full-line streaming write: the whole line at `pa` is being
  /// overwritten, so a miss allocates the line dirty *without* a DRAM
  /// fetch (DC ZVA / write-streaming behaviour).  Used by bulk zeroing
  /// and large copies.
  void write_alloc_line(PhysAddr pa);

  // Batched forms for bulk copies.  Each replays, in order, exactly the
  // per-line calls its comment names, so cycles, counters and bus order
  // match the one-call-per-line loop.

  /// access(pa + i * kCacheLineSize, is_write) for i in [0, n).
  void access_lines(PhysAddr pa, u64 n, bool is_write);
  /// write_alloc_line(first + i * kCacheLineSize) for i in [0, n).
  void write_alloc_lines(PhysAddr first, u64 n);
  /// A write covering [pa, pa+len): walking the lines it touches in
  /// address order, a line the span covers whole is write_alloc_line()d
  /// and a ragged head or tail line is access()ed as a write.
  void write_span(PhysAddr pa, u64 len);

  /// Write back (if dirty) and invalidate the line containing `pa`.
  /// Used by Hypersec when it remaps a monitored page non-cacheable, so no
  /// stale dirty data can later mask a monitored write.
  void flush_line(PhysAddr pa);

  /// Flush every line intersecting [pa, pa+len).
  void flush_range(PhysAddr pa, u64 len);

  /// Invalidate everything, writing back dirty lines.
  void flush_all();

  [[nodiscard]] bool contains_line(PhysAddr pa) const;
  [[nodiscard]] bool line_dirty(PhysAddr pa) const;
  [[nodiscard]] const CacheConfig& config() const { return config_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Tag/victim state only: line *data* lives in PhysicalMemory, restored
  // via the snapshot's page set.

  void save_state(SnapWriter& w) const;
  /// Fails on a geometry mismatch, a victim way out of range, or a valid
  /// line whose tag is unaligned, outside PhysicalMemory or in another set:
  /// state no run produces, which a later miss or write-back would follow
  /// past its set or past memory.
  void restore_state(SnapReader& r);

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    PhysAddr base = 0;  // line-aligned physical address
  };

  [[nodiscard]] u64 set_index(PhysAddr pa) const {
    return (pa / kCacheLineSize) & set_mask_;
  }
  Line* find_line(PhysAddr pa);
  [[nodiscard]] const Line* find_line(PhysAddr pa) const;
  /// Miss path: pick the set's victim way (an invalid way first, else
  /// round-robin), write it back if dirty, and return it empty.
  Line& replace(PhysAddr pa);
  void evict(Line& line);
  void writeback(const Line& line);

  CacheConfig config_;
  PhysicalMemory& mem_;
  MemoryBus& bus_;
  CycleAccount& account_;
  const TimingModel& timing_;
  u8 core_id_ = 0;
  Cycles* bus_clock_ = nullptr;  // Machine's shared bus clock (may be null)
  u64 set_mask_;                  // sets - 1 (sets is a power of two)
  std::vector<Line> lines_;       // sets * ways, set-major
  std::vector<unsigned> victim_;  // round-robin pointer per set
};

}  // namespace hn::sim
