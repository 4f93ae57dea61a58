#include "sim/cache.h"

#include <cassert>

#include "common/bitops.h"

namespace hn::sim {

Cache::Cache(const CacheConfig& config, PhysicalMemory& mem, MemoryBus& bus,
             CycleAccount& account, const TimingModel& timing)
    : config_(config),
      mem_(mem),
      bus_(bus),
      account_(account),
      timing_(timing) {
  assert(config_.ways >= 1);
  const u64 total_lines = config_.size_bytes / kCacheLineSize;
  assert(total_lines % config_.ways == 0);
  const u64 num_sets = total_lines / config_.ways;
  assert(is_pow2(num_sets));
  set_mask_ = num_sets - 1;
  lines_.resize(total_lines);
  victim_.resize(num_sets, 0);
}

Cache::Line* Cache::find_line(PhysAddr pa) {
  const PhysAddr base = pa & ~(kCacheLineSize - 1);
  Line* set = &lines_[set_index(pa) * config_.ways];
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (set[w].valid && set[w].base == base) return &set[w];
  }
  return nullptr;
}

const Cache::Line* Cache::find_line(PhysAddr pa) const {
  return const_cast<Cache*>(this)->find_line(pa);
}

void Cache::writeback(const Line& line) {
  // No payload: the line's final contents are PhysicalMemory's bytes at
  // this instant, which is when the bus delivers to snoopers.
  BusTransaction txn;
  txn.op = BusOp::kWriteLine;
  txn.paddr = line.base;
  txn.core = core_id_;
  txn.timestamp = account_.cycles();
  if (bus_clock_ != nullptr) {
    if (txn.timestamp < *bus_clock_) txn.timestamp = *bus_clock_;
    *bus_clock_ = txn.timestamp;
  }
  bus_.issue(txn);
  account_.charge(timing_.dirty_writeback);
  ++account_.counters().dirty_writebacks;
}

void Cache::evict(Line& line) {
  if (line.valid && line.dirty) writeback(line);
  line.valid = false;
  line.dirty = false;
}

Cache::Line& Cache::replace(PhysAddr pa) {
  const u64 set = set_index(pa);
  Line* ways = &lines_[set * config_.ways];
  // Round-robin victim, but prefer an invalid way if one exists.
  unsigned way = victim_[set];
  victim_[set] = way + 1 == config_.ways ? 0 : way + 1;
  for (unsigned w = 0; w < config_.ways; ++w) {
    if (!ways[w].valid) {
      way = w;
      break;
    }
  }
  Line& victim = ways[way];
  evict(victim);
  return victim;
}

void Cache::access(PhysAddr pa, bool is_write) {
  assert(config_.enabled);
  Line* line = find_line(pa);
  if (line != nullptr) {
    account_.charge(timing_.l1_hit);
    ++account_.counters().l1_hits;
    if (is_write) line->dirty = true;
    return;
  }

  // Miss: evict a victim, fill via the bus.
  ++account_.counters().l1_misses;
  Line& victim = replace(pa);

  BusTransaction fill;
  fill.op = BusOp::kReadLine;
  fill.paddr = pa & ~(kCacheLineSize - 1);
  fill.timestamp = account_.cycles();
  bus_.issue(fill);
  account_.charge(timing_.l1_miss_fill);

  victim.valid = true;
  victim.dirty = is_write;
  victim.base = pa & ~(kCacheLineSize - 1);
}

void Cache::access_lines(PhysAddr pa, u64 n, bool is_write) {
  for (u64 i = 0; i < n; ++i) access(pa + i * kCacheLineSize, is_write);
}

void Cache::write_alloc_line(PhysAddr pa) {
  assert(config_.enabled);
  Line* line = find_line(pa);
  if (line != nullptr) {
    account_.charge(timing_.l1_hit);
    ++account_.counters().l1_hits;
    line->dirty = true;
    return;
  }
  ++account_.counters().l1_stream_allocs;
  Line& victim = replace(pa);
  account_.charge(timing_.write_stream_alloc);
  victim.valid = true;
  victim.dirty = true;
  victim.base = pa & ~(kCacheLineSize - 1);
}

void Cache::write_alloc_lines(PhysAddr first, u64 n) {
  for (u64 i = 0; i < n; ++i) write_alloc_line(first + i * kCacheLineSize);
}

void Cache::write_span(PhysAddr pa, u64 len) {
  const PhysAddr end = pa + len;
  PhysAddr line = pa & ~(kCacheLineSize - 1);
  if (line < pa) {  // ragged head
    access(line, /*is_write=*/true);
    line += kCacheLineSize;
  }
  const u64 full = line < end ? (end - line) / kCacheLineSize : 0;
  write_alloc_lines(line, full);
  line += full * kCacheLineSize;
  if (line < end) access(line, /*is_write=*/true);  // ragged tail
}

void Cache::flush_line(PhysAddr pa) {
  Line* line = find_line(pa);
  if (line != nullptr) evict(*line);
}

void Cache::flush_range(PhysAddr pa, u64 len) {
  const PhysAddr first = pa & ~(kCacheLineSize - 1);
  const PhysAddr last = (pa + len - 1) & ~(kCacheLineSize - 1);
  for (PhysAddr p = first; p <= last; p += kCacheLineSize) flush_line(p);
}

void Cache::flush_all() {
  for (Line& line : lines_) evict(line);
}

bool Cache::contains_line(PhysAddr pa) const {
  return find_line(pa) != nullptr;
}

bool Cache::line_dirty(PhysAddr pa) const {
  const Line* line = find_line(pa);
  return line != nullptr && line->dirty;
}

void Cache::save_state(SnapWriter& w) const {
  w.put_u64(lines_.size());
  for (const Line& l : lines_) {
    w.put_bool(l.valid);
    w.put_bool(l.dirty);
    w.put_u64(l.base);
  }
  w.put_u64(victim_.size());
  for (const unsigned v : victim_) w.put_u32(v);
}

void Cache::restore_state(SnapReader& r) {
  r.section("cache");
  const u64 nlines = r.get_u64();
  if (r.ok() && nlines != lines_.size()) {
    r.fail("line count " + std::to_string(nlines) +
           " does not match configured geometry");
    return;
  }
  for (u64 i = 0; i < lines_.size(); ++i) {
    Line& l = lines_[i];
    l.valid = r.get_bool();
    l.dirty = r.get_bool();
    l.base = r.get_u64();
    // A valid line is indexed by its base on every later access and
    // write-back, so a tag that could never have been filled is corrupt.
    if (r.ok() && l.valid &&
        ((l.base & (kCacheLineSize - 1)) != 0 ||
         !mem_.contains(l.base, kCacheLineSize) ||
         set_index(l.base) != i / config_.ways)) {
      r.fail("line " + std::to_string(i) + " holds impossible tag " +
             std::to_string(l.base));
      l.valid = false;
      return;
    }
  }
  const u64 nsets = r.get_u64();
  if (r.ok() && nsets != victim_.size()) {
    r.fail("set count " + std::to_string(nsets) +
           " does not match configured geometry");
    return;
  }
  for (u64 s = 0; s < victim_.size(); ++s) {
    victim_[s] = r.get_u32();
    if (r.ok() && victim_[s] >= config_.ways) {
      r.fail("set " + std::to_string(s) + " victim way " +
             std::to_string(victim_[s]) + " out of range");
      victim_[s] = 0;
      return;
    }
  }
}

}  // namespace hn::sim
