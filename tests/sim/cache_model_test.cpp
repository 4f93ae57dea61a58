// sim::Cache against a naive model of the same write-back L1D, and the
// snapshot checks that keep a restored cache inside its own arrays.
//
// The model is deliberately the plain formulation the cache's hot path
// must stay equivalent to (DESIGN.md §9): set index by modulo, victim
// rotation by `% ways`, one call per line for every batched form, and
// the write-back payload copied from memory when the transaction is
// issued.  Seeded random operation mixes must leave both with identical
// cycles, counters, saved bytes and snooped streams.
#include <gtest/gtest.h>

#include <array>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/timing.h"
#include "sim/bus.h"
#include "sim/cache.h"
#include "sim/cycle_account.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"

namespace hn::sim {
namespace {

/// One snooped transaction plus, for a write-back, the line contents it
/// made visible.
struct Seen {
  BusOp op = BusOp::kReadWord;
  PhysAddr paddr = 0;
  Cycles timestamp = 0;
  u8 core = 0;
  std::array<u8, kCacheLineSize> line{};

  bool operator==(const Seen&) const = default;
};

/// Records what the real cache puts on the bus, reading a write-back's
/// line from memory at snoop time.
class StreamSnooper : public BusSnooper {
 public:
  explicit StreamSnooper(const PhysicalMemory& mem) : mem_(mem) {}
  void on_transaction(const BusTransaction& txn) override {
    Seen s{txn.op, txn.paddr, txn.timestamp, txn.core, {}};
    if (txn.op == BusOp::kWriteLine) {
      mem_.read_block(txn.paddr, s.line.data(), kCacheLineSize);
    }
    seen.push_back(s);
  }
  std::vector<Seen> seen;

 private:
  const PhysicalMemory& mem_;
};

class NaiveCache {
 public:
  NaiveCache(const CacheConfig& config, PhysicalMemory& mem,
             CycleAccount& account, const TimingModel& timing, u8 core,
             Cycles* bus_clock)
      : config_(config),
        mem_(mem),
        account_(account),
        timing_(timing),
        core_(core),
        bus_clock_(bus_clock),
        num_sets_(config.size_bytes / kCacheLineSize / config.ways),
        lines_(config.size_bytes / kCacheLineSize),
        victim_(num_sets_, 0) {}

  void access(PhysAddr pa, bool is_write) {
    if (Line* line = find(pa)) {
      account_.charge(timing_.l1_hit);
      ++account_.counters().l1_hits;
      if (is_write) line->dirty = true;
      return;
    }
    ++account_.counters().l1_misses;
    Line& victim = replace(pa);
    seen.push_back({BusOp::kReadLine, line_of(pa), account_.cycles(), 0, {}});
    account_.charge(timing_.l1_miss_fill);
    victim = {true, is_write, line_of(pa)};
  }

  void write_alloc_line(PhysAddr pa) {
    if (Line* line = find(pa)) {
      account_.charge(timing_.l1_hit);
      ++account_.counters().l1_hits;
      line->dirty = true;
      return;
    }
    ++account_.counters().l1_stream_allocs;
    Line& victim = replace(pa);
    account_.charge(timing_.write_stream_alloc);
    victim = {true, true, line_of(pa)};
  }

  void access_lines(PhysAddr pa, u64 n, bool is_write) {
    for (u64 i = 0; i < n; ++i) access(pa + i * kCacheLineSize, is_write);
  }

  void write_alloc_lines(PhysAddr first, u64 n) {
    for (u64 i = 0; i < n; ++i) write_alloc_line(first + i * kCacheLineSize);
  }

  /// The bulk-write line walk: every line the span touches, in address
  /// order, classified on its own.
  void write_span(PhysAddr pa, u64 len) {
    for (PhysAddr line = line_of(pa); line < pa + len;
         line += kCacheLineSize) {
      if (line >= pa && line + kCacheLineSize <= pa + len) {
        write_alloc_line(line);
      } else {
        access(line, /*is_write=*/true);
      }
    }
  }

  void flush_line(PhysAddr pa) {
    if (Line* line = find(pa)) evict(*line);
  }

  void flush_range(PhysAddr pa, u64 len) {
    for (PhysAddr p = line_of(pa); p <= line_of(pa + len - 1);
         p += kCacheLineSize) {
      flush_line(p);
    }
  }

  void flush_all() {
    for (Line& line : lines_) evict(line);
  }

  void save_state(SnapWriter& w) const {
    w.put_u64(lines_.size());
    for (const Line& l : lines_) {
      w.put_bool(l.valid);
      w.put_bool(l.dirty);
      w.put_u64(l.base);
    }
    w.put_u64(victim_.size());
    for (const unsigned v : victim_) w.put_u32(v);
  }

  std::vector<Seen> seen;

 private:
  struct Line {
    bool valid = false;
    bool dirty = false;
    PhysAddr base = 0;
  };

  static PhysAddr line_of(PhysAddr pa) { return pa - pa % kCacheLineSize; }
  u64 set_of(PhysAddr pa) const { return (pa / kCacheLineSize) % num_sets_; }

  Line* find(PhysAddr pa) {
    for (unsigned w = 0; w < config_.ways; ++w) {
      Line& l = lines_[set_of(pa) * config_.ways + w];
      if (l.valid && l.base == line_of(pa)) return &l;
    }
    return nullptr;
  }

  Line& replace(PhysAddr pa) {
    const u64 set = set_of(pa);
    unsigned way = victim_[set];
    victim_[set] = (way + 1) % config_.ways;
    for (unsigned w = 0; w < config_.ways; ++w) {
      if (!lines_[set * config_.ways + w].valid) {
        way = w;
        break;
      }
    }
    Line& victim = lines_[set * config_.ways + way];
    evict(victim);
    return victim;
  }

  void evict(Line& line) {
    if (line.valid && line.dirty) {
      Seen s{BusOp::kWriteLine, line.base, account_.cycles(), core_, {}};
      if (s.timestamp < *bus_clock_) s.timestamp = *bus_clock_;
      *bus_clock_ = s.timestamp;
      mem_.read_block(line.base, s.line.data(), kCacheLineSize);  // payload
      seen.push_back(s);
      account_.charge(timing_.dirty_writeback);
      ++account_.counters().dirty_writebacks;
    }
    line.valid = false;  // the tag stays, as in the saved bytes
    line.dirty = false;
  }

  CacheConfig config_;
  PhysicalMemory& mem_;
  CycleAccount& account_;
  const TimingModel& timing_;
  u8 core_;
  Cycles* bus_clock_;
  u64 num_sets_;
  std::vector<Line> lines_;
  std::vector<unsigned> victim_;
};

constexpr u64 kMemBytes = 256 * 1024;
constexpr u64 kSpanBytes = 128 * 1024;  // addresses drawn from here
constexpr u8 kCore = 1;

/// Both sides: the real cache on its own bus, the model, each with its
/// own memory, account and shared bus clock, kept in lock step.
struct Pair {
  explicit Pair(const CacheConfig& config)
      : real_mem(kMemBytes),
        model_mem(kMemBytes),
        snoop(real_mem),
        cache(config, real_mem, bus, real_account, timing),
        model(config, model_mem, model_account, timing, kCore, &model_clock) {
    bus.attach_snooper(&snoop);
    cache.set_bus_provenance(kCore, &real_clock);
  }

  /// The functional store a write performs, identically on both sides.
  void store(PhysAddr pa, u64 len, SplitMix64& rng) {
    for (u64 off = 0; off < len; off += kWordSize) {
      const u64 v = rng.next();
      real_mem.write64(pa + off, v);
      model_mem.write64(pa + off, v);
    }
  }

  std::vector<u8> real_state() const {
    SnapWriter w;
    cache.save_state(w);
    return w.take();
  }
  std::vector<u8> model_state() const {
    SnapWriter w;
    model.save_state(w);
    return w.take();
  }

  TimingModel timing;
  PhysicalMemory real_mem;
  PhysicalMemory model_mem;
  MemoryBus bus;
  StreamSnooper snoop;
  CycleAccount real_account;
  CycleAccount model_account;
  Cycles real_clock = 0;
  Cycles model_clock = 0;
  Cache cache;
  NaiveCache model;
};

void expect_same_ledger(const Pair& p, int step) {
  const Counters& r = p.real_account.counters();
  const Counters& m = p.model_account.counters();
  ASSERT_EQ(p.real_account.cycles(), p.model_account.cycles()) << step;
  ASSERT_EQ(r.l1_hits, m.l1_hits) << step;
  ASSERT_EQ(r.l1_misses, m.l1_misses) << step;
  ASSERT_EQ(r.l1_stream_allocs, m.l1_stream_allocs) << step;
  ASSERT_EQ(r.dirty_writebacks, m.dirty_writebacks) << step;
  ASSERT_EQ(p.real_clock, p.model_clock) << step;
  ASSERT_EQ(p.snoop.seen.size(), p.model.seen.size()) << step;
}

void run_mix(const CacheConfig& config, u64 seed, int steps) {
  Pair p(config);
  SplitMix64 rng(seed);
  auto word_addr = [&] { return word_align_down(rng.next_below(kSpanBytes)); };
  auto line_addr = [&] {
    return rng.next_below(kSpanBytes / kCacheLineSize) * kCacheLineSize;
  };
  for (int step = 0; step < steps; ++step) {
    switch (rng.next_below(10)) {
      case 0:
      case 1:
      case 2: {
        const PhysAddr pa = word_addr();
        const bool is_write = rng.next_below(2) == 1;
        p.cache.access(pa, is_write);
        p.model.access(pa, is_write);
        if (is_write) p.store(pa, kWordSize, rng);
        break;
      }
      case 3: {
        const PhysAddr pa = line_addr();
        p.cache.write_alloc_line(pa);
        p.model.write_alloc_line(pa);
        p.store(pa, kCacheLineSize, rng);
        break;
      }
      case 4: {
        const PhysAddr pa = line_addr();
        const u64 n = rng.next_below(9);
        p.cache.write_alloc_lines(pa, n);
        p.model.write_alloc_lines(pa, n);
        p.store(pa, n * kCacheLineSize, rng);
        break;
      }
      case 5: {
        // Word-aligned and often mid-line, as the bulk read walk issues.
        const PhysAddr pa = word_addr();
        const u64 n = rng.next_below(9);
        const bool is_write = rng.next_below(2) == 1;
        p.cache.access_lines(pa, n, is_write);
        p.model.access_lines(pa, n, is_write);
        break;
      }
      case 6: {
        const PhysAddr pa = word_addr();
        const u64 len = (1 + rng.next_below(80)) * kWordSize;
        p.cache.write_span(pa, len);
        p.model.write_span(pa, len);
        p.store(pa, len, rng);
        break;
      }
      case 7: {
        const PhysAddr pa = word_addr();
        p.cache.flush_line(pa);
        p.model.flush_line(pa);
        break;
      }
      case 8: {
        const PhysAddr pa = word_addr();
        const u64 len = 1 + rng.next_below(1024);
        p.cache.flush_range(pa, len);
        p.model.flush_range(pa, len);
        break;
      }
      case 9:
        if (rng.next_below(8) == 0) {
          p.cache.flush_all();
          p.model.flush_all();
        } else {
          // Another core's traffic moves the shared bus clock ahead.
          const Cycles ahead = p.real_account.cycles() + rng.next_below(400);
          if (ahead > p.real_clock) p.real_clock = p.model_clock = ahead;
        }
        break;
    }
    expect_same_ledger(p, step);
    if (step % 97 == 0) {
      ASSERT_EQ(p.real_state(), p.model_state()) << step;
    }
  }
  p.cache.flush_all();
  p.model.flush_all();
  expect_same_ledger(p, steps);
  EXPECT_EQ(p.real_state(), p.model_state());
  ASSERT_EQ(p.snoop.seen.size(), p.model.seen.size());
  for (size_t i = 0; i < p.model.seen.size(); ++i) {
    ASSERT_EQ(p.snoop.seen[i], p.model.seen[i]) << "transaction " << i;
  }
  // The mix really exercised the interesting paths.
  EXPECT_GT(p.real_account.counters().dirty_writebacks, 100u);
  EXPECT_GT(p.real_account.counters().l1_stream_allocs, 100u);
}

TEST(CacheModel, MatchesNaiveModelAcrossGeometries) {
  for (const u64 size : {u64{4 * 1024}, u64{32 * 1024}}) {
    for (const unsigned ways : {1u, 2u, 4u}) {
      for (const u64 seed : {1u, 2u, 3u}) {
        SCOPED_TRACE(testing::Message() << size << " B, " << ways
                                        << " way(s), seed " << seed);
        run_mix(CacheConfig{.size_bytes = size, .ways = ways}, seed, 4000);
      }
    }
  }
}

// --- Snapshot restore validation ---------------------------------------------

struct SavedLine {
  bool valid = false;
  bool dirty = false;
  u64 base = 0;
};

/// A cache section laid out exactly as Cache::save_state writes one.
std::vector<u8> cache_stream(const std::vector<SavedLine>& lines,
                             const std::vector<u32>& victims) {
  SnapWriter w;
  w.put_u64(lines.size());
  for (const SavedLine& l : lines) {
    w.put_bool(l.valid);
    w.put_bool(l.dirty);
    w.put_u64(l.base);
  }
  w.put_u64(victims.size());
  for (const u32 v : victims) w.put_u32(v);
  return w.take();
}

class CacheRestoreTest : public ::testing::Test {
 protected:
  // 4 KiB, 2 ways: 64 lines in 32 sets; line i sits in set i / 2.
  static constexpr u64 kSets = 32;
  CacheRestoreTest()
      : mem_(kMemBytes),
        cache_(CacheConfig{.size_bytes = 4 * 1024, .ways = 2}, mem_, bus_,
               account_, timing_),
        lines_(2 * kSets),
        victims_(kSets, 0) {}

  Status restore(const std::vector<u8>& blob) {
    SnapReader r(blob);
    cache_.restore_state(r);
    return r.status();
  }

  TimingModel timing_;
  PhysicalMemory mem_;
  MemoryBus bus_;
  CycleAccount account_;
  Cache cache_;
  std::vector<SavedLine> lines_;
  std::vector<u32> victims_;
};

TEST_F(CacheRestoreTest, AcceptsWhatSaveStateWrites) {
  // Line 6 is way 0 of set 3; a tag further up memory maps there too.
  lines_[6] = {true, true, 3 * kCacheLineSize + 5 * kSets * kCacheLineSize};
  victims_[3] = 1;
  const std::vector<u8> blob = cache_stream(lines_, victims_);
  ASSERT_TRUE(restore(blob).ok());
  EXPECT_TRUE(cache_.line_dirty(lines_[6].base));
  SnapWriter w;
  cache_.save_state(w);
  EXPECT_EQ(w.data(), blob);
}

TEST_F(CacheRestoreTest, RejectsVictimWayOutOfRange) {
  victims_[kSets - 1] = 2;  // ways == 2: would index past the last set
  const Status s = restore(cache_stream(lines_, victims_));
  EXPECT_FALSE(s.ok());
  EXPECT_NE(s.message().find("victim"), std::string::npos) << s.message();
}

TEST_F(CacheRestoreTest, RejectsImpossibleValidTags) {
  const u64 set3 = 3 * kCacheLineSize;
  for (const u64 bad : {set3 + 8,                  // not line-aligned
                        kMemBytes + set3,          // outside memory
                        set3 + kCacheLineSize}) {  // set 4's line
    SCOPED_TRACE(testing::Message() << "tag " << bad);
    std::vector<SavedLine> lines = lines_;
    lines[6] = {true, false, bad};
    EXPECT_FALSE(restore(cache_stream(lines, victims_)).ok());
  }
  // The same tags are harmless on an invalid line: nothing indexes by it.
  std::vector<SavedLine> lines = lines_;
  lines[6] = {false, false, set3 + 8};
  EXPECT_TRUE(restore(cache_stream(lines, victims_)).ok());
}

}  // namespace
}  // namespace hn::sim
