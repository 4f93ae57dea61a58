// Translation lookaside buffer.
//
// Fully associative, round-robin replacement, caching *combined* stage-1
// (+stage-2) results like a real ARM TLB: an entry carries final PA, the
// stage-1 attributes, and whether stage 2 permits writes — so a write to a
// stage-2 write-protected page faults even on a TLB hit, which is exactly
// how KVM's page-granularity write-protection keeps trapping (Table 2's
// baseline behaviour).
//
// Host-side representation: lookups go through a vpage hash index instead
// of scanning the whole array, so a hit costs O(1) host work regardless of
// capacity.  The index is a flat open-addressing table (linear probing,
// at most half full, backward-shift erase), so rebuilding it after a
// snapshot restore allocates nothing.  It is an invisible acceleration
// structure — hit/miss results, replacement order and flush behaviour are
// bit-identical to the naive full scan (the tlb_property_test pins this
// against a reference implementation).  Three invariants keep it exact:
//
//   * per-vpage chains are sorted by slot index, so "first match in array
//     order" among same-vpage entries is preserved;
//   * free slots are taken lowest-index-first (a bitmap find-first-set),
//     matching the scan's "first invalid entry" choice;
//   * round-robin eviction is untouched: the victim cursor advances over
//     slot numbers exactly as before.
#pragma once

#include <algorithm>
#include <bit>
#include <vector>

#include "common/types.h"
#include "sim/pagetable.h"
#include "sim/snapshot.h"

namespace hn::sim {

struct TlbEntry {
  bool valid = false;
  VirtAddr vpage = 0;  // page-aligned VA
  u16 asid = 0;        // ignored when global
  PhysAddr ppage = 0;  // page-aligned PA
  PageAttrs attrs;
  bool s2_write_ok = true;  // stage-2 write permission (true when no stage 2)
};

class Tlb {
 public:
  explicit Tlb(unsigned entries = 48)
      : entries_(entries),
        chain_next_(entries, kNil),
        free_((entries + 63) / 64, ~0ull),
        // Distinct vpages never exceed the entry count, so the table stays
        // at most half full and every probe ends at an empty bucket.
        index_(std::bit_ceil(std::max(2u * entries, 2u))),
        index_shift_(64 - std::countr_zero(index_.size())) {
    // Mask off bits beyond capacity so find-first-free never returns an
    // out-of-range slot.
    const unsigned tail = entries % 64;
    if (tail != 0) free_.back() = (u64{1} << tail) - 1;
  }

  /// Returns the matching entry or nullptr.
  const TlbEntry* lookup(VirtAddr va, u16 asid) const {
    const VirtAddr vpage = page_align_down(va);
    if (!index_enabled_) {
      // Reference mode: the original fully-associative scan.
      for (const TlbEntry& e : entries_) {
        if (e.valid && e.vpage == vpage && (e.attrs.global || e.asid == asid)) {
          return &e;
        }
      }
      return nullptr;
    }
    for (u32 slot = index_[find_bucket(vpage)].head; slot != kNil;
         slot = chain_next_[slot]) {
      const TlbEntry& e = entries_[slot];
      if (e.attrs.global || e.asid == asid) return &e;
    }
    return nullptr;
  }

  void insert(const TlbEntry& entry) {
    ++generation_;
    // Replace an existing mapping for the same page first.  The index is
    // maintained even in reference mode (so the mode can flip at runtime);
    // only the *search* above changes, and both searches visit same-vpage
    // slots in ascending array order, so the replaced slot is identical.
    for (u32 slot = index_[find_bucket(entry.vpage)].head; slot != kNil;
         slot = chain_next_[slot]) {
      TlbEntry& e = entries_[slot];
      if (e.attrs.global || e.asid == entry.asid) {
        e = entry;
        e.valid = true;
        return;
      }
    }
    const u32 slot = first_free_slot();
    if (slot != kNil) {
      place(slot, entry);
      return;
    }
    const u32 victim = static_cast<u32>(next_victim_);
    unlink(entries_[victim].vpage, victim);
    place(victim, entry);
    next_victim_ = (next_victim_ + 1) % entries_.size();
  }

  void flush_all() {
    ++generation_;
    for (TlbEntry& e : entries_) e.valid = false;
    clear_derived();
  }

  /// TLBI VAE1-style: drop any entry translating `va` (any ASID).
  void flush_va(VirtAddr va) {
    ++generation_;
    const VirtAddr vpage = page_align_down(va);
    const u64 bucket = find_bucket(vpage);
    if (index_[bucket].head == kNil) return;
    for (u32 slot = index_[bucket].head; slot != kNil;) {
      const u32 next = chain_next_[slot];
      entries_[slot].valid = false;
      mark_free(slot);
      slot = next;
    }
    erase_bucket(bucket);
  }

  /// TLBI ASIDE1-style: drop all non-global entries for `asid`.
  void flush_asid(u16 asid) {
    ++generation_;
    for (u32 slot = 0; slot < entries_.size(); ++slot) {
      TlbEntry& e = entries_[slot];
      if (e.valid && !e.attrs.global && e.asid == asid) {
        e.valid = false;
        unlink(e.vpage, slot);
        mark_free(slot);
      }
    }
  }

  [[nodiscard]] unsigned capacity() const {
    return static_cast<unsigned>(entries_.size());
  }
  [[nodiscard]] unsigned occupancy() const {
    unsigned n = 0;
    for (const TlbEntry& e : entries_) n += e.valid ? 1 : 0;
    return n;
  }

  /// Bumped by every mutation (insert / flush).  The machine's bulk
  /// charge-replay path snapshots this to detect a snooper or interrupt
  /// handler disturbing translation state mid-transfer.
  [[nodiscard]] u64 generation() const { return generation_; }

  /// Host fast path switch: off = reference mode, lookups scan the array
  /// like the original implementation.  Hit/miss results are identical
  /// either way; only host wall-clock changes.
  void set_index_enabled(bool on) { index_enabled_ = on; }
  [[nodiscard]] bool index_enabled() const { return index_enabled_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Only the authoritative state (entry array, victim cursor, generation)
  // is serialized; the lookup index, chains and free bitmap are derived
  // host-side structures and are rebuilt in place on restore.

  void save_state(SnapWriter& w) const {
    w.put_u64(entries_.size());
    for (const TlbEntry& e : entries_) {
      w.put_bool(e.valid);
      w.put_u64(e.vpage);
      w.put_u16(e.asid);
      w.put_u64(e.ppage);
      w.put_bool(e.attrs.write);
      w.put_bool(e.attrs.exec);
      w.put_bool(e.attrs.user);
      w.put_bool(e.attrs.global);
      w.put_u8(static_cast<u8>(e.attrs.attr));
      w.put_bool(e.s2_write_ok);
    }
    w.put_u64(next_victim_);
    w.put_u64(generation_);
  }

  void restore_state(SnapReader& r) {
    r.section("tlb");
    const u64 n = r.get_u64();
    if (r.ok() && n != entries_.size()) {
      r.fail("entry count " + std::to_string(n) +
             " does not match configured capacity " +
             std::to_string(entries_.size()));
      return;
    }
    for (TlbEntry& e : entries_) {
      e.valid = r.get_bool();
      e.vpage = r.get_u64();
      e.asid = r.get_u16();
      e.ppage = r.get_u64();
      e.attrs.write = r.get_bool();
      e.attrs.exec = r.get_bool();
      e.attrs.user = r.get_bool();
      e.attrs.global = r.get_bool();
      e.attrs.attr = static_cast<MemAttr>(r.get_u8());
      e.s2_write_ok = r.get_bool();
    }
    next_victim_ = r.get_u64();
    generation_ = r.get_u64();
    if (r.ok()) rebuild_derived();
  }

 private:
  static constexpr u32 kNil = ~u32{0};

  /// Index bucket: the lowest slot of a vpage's chain; head == kNil marks
  /// an empty bucket.
  struct Bucket {
    VirtAddr vpage = 0;
    u32 head = kNil;
  };

  /// Home bucket of `vpage` (Fibonacci hashing of the page number).
  [[nodiscard]] u64 home_bucket(VirtAddr vpage) const {
    return ((vpage >> kPageShift) * 0x9E3779B97F4A7C15ull) >> index_shift_;
  }
  /// The bucket holding `vpage`, or the empty bucket ending its probe run
  /// (where an insert would claim it).
  [[nodiscard]] u64 find_bucket(VirtAddr vpage) const {
    const u64 mask = index_.size() - 1;
    u64 i = home_bucket(vpage);
    while (index_[i].head != kNil && index_[i].vpage != vpage) {
      i = (i + 1) & mask;
    }
    return i;
  }
  /// Chain head of `vpage`, claiming an empty bucket (head kNil) if none.
  u32& head_of(VirtAddr vpage) {
    Bucket& b = index_[find_bucket(vpage)];
    b.vpage = vpage;
    return b.head;
  }
  /// Empty bucket `i`, shifting later entries of its probe run back so
  /// every lookup still reaches its key before an empty bucket.
  void erase_bucket(u64 i) {
    const u64 mask = index_.size() - 1;
    for (u64 j = (i + 1) & mask; index_[j].head != kNil; j = (j + 1) & mask) {
      const u64 home = home_bucket(index_[j].vpage);
      // Entry j may fill the hole at i unless its home lies cyclically
      // in (i, j].
      const bool stays = i < j ? (home > i && home <= j)
                               : (home > i || home <= j);
      if (!stays) {
        index_[i] = index_[j];
        i = j;
      }
    }
    index_[i].head = kNil;
  }

  /// Empty the index, chains and free bitmap (entries untouched).
  void clear_derived() {
    std::fill(index_.begin(), index_.end(), Bucket{});
    for (u64& word : free_) word = ~0ull;
    const unsigned tail = entries_.size() % 64;
    if (tail != 0) free_.back() = (u64{1} << tail) - 1;
  }

  /// Lowest-index free slot, or kNil when the TLB is full.
  [[nodiscard]] u32 first_free_slot() const {
    for (size_t w = 0; w < free_.size(); ++w) {
      if (free_[w] != 0) {
        return static_cast<u32>(w * 64 + std::countr_zero(free_[w]));
      }
    }
    return kNil;
  }

  void mark_free(u32 slot) { free_[slot / 64] |= u64{1} << (slot % 64); }
  void mark_used(u32 slot) { free_[slot / 64] &= ~(u64{1} << (slot % 64)); }

  /// Fill `slot` with `entry` and link it into its vpage chain, keeping
  /// the chain sorted by slot index (array-order equivalence).
  void place(u32 slot, const TlbEntry& entry) {
    entries_[slot] = entry;
    entries_[slot].valid = true;
    mark_used(slot);
    u32& head = head_of(entry.vpage);
    if (head == kNil || head > slot) {
      chain_next_[slot] = head;
      head = slot;
      return;
    }
    u32 prev = head;
    while (chain_next_[prev] != kNil && chain_next_[prev] < slot) {
      prev = chain_next_[prev];
    }
    chain_next_[slot] = chain_next_[prev];
    chain_next_[prev] = slot;
  }

  /// Rebuild the lookup index, chains and free bitmap from the entry
  /// array after a restore.  Ascending slot order appends each valid slot
  /// at its chain's tail, reproducing the sorted-chain invariant place()
  /// maintains incrementally.
  void rebuild_derived() {
    clear_derived();
    for (u32& next : chain_next_) next = kNil;
    for (u32 slot = 0; slot < entries_.size(); ++slot) {
      if (!entries_[slot].valid) continue;
      mark_used(slot);
      u32& head = head_of(entries_[slot].vpage);
      if (head == kNil) {
        head = slot;
        continue;
      }
      u32 prev = head;
      while (chain_next_[prev] != kNil) prev = chain_next_[prev];
      chain_next_[prev] = slot;
    }
  }

  /// Remove `slot` from the chain of `vpage`.
  void unlink(VirtAddr vpage, u32 slot) {
    const u64 bucket = find_bucket(vpage);
    u32& head = index_[bucket].head;
    if (head == slot) {
      head = chain_next_[slot];
      if (head == kNil) erase_bucket(bucket);
      return;
    }
    u32 prev = head;
    while (chain_next_[prev] != slot) prev = chain_next_[prev];
    chain_next_[prev] = chain_next_[slot];
  }

  std::vector<TlbEntry> entries_;
  std::vector<u32> chain_next_;
  std::vector<u64> free_;  // bit set = slot invalid/free
  /// vpage -> lowest slot holding a valid entry for it; entries with the
  /// same vpage chain through chain_next_ in ascending slot order.
  std::vector<Bucket> index_;
  unsigned index_shift_;  // 64 - log2(index_.size())
  u64 next_victim_ = 0;
  u64 generation_ = 0;
  bool index_enabled_ = true;
};

}  // namespace hn::sim
