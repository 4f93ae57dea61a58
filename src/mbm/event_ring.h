// The MBM output ring buffer (§5.3 step 5): (address, value) records of
// detected writes, stored in the secure space where the kernel cannot
// reach them.  The MBM produces entries through its coherent memory port;
// Hypersec consumes them from the interrupt handler (§5.3 step 7).
#pragma once

#include <algorithm>
#include <cstring>
#include <vector>

#include "common/types.h"
#include "sim/machine.h"
#include "sim/trace.h"

namespace hn::mbm {

struct MonitorEvent {
  PhysAddr paddr = 0;
  u64 value = 0;
  /// Flight-recorder provenance: seq of the kMbmDetect event that produced
  /// this record.  Host-side sideband only — the simulated 16-byte ring
  /// entry stays {paddr, value}; the real MBM carries no such field.
  u64 trace_seq = sim::kNoCause;
  /// Bus instant of the monitored store (host-side sideband, like
  /// trace_seq): lets the Hypersec driver attribute end-to-end detection
  /// latency live (hypersec.detect.e2e_cycles) without a trace ring.
  Cycles at = 0;
};

inline constexpr u64 kRingEntryBytes = 16;  // {u64 paddr, u64 value}

class EventRing {
 public:
  EventRing(sim::Machine& machine, PhysAddr base, u64 entries)
      : machine_(machine),
        base_(base),
        entries_(entries),
        shadow_seq_(entries, sim::kNoCause),
        shadow_at_(entries, 0) {}

  [[nodiscard]] PhysAddr base() const { return base_; }
  [[nodiscard]] u64 capacity() const { return entries_; }
  [[nodiscard]] u64 size() const { return head_ - tail_; }
  [[nodiscard]] bool empty() const { return head_ == tail_; }
  [[nodiscard]] u64 overflow_drops() const { return drops_; }
  [[nodiscard]] u64 total_pushed() const { return pushed_; }

  /// Producer side (MBM decision unit).  Returns false on overflow.
  bool push(const MonitorEvent& ev) {
    if (size() >= entries_) {
      ++drops_;
      return false;
    }
    const u64 slot = head_ % entries_;
    u64 record[2] = {ev.paddr, ev.value};
    machine_.dma_write_block(base_ + slot * kRingEntryBytes, record,
                             kRingEntryBytes);
    shadow_seq_[slot] = ev.trace_seq;
    shadow_at_[slot] = ev.at;
    ++head_;
    ++pushed_;
    return true;
  }

  /// Consumer side (Hypersec IRQ handler).  Reads through the EL2 linear
  /// map so the fetch cost lands on the CPU, as in the real system.
  bool pop(MonitorEvent& out) {
    if (empty()) return false;
    const u64 slot = tail_ % entries_;
    out.paddr = machine_.el2_read64(base_ + slot * kRingEntryBytes);
    out.value = machine_.el2_read64(base_ + slot * kRingEntryBytes + 8);
    out.trace_seq = shadow_seq_[slot];
    out.at = shadow_at_[slot];
    ++tail_;
    return true;
  }

  void reset() {
    head_ = tail_ = 0;
    drops_ = pushed_ = 0;
    std::fill(shadow_seq_.begin(), shadow_seq_.end(), sim::kNoCause);
    std::fill(shadow_at_.begin(), shadow_at_.end(), Cycles{0});
    synced_ = false;
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // Ring *data* lives in simulated secure memory (restored via pages);
  // the device indices and host-side provenance sideband serialize here.
  // Only push() writes the sideband, one slot per head_ step, so the slots
  // written since a sync are those of heads [synced_head_, head_): a delta
  // restore copies back just those.

  /// The sideband now equals the state just saved (hypernel::System).
  void mark_synced() {
    synced_ = true;
    synced_head_ = head_;
  }

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(head_);
    w.put_u64(tail_);
    w.put_u64(drops_);
    w.put_u64(pushed_);
    w.put_u64(shadow_seq_.size());
    w.put_bytes(shadow_seq_.data(), shadow_seq_.size() * sizeof(u64));
    w.put_bytes(shadow_at_.data(), shadow_at_.size() * sizeof(Cycles));
  }

  void restore_state(sim::SnapReader& r) {
    r.section("mbm event ring");
    const u64 head_now = head_;
    head_ = r.get_u64();
    tail_ = r.get_u64();
    drops_ = r.get_u64();
    pushed_ = r.get_u64();
    const u64 n = r.get_count("shadow slot");
    if (r.ok() && n != entries_) {
      r.fail("capacity " + std::to_string(n) +
             " does not match this configuration");
      return;
    }
    const u8* seq = r.view(n * sizeof(u64));
    const u8* at = r.view(n * sizeof(Cycles));
    if (!r.ok()) return;
    // head_ only grows between syncs (reset() clears synced_).
    if (r.delta() && synced_ && head_now - synced_head_ < entries_) {
      for (u64 h = synced_head_; h != head_now; ++h) {
        const u64 slot = h % entries_;
        std::memcpy(&shadow_seq_[slot], seq + slot * sizeof(u64), sizeof(u64));
        std::memcpy(&shadow_at_[slot], at + slot * sizeof(Cycles),
                    sizeof(Cycles));
      }
    } else {
      std::memcpy(shadow_seq_.data(), seq, n * sizeof(u64));
      std::memcpy(shadow_at_.data(), at, n * sizeof(Cycles));
    }
    mark_synced();
  }

 private:
  sim::Machine& machine_;
  PhysAddr base_;
  u64 entries_;
  u64 head_ = 0;  // producer index (device register, not in memory)
  u64 tail_ = 0;  // consumer index
  u64 drops_ = 0;
  u64 pushed_ = 0;
  std::vector<u64> shadow_seq_;  // per-slot provenance, parallel to the ring
  std::vector<Cycles> shadow_at_;  // per-slot store bus instant (sideband)
  bool synced_ = false;   // sideband equals the last synced snapshot's
  u64 synced_head_ = 0;   // head_ at that sync
};

}  // namespace hn::mbm
