// Binary buddy allocator for physical page frames.
//
// Manages the normal-DRAM pool between the kernel image and the secure
// space.  Purely host-side bookkeeping (free lists are metadata a real
// kernel would keep in struct page); the *frames it hands out* are real
// simulated memory.  Allocation cost is charged by callers as part of the
// operation that needs the page.
#pragma once

#include <array>
#include <functional>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "kernel/spinlock.h"
#include "obs/metrics.h"
#include "sim/snapshot.h"

namespace hn::kernel {

class BuddyAllocator {
 public:
  static constexpr unsigned kMaxOrder = 10;  // up to 4 MiB blocks

  /// Manages page frames in [base, base + size); both page aligned.
  BuddyAllocator(PhysAddr base, u64 size);

  /// Allocate 2^order contiguous pages.  Returns the frame PA.
  Result<PhysAddr> alloc_pages(unsigned order);
  Result<PhysAddr> alloc_page() { return alloc_pages(0); }

  /// Free a block previously returned by alloc_pages with the same order.
  void free_pages(PhysAddr pa, unsigned order);
  void free_page(PhysAddr pa) { free_pages(pa, 0); }

  /// Observer of frees (the KVM host-pressure model watches page recycling
  /// to decide which stage-2 mappings go stale; see DESIGN.md).
  void set_free_hook(std::function<void(PhysAddr, unsigned)> hook) {
    free_hook_ = std::move(hook);
  }

  /// Register alloc/free counters with the machine's metrics registry
  /// (the allocator itself has no machine reference; the kernel wires it).
  void attach_obs(obs::Registry& obs) {
    obs_alloc_pages_ = obs.counter("kernel.alloc.pages");
    obs_free_pages_ = obs.counter("kernel.alloc.freed_pages");
  }

  /// Bind the zone lock's timing model (SMP kernels; see spinlock.h).
  void attach_machine(sim::Machine& machine) { lock_.bind(machine); }

  [[nodiscard]] u64 free_pages_count() const { return free_pages_; }
  [[nodiscard]] u64 total_pages() const { return total_pages_; }
  [[nodiscard]] PhysAddr base() const { return base_; }
  [[nodiscard]] u64 size() const { return total_pages_ * kPageSize; }
  [[nodiscard]] bool owns(PhysAddr pa) const {
    return pa >= base_ && pa < base_ + size();
  }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(total_pages_);
    w.put_u64(free_pages_);
    for (const std::vector<u64>& list : free_lists_) {
      w.put_u64(list.size());
      w.put_bytes(list.data(), list.size() * sizeof(u64));
    }
    w.put_bytes(block_order_.data(), block_order_.size());
    // The allocated map is kept in its saved form, so save and restore
    // are one copy each on the snapshot-boot fast path.
    w.put_bytes(allocated_.data(), allocated_.size());
    lock_.save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("buddy");
    const u64 pages = r.get_u64();
    if (r.ok() && pages != total_pages_) {
      r.fail("pool size " + std::to_string(pages) +
             " pages does not match this configuration");
      return;
    }
    free_pages_ = r.get_u64();
    for (std::vector<u64>& list : free_lists_) {
      const u64 n = r.get_count("free list");
      list.resize(r.ok() ? n : 0);
      r.get_bytes(list.data(), list.size() * sizeof(u64));
    }
    r.get_bytes(block_order_.data(), block_order_.size());
    r.get_bytes(allocated_.data(), allocated_.size());
    lock_.restore_state(r);
  }

 private:
  [[nodiscard]] u64 frame_index(PhysAddr pa) const {
    return (pa - base_) >> kPageShift;
  }
  [[nodiscard]] PhysAddr frame_addr(u64 index) const {
    return base_ + (index << kPageShift);
  }
  [[nodiscard]] bool allocated(u64 index) const {
    return ((allocated_[index >> 3] >> (index & 7)) & 1) != 0;
  }
  void set_allocated(u64 index, bool on) {
    const u8 bit = static_cast<u8>(1u << (index & 7));
    allocated_[index >> 3] = static_cast<u8>(
        on ? allocated_[index >> 3] | bit : allocated_[index >> 3] & ~bit);
  }
  /// Remove a specific free block from its order list; true if found.
  bool take_free_block(u64 index, unsigned order);

  PhysAddr base_;
  u64 total_pages_;
  u64 free_pages_ = 0;
  std::array<std::vector<u64>, kMaxOrder + 1> free_lists_;  // frame indices
  std::vector<u8> block_order_;  // allocation order per frame (head only)
  /// Per-frame allocated bit (heads), packed LSB-first: frame i is bit
  /// i & 7 of byte i >> 3 — the snapshot layout.
  std::vector<u8> allocated_;
  std::function<void(PhysAddr, unsigned)> free_hook_;
  SpinLock lock_;  // the zone lock: one per pool, as in a real buddy zone
  obs::Counter obs_alloc_pages_;
  obs::Counter obs_free_pages_;
};

}  // namespace hn::kernel
