// KVM-style nested-paging hypervisor — the paper's baseline (§7.1
// "KVM-guest", and the page-granularity monitoring scheme §7.2 estimates).
//
// The guest kernel runs with stage-2 translation enabled: every stage-1
// walk nests through the stage-2 tree (the sim::Mmu models the full
// walk blow-up), guest RAM is mapped lazily on stage-2 faults (VM exits),
// physical IRQs exit to EL2 before being reinjected, and kernel pages can
// be write-protected at stage-2 page granularity for monitoring — each
// write then traps and is emulated by the hypervisor.
//
// Host memory-pressure model (documented substitution, DESIGN.md): with
// probability `recycle_invalidate_permille`/1000, a frame the guest frees
// loses its stage-2 mapping (host-side reclaim / page aging), so reuse
// re-faults.  This reproduces the sustained fork/mmap overhead measured on
// real KVM, which a laziness-only model would lose at steady state.
#pragma once

#include <algorithm>
#include <bit>
#include <functional>
#include <set>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/types.h"
#include "kernel/kernel.h"
#include "sim/machine.h"

namespace hn::kvm {

struct KvmConfig {
  /// Map all guest RAM up-front instead of faulting lazily (ablation).
  bool eager_map = false;
  /// THP-style backing: a cold stage-2 translation fault maps the whole
  /// 2 MiB-aligned group of pages around the faulting IPA (512 pages), as
  /// transparent huge pages do for guest RAM.  Host-pressure recycling
  /// still invalidates single pages (THP splits under reclaim).
  bool thp_backing = true;
  /// Probability (per mille) that a guest-freed frame's stage-2 mapping is
  /// invalidated by the host before reuse.
  u32 recycle_invalidate_permille = 750;
  /// Host reclaim scans at its own pace: invalidations are token-bucket
  /// rate-limited to one per this many guest cycles (burst capacity
  /// `recycle_burst`), so churn-heavy guest phases don't see reclaim
  /// scale linearly with their free rate.
  Cycles recycle_min_interval = 25'000;
  u32 recycle_burst = 40;
  u64 rng_seed = 0x5EED'0001;
};

struct KvmStats {
  u64 s2_faults_serviced = 0;
  u64 pages_mapped = 0;
  u64 recycle_invalidations = 0;
  u64 wp_traps = 0;      // page-granularity monitor hits
  u64 irq_exits = 0;
};

class KvmHypervisor {
 public:
  /// A write to a protected page, reported before emulation.
  using WpHandler = std::function<void(PhysAddr pa, u64 value)>;

  KvmHypervisor(sim::Machine& machine, kernel::Kernel& kernel,
                const KvmConfig& config = {});
  /// Detach every callback that captures `this` (buddy free hook, VM-exit
  /// handlers) so the kernel/machine can safely outlive the hypervisor.
  ~KvmHypervisor();

  KvmHypervisor(const KvmHypervisor&) = delete;
  KvmHypervisor& operator=(const KvmHypervisor&) = delete;

  /// Enable stage-2 translation and install the VM-exit handlers.  Call
  /// before Kernel::boot() (the guest boots inside the VM).
  Status init();

  // --- Page-granularity write-protection monitoring (§7.2 baseline) -------
  Status protect_page(PhysAddr pa);
  Status unprotect_page(PhysAddr pa);
  void set_wp_handler(WpHandler handler) { wp_handler_ = std::move(handler); }
  [[nodiscard]] bool is_protected(PhysAddr pa) const {
    return protected_pages_.contains(page_align_down(pa));
  }

  [[nodiscard]] const KvmStats& stats() const { return stats_; }
  [[nodiscard]] PhysAddr stage2_root() const { return s2_root_; }
  [[nodiscard]] u64 guest_ram_size() const { return guest_ram_size_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // The stage-2 trees live in simulated memory (restored via pages); the
  // RNG state keeps the host-pressure stream identical across a restore.

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(rng_.state());
    w.put_u64(s2_root_);
    w.put_u64(s2_pool_next_);
    w.put_u64(guest_ram_size_);
    w.put_u64(protected_pages_.size());
    for (const PhysAddr pa : protected_pages_) w.put_u64(pa);
    // Saved as the ascending list of populated IPAs, one u64 each.
    u64 nmapped = 0;
    for (const u64 word : ever_mapped_) nmapped += std::popcount(word);
    w.put_u64(nmapped);
    for (size_t i = 0; i < ever_mapped_.size(); ++i) {
      for (u64 word = ever_mapped_[i]; word != 0; word &= word - 1) {
        const u64 frame = i * 64 + std::countr_zero(word);
        w.put_u64(frame << kPageShift);
      }
    }
    w.put_f64(recycle_tokens_);
    w.put_u64(recycle_last_refill_);
    w.put_u64(stats_.s2_faults_serviced);
    w.put_u64(stats_.pages_mapped);
    w.put_u64(stats_.recycle_invalidations);
    w.put_u64(stats_.wp_traps);
    w.put_u64(stats_.irq_exits);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("kvm");
    rng_.restore_state(r.get_u64());
    s2_root_ = r.get_u64();
    s2_pool_next_ = r.get_u64();
    const u64 guest_ram_size = r.get_u64();
    if (r.ok() && guest_ram_size != guest_ram_size_) {
      r.fail("guest RAM size " + std::to_string(guest_ram_size) +
             " does not match this configuration");
      return;
    }
    const u64 nprot = r.get_count("protected page");
    protected_pages_.clear();
    // Saved in ascending order (std::set iteration): hinted inserts are
    // O(1).
    for (u64 i = 0; r.ok() && i < nprot; ++i) {
      protected_pages_.emplace_hint(protected_pages_.end(), r.get_u64());
    }
    const u64 nmapped = r.get_count("mapped page");
    std::fill(ever_mapped_.begin(), ever_mapped_.end(), 0);
    for (u64 i = 0; r.ok() && i < nmapped; ++i) {
      const IpaAddr ipa = r.get_u64();
      if (r.ok() && (ipa >= guest_ram_size_ || !is_page_aligned(ipa))) {
        r.fail("mapped page " + std::to_string(ipa) + " outside guest RAM");
        return;
      }
      mark_ever_mapped(ipa);
    }
    recycle_tokens_ = r.get_f64();
    recycle_last_refill_ = r.get_u64();
    stats_.s2_faults_serviced = r.get_u64();
    stats_.pages_mapped = r.get_u64();
    stats_.recycle_invalidations = r.get_u64();
    stats_.wp_traps = r.get_u64();
    stats_.irq_exits = r.get_u64();
  }

 private:
  sim::S2FaultAction on_s2_fault(const sim::Fault& fault, bool is_write,
                                 u64 value);
  /// Install or update the identity stage-2 mapping for `ipa`'s page.
  Status s2_map(IpaAddr ipa, bool write_ok);
  Status s2_unmap(IpaAddr ipa);
  PhysAddr alloc_s2_table();

  [[nodiscard]] bool ever_mapped(IpaAddr page) const {
    const u64 frame = page >> kPageShift;
    return ((ever_mapped_[frame / 64] >> (frame % 64)) & 1) != 0;
  }
  void mark_ever_mapped(IpaAddr page) {
    const u64 frame = page >> kPageShift;
    ever_mapped_[frame / 64] |= u64{1} << (frame % 64);
  }

  sim::Machine& machine_;
  kernel::Kernel& kernel_;
  KvmConfig config_;
  SplitMix64 rng_;
  PhysAddr s2_root_ = 0;
  PhysAddr s2_pool_next_ = 0;  // bump allocator over host-reserved memory
  u64 guest_ram_size_ = 0;
  std::set<PhysAddr> protected_pages_;
  /// Guest page frames that have been THP-populated: one bit per frame
  /// of guest RAM, sized by init().
  std::vector<u64> ever_mapped_;
  double recycle_tokens_ = 0;
  Cycles recycle_last_refill_ = 0;
  WpHandler wp_handler_;
  KvmStats stats_;
};

}  // namespace hn::kvm
