// Hypersec: the software half of Hypernel (§5.1-§5.2, §6.1).
//
// Runs at EL2 and provides security applications with an isolated
// execution environment *without nested paging*: instead of a stage-2
// table it (a) verifies every kernel page-table update delivered by
// hypercall, keeping table pages read-only at EL1 and the secure space
// unmapped, and (b) traps privileged virtual-memory register writes
// (HCR_EL2.TVM) so the kernel cannot swap in a rogue translation regime.
// With the MBM attached it also implements the word-granularity kernel
// monitoring workflow of Fig. 4.
#pragma once

#include <map>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "hypersec/mbm_driver.h"
#include "hypersec/pt_verifier.h"
#include "hypersec/security_app.h"
#include "kernel/kernel.h"
#include "mbm/monitor.h"
#include "sim/iommu.h"
#include "sim/machine.h"

namespace hn::hypersec {

struct HypersecStats {
  u64 pt_write_calls = 0;
  u64 pt_write_denials = 0;
  u64 pt_allocs = 0;
  u64 pt_frees = 0;
  u64 root_registrations = 0;
  u64 ttbr_traps = 0;
  u64 trap_denials = 0;
  u64 mon_registers = 0;
  u64 mon_unregisters = 0;
  u64 mbm_irq_calls = 0;
  u64 events_dispatched = 0;
};

/// Machine-readable classification of an audit violation, so tooling (the
/// fuzz oracle, CI triage) can bucket failures without parsing prose.
enum class AuditCode : u8 {
  kTtbrHijacked,     // TTBR1_EL1 no longer names the sealed kernel root
  kSecureMapped,     // a reachable mapping touches the secure space
  kWxViolation,      // writable+executable leaf
  kPtWritableAlias,  // writable alias of a registered PT page
};

[[nodiscard]] constexpr const char* audit_code_name(AuditCode code) {
  switch (code) {
    case AuditCode::kTtbrHijacked: return "ttbr-hijacked";
    case AuditCode::kSecureMapped: return "secure-mapped";
    case AuditCode::kWxViolation: return "wx-violation";
    case AuditCode::kPtWritableAlias: return "pt-writable-alias";
  }
  return "?";
}

struct AuditFinding {
  AuditCode code;
  std::string detail;  // which tree / what was reached
};

struct HypersecConfig {
  /// EL2 cycles of verification work per hypercall / trap.
  Cycles verify_cost = 80;
  /// Remap monitored pages non-cacheable so every write reaches the bus
  /// (§5.3).  Disable ONLY for the cacheability ablation: with normal
  /// cacheable mappings the MBM sees write-backs at best.
  bool mbm_noncacheable_remap = true;
};

class Hypersec {
 public:
  /// `mbm` may be null: the isolation half works without the monitor
  /// (the configuration of §7.1's performance experiments).
  Hypersec(sim::Machine& machine, kernel::Kernel& kernel,
           mbm::MemoryBusMonitor* mbm, const HypersecConfig& config = {});
  /// Detach the EL2 vectors that capture `this`.
  ~Hypersec();

  Hypersec(const Hypersec&) = delete;
  Hypersec& operator=(const Hypersec&) = delete;

  /// §6.1 boot: EL2 control registers, exception vectors, TVM; inventory
  /// and lock the kernel's existing page tables; switch the kernel to
  /// hypercall PT writes.  Requires the 4 KiB-page kernel (§6.2): returns
  /// an error on a section-mapped kernel, where per-page RO enforcement
  /// would hit the protection-granularity gap.
  Status init();

  void register_app(SecurityApp& app);
  /// Ask the app to register its regions through the kernel hook path.
  [[nodiscard]] bool has_app(u64 sid) const { return apps_.contains(sid); }

  /// Observer of the PT-page lifecycle.  The invariant checker registers
  /// one so its monitored-page inventory tracks kPtAlloc/kPtFree exactly;
  /// like app registrations this is executor wiring, not snapshot state.
  class PtObserver {
   public:
    virtual ~PtObserver() = default;
    virtual void on_pt_alloc(PhysAddr pa, unsigned level) = 0;
    virtual void on_pt_free(PhysAddr pa) = 0;
  };
  void set_pt_observer(PtObserver* observer) { pt_observer_ = observer; }

  /// §8: program the IOMMU so that no device stream can reach the secure
  /// space — each listed stream gets exactly one window covering normal
  /// DRAM.  Call after init().
  Status enable_dma_protection(sim::Iommu& iommu,
                               std::span<const u32> streams);

  /// Full audit of the protection invariants (used by the property tests
  /// and the fuzz oracle after attack storms).  Returns coded violations;
  /// empty means every invariant holds:
  ///   1. every registered PT page is mapped read-only at EL1,
  ///   2. no mapping reachable from any registered root touches the
  ///      secure space,
  ///   3. W^X holds over every reachable leaf,
  ///   4. TTBR1_EL1 still names the sealed kernel root.
  [[nodiscard]] std::vector<AuditFinding> audit_report() const;
  /// Back-compat prose rendering of audit_report().
  [[nodiscard]] std::vector<std::string> audit() const;

  PtVerifier& verifier() { return verifier_; }
  MbmDriver* mbm_driver() { return driver_.get(); }
  [[nodiscard]] const HypersecStats& stats() const { return stats_; }
  [[nodiscard]] bool initialized() const { return initialized_; }

  /// Approximate source size of the EL2 component, reported for parity
  /// with the paper's "~1.5 KLoC" TCB argument (§8).
  static constexpr unsigned kApproxSloc = 1500;

  // --- Snapshot support (sim/snapshot.h) ------------------------------------
  // App registrations are executor wiring (re-established per session);
  // the verifier inventory, driver regions and stat counters serialize.

  void save_state(sim::SnapWriter& w) const {
    w.put_bool(initialized_);
    w.put_u64(stats_.pt_write_calls);
    w.put_u64(stats_.pt_write_denials);
    w.put_u64(stats_.pt_allocs);
    w.put_u64(stats_.pt_frees);
    w.put_u64(stats_.root_registrations);
    w.put_u64(stats_.ttbr_traps);
    w.put_u64(stats_.trap_denials);
    w.put_u64(stats_.mon_registers);
    w.put_u64(stats_.mon_unregisters);
    w.put_u64(stats_.mbm_irq_calls);
    w.put_u64(stats_.events_dispatched);
    verifier_.save_state(w);
    w.put_bool(driver_ != nullptr);
    if (driver_) driver_->save_state(w);
  }

  void restore_state(sim::SnapReader& r) {
    r.section("hypersec");
    initialized_ = r.get_bool();
    stats_.pt_write_calls = r.get_u64();
    stats_.pt_write_denials = r.get_u64();
    stats_.pt_allocs = r.get_u64();
    stats_.pt_frees = r.get_u64();
    stats_.root_registrations = r.get_u64();
    stats_.ttbr_traps = r.get_u64();
    stats_.trap_denials = r.get_u64();
    stats_.mon_registers = r.get_u64();
    stats_.mon_unregisters = r.get_u64();
    stats_.mbm_irq_calls = r.get_u64();
    stats_.events_dispatched = r.get_u64();
    verifier_.restore_state(r);
    const bool had_driver = r.get_bool();
    r.section("hypersec");
    if (r.ok() && had_driver != (driver_ != nullptr)) {
      r.fail("MBM driver presence does not match this configuration");
      return;
    }
    if (driver_) driver_->restore_state(r);
  }

 private:
  u64 handle_hvc(u64 func, std::span<const u64> args);
  sim::TrapVerdict handle_sysreg_trap(sim::SysReg reg, u64 value);
  /// Flip the EL1 linear-map write permission of the page frame at `pa`
  /// by editing the kernel's leaf descriptor directly at EL2.
  bool set_linear_writable(PhysAddr pa, bool writable);

  // --- Audit memoization (host fast path only; DESIGN.md §14) ---------------
  //
  // audit_report() walks every registered translation tree with uncharged
  // host-side phys() peeks, so its cost is pure host overhead — the
  // dominant bucket in fuzz replay at audit_stride=1.  The fast path
  // caches each table page's scan as an ordered item list (child descents
  // and findings interleaved in entry order, so the DFS finding order is
  // reproduced bit-exactly).  Entries are keyed on the page's mutation
  // epoch (PhysicalMemory page watches, maintained by the PtVerifier
  // inventory; a snapshot restore keeps the epochs of pages in both
  // inventories).  kPtWritableAlias is the only item that depends on the
  // inventory, so when the inventory generation moves each entry is
  // revalidated rather than dropped: it survives unless it holds an alias
  // finding, one of its writable-leaf ranges now covers a registered
  // table page, or its own page left the inventory.  Tables that are *not*
  // watched — e.g. reached through a corrupted descriptor pointing at an
  // unregistered page — are always rescanned, so attack-crafted trees can
  // never be served stale.
  struct AuditScanItem {
    bool is_child = false;         // true: descend into `child`
    AuditCode code{};              // finding code when !is_child
    PhysAddr child = 0;
    const char* detail = nullptr;  // finding suffix (without tree prefix)
  };
  struct AuditTableEntry {
    u64 epoch = 0;
    unsigned level = 0;
    bool has_alias = false;  // items hold a kPtWritableAlias finding
    std::vector<AuditScanItem> items;
    // Output ranges [first, second) of the writable leaves, adjacent ones
    // coalesced: where a newly registered table page would be aliased.
    std::vector<std::pair<PhysAddr, PhysAddr>> writable;
  };
  /// Drop the memo entries the current inventory may have invalidated.
  void revalidate_audit_cache() const;

  u64 do_pt_write(std::span<const u64> args);
  u64 do_pt_alloc(std::span<const u64> args);
  u64 do_pt_free(std::span<const u64> args);
  u64 do_mon_register(std::span<const u64> args);
  u64 do_mon_unregister(std::span<const u64> args);
  u64 do_module_seal(std::span<const u64> args, bool seal);
  u64 do_mbm_irq();

  sim::Machine& machine_;
  kernel::Kernel& kernel_;
  mbm::MemoryBusMonitor* mbm_;
  HypersecConfig config_;
  PtVerifier verifier_;
  std::unique_ptr<MbmDriver> driver_;
  std::map<u64, SecurityApp*> apps_;
  PtObserver* pt_observer_ = nullptr;
  HypersecStats stats_;
  bool initialized_ = false;
  // Audit memoization state; mutable because audit_report() is const.
  mutable std::map<PhysAddr, AuditTableEntry> audit_cache_;
  mutable u64 audit_cache_gen_ = 0;
  // Tables scanned vs served from the memo; host work, never in digests.
  mutable obs::Counter obs_audit_scans_;
  mutable obs::Counter obs_audit_memo_hits_;
  // Observability: counters plus interned span names for the two EL2
  // entry points (hvc dispatch and sysreg traps).
  obs::Counter obs_hvc_calls_;
  obs::Counter obs_verify_cycles_;
  obs::Counter obs_pt_writes_;
  obs::Counter obs_pt_write_denials_;
  obs::Counter obs_traps_;
  obs::Counter obs_trap_denials_;
  u32 span_hvc_ = 0;
  u32 span_trap_ = 0;
};

}  // namespace hn::hypersec
