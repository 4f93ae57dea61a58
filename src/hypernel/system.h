// Public entry point of the Hypernel library: builds a complete simulated
// system in one of the paper's three evaluation configurations (§7.1):
//
//   kNative   — the kernel alone on the machine,
//   kKvmGuest — the kernel as a guest of the nested-paging hypervisor,
//   kHypernel — the kernel under Hypersec (+ optionally the MBM).
//
// Typical use:
//   hypernel::SystemConfig cfg;
//   cfg.mode = hypernel::Mode::kHypernel;
//   auto sys = hypernel::System::create(cfg).value();
//   sys->kernel().sys_stat("/etc/passwd");
#pragma once

#include <memory>

#include "common/status.h"
#include "common/types.h"
#include "hypersec/hypersec.h"
#include "kernel/kernel.h"
#include "kvm/kvm.h"
#include "mbm/monitor.h"
#include "sim/machine.h"

namespace hn::hypernel {

enum class Mode : u8 { kNative, kKvmGuest, kHypernel };

[[nodiscard]] constexpr const char* mode_name(Mode mode) {
  switch (mode) {
    case Mode::kNative: return "Native";
    case Mode::kKvmGuest: return "KVM-guest";
    case Mode::kHypernel: return "Hypernel";
  }
  return "?";
}

struct SystemConfig {
  Mode mode = Mode::kHypernel;
  sim::MachineConfig machine;
  kernel::KernelConfig kernel;  // linear_limit derived from mode when 0
  kvm::KvmConfig kvm;
  hypersec::HypersecConfig hypersec;
  /// Attach the MBM (Hypernel mode only).  The bitmap and event ring are
  /// laid out automatically in the secure space.
  bool enable_mbm = true;
  u64 mbm_ring_entries = 8192;
  unsigned mbm_fifo_depth = 64;
  unsigned mbm_bitmap_cache_entries = 16;
  bool mbm_bitmap_cache_enabled = true;
  /// Enable the observability registry (DESIGN.md §10) from the first
  /// instruction of boot, so --metrics-out captures the whole run.
  bool metrics = false;
};

class System {
 public:
  /// Build and boot a system.  On success the kernel is running its init
  /// process and (per mode) KVM or Hypersec is engaged.
  static Result<std::unique_ptr<System>> create(const SystemConfig& config);

  ~System();
  System(const System&) = delete;
  System& operator=(const System&) = delete;

  [[nodiscard]] Mode mode() const { return config_.mode; }
  sim::Machine& machine() { return *machine_; }
  kernel::Kernel& kernel() { return *kernel_; }
  /// Non-null in kHypernel mode only.
  hypersec::Hypersec* hypersec() { return hypersec_.get(); }
  /// Non-null in kKvmGuest mode only.
  kvm::KvmHypervisor* kvm() { return kvm_.get(); }
  /// Non-null in kHypernel mode with enable_mbm.
  mbm::MemoryBusMonitor* mbm() { return mbm_.get(); }

  /// Register a security application with Hypersec (kHypernel mode).
  Status register_security_app(hypersec::SecurityApp& app);

  // --- Measurement window helpers ------------------------------------------
  struct Snapshot {
    Cycles cycles = 0;
    sim::Counters counters;
  };
  [[nodiscard]] Snapshot snapshot() const;
  [[nodiscard]] double us_since(const Snapshot& s) const;
  [[nodiscard]] Cycles cycles_since(const Snapshot& s) const;
  [[nodiscard]] sim::Counters counters_since(const Snapshot& s) const;

  /// Observability snapshot of the machine's metrics registry (empty
  /// values unless SystemConfig::metrics was set).
  [[nodiscard]] obs::Snapshot metrics_snapshot() const {
    return machine_->obs().snapshot();
  }

  // --- Machine snapshot / COW fork (DESIGN.md §12) ---------------------------
  /// FNV digest of the configuration fields that shape simulated state.
  /// Host-only knobs (fast path, metrics) are excluded: snapshots restore
  /// across them.
  [[nodiscard]] u64 config_digest() const;
  /// Capture the full machine + software state: a layered state blob plus
  /// COW-shared DRAM pages (no RAM copy).  Records a kSnapshot(save) trace
  /// event first, so the marker is part of the saved ring and its sequence
  /// id (`save_seq`) survives as the restore event's cause link.
  [[nodiscard]] sim::Snapshot save_state();
  /// Restore a snapshot into this live, identically-configured system
  /// (validated by config digest).  Wiring persists; architectural state
  /// is replaced and host-side caches invalidate through vm_generation.
  /// Records a kSnapshot(restore) event caused by the snapshot's save.
  ///
  /// Restoring the snapshot this system last saved to or restored from
  /// (same Snapshot::id) with the host fast path on is a *delta* restore:
  /// memory visits only the page slots dirtied since, and layers that
  /// track their own changes copy back only those.  Any other snapshot,
  /// and every restore in reference mode, takes the full restore — the
  /// oracle the delta path must match byte for byte.
  Status restore_state(const sim::Snapshot& snap);
  /// Whether the last successful restore_state took the delta path.
  [[nodiscard]] bool last_restore_was_delta() const {
    return last_restore_delta_;
  }

 private:
  explicit System(const SystemConfig& config) : config_(config) {}
  Status build();

  SystemConfig config_;
  std::unique_ptr<sim::Machine> machine_;
  std::unique_ptr<kernel::Kernel> kernel_;
  std::unique_ptr<mbm::MemoryBusMonitor> mbm_;
  std::unique_ptr<kvm::KvmHypervisor> kvm_;
  std::unique_ptr<hypersec::Hypersec> hypersec_;
  /// Snapshot::id of the last save_state/restore_state (0: none, or the
  /// state has changed by other means since — a failed restore).
  u64 synced_snapshot_ = 0;
  bool last_restore_delta_ = false;
};

}  // namespace hn::hypernel
