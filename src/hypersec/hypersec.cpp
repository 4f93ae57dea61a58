#include "hypersec/hypersec.h"

#include <cassert>

#include "common/hvc_abi.h"
#include "common/log.h"
#include "kernel/layout.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"

namespace hn::hypersec {

using sim::SysReg;
using sim::TrapVerdict;

Hypersec::Hypersec(sim::Machine& machine, kernel::Kernel& kernel,
                   mbm::MemoryBusMonitor* mbm, const HypersecConfig& config)
    : machine_(machine), kernel_(kernel), mbm_(mbm), config_(config),
      verifier_(machine, kernel::kTextBase, kernel::kTextSize,
                kernel::kRodataBase, kernel::kRodataSize) {
  obs::Registry& obs = machine_.obs();
  obs_hvc_calls_ = obs.counter("hypersec.hvc.calls");
  obs_verify_cycles_ = obs.counter("hypersec.hvc.verify_cycles");
  obs_pt_writes_ = obs.counter("hypersec.pt_writes");
  obs_pt_write_denials_ = obs.counter("hypersec.pt_write_denials");
  obs_traps_ = obs.counter("hypersec.traps");
  obs_trap_denials_ = obs.counter("hypersec.trap_denials");
  obs_audit_scans_ = obs.counter("hypersec.audit.scans");
  obs_audit_memo_hits_ = obs.counter("hypersec.audit.memo_hits");
  span_hvc_ = machine_.spans().intern("hypersec.hvc");
  span_trap_ = machine_.spans().intern("hypersec.trap");
}

Hypersec::~Hypersec() {
  machine_.install_hypercall_handler(nullptr);
  machine_.install_sysreg_trap_handler(nullptr);
}

bool Hypersec::set_linear_writable(PhysAddr pa, bool writable) {
  // Hypersec edits the EL1 leaf descriptor directly at EL2; the page stays
  // readable to the kernel (it must walk its own tables), only the write
  // permission changes (§5.2.1).
  const VirtAddr va = kernel::phys_to_virt(pa);
  PhysAddr table = kernel_.kpt().kernel_root();
  for (unsigned l = 0; l <= 3; ++l) {
    const PhysAddr desc_pa = table + sim::va_index(va, l) * 8;
    const u64 desc = machine_.el2_read64(desc_pa);
    if (!sim::desc_valid(desc)) return false;
    if (sim::desc_is_table(desc, l)) {
      table = sim::desc_out_addr(desc);
      continue;
    }
    sim::PageAttrs attrs = sim::decode_attrs(desc);
    attrs.write = writable;
    machine_.el2_write64(desc_pa, sim::desc_with_attrs(desc, attrs));
    machine_.tlb_shootdown_va(va);
    machine_.advance(machine_.timing().tlbi);
    return true;
  }
  return false;
}

Status Hypersec::init() {
  assert(!initialized_);
  if (kernel_.config().use_sections) {
    return Status::Precondition(
        "hypersec: section-mapped kernel cannot enforce per-page RO tables "
        "(protection granularity gap, see paper §6.2) — boot the kernel "
        "with 4 KiB pages");
  }
  if (kernel_.linear_limit() > machine_.secure_base()) {
    return Status::Precondition(
        "hypersec: kernel linear map covers the secure space");
  }

  // §6.1: EL2 control state.  The EL2 'page table' is a linear map
  // (VA == PA), represented by TTBR0_EL2 = 0.
  machine_.set_sysreg_raw_all(SysReg::TTBR0_EL2, 0);
  machine_.set_sysreg_raw_all(
      SysReg::SP_EL2, machine_.secure_base() + machine_.secure_size() - 64);
  machine_.set_sysreg_raw_all(SysReg::VBAR_EL2, 0xE12E'C000);

  // Inventory the kernel's translation tables and lock them read-only.
  verifier_.set_kernel_root(kernel_.kpt().kernel_root());
  for (const auto& [pa, level] : kernel_.kpt().pt_pages()) {
    verifier_.add_pt_page(pa, level);
  }
  // Seal the TTBR1 tree: enumerate every table reachable from the kernel
  // root and mark it immutable to EL1-requested writes.
  {
    auto seal = [&](auto&& self, PhysAddr table, unsigned level) -> void {
      verifier_.mark_kernel_tree(table);
      if (level == 3) return;
      for (u64 idx = 0; idx < kPtEntries; ++idx) {
        const u64 desc = machine_.phys().read64(table + idx * 8);
        if (sim::desc_valid(desc) && sim::desc_is_table(desc, level)) {
          self(self, sim::desc_out_addr(desc), level + 1);
        }
      }
    };
    seal(seal, kernel_.kpt().kernel_root(), 0);
  }
  for (const kernel::Task* task : kernel_.procs().all_tasks()) {
    verifier_.add_user_root(task->ttbr0);
  }

  if (mbm_ != nullptr) {
    driver_ = std::make_unique<MbmDriver>(machine_, kernel_, *mbm_,
                                          config_.mbm_noncacheable_remap);
    kernel_.enable_mbm_irq_forwarding();
  }

  // Lock every existing PT page read-only in the EL1 linear map.
  for (const auto& [pa, level] : kernel_.kpt().pt_pages()) {
    if (!set_linear_writable(pa, false)) {
      return Status::Internal("hypersec: PT page not mapped in linear map");
    }
  }

  // §5.2.2 / §6.1: trap EL1 virtual-memory register writes.
  machine_.set_sysreg_raw_all(
      SysReg::HCR_EL2,
      with_bit(machine_.sysreg(SysReg::HCR_EL2), sim::kHcrTvm, true));
  machine_.install_sysreg_trap_handler(
      [this](SysReg reg, u64 value) { return handle_sysreg_trap(reg, value); });
  machine_.install_hypercall_handler(
      [this](u64 func, std::span<const u64> args) {
        return handle_hvc(func, args);
      });

  // §6.2: from here on the kernel writes its tables by hypercall.
  kernel_.use_hypercall_pt_writes();

  initialized_ = true;
  return Status::Ok();
}

void Hypersec::register_app(SecurityApp& app) { apps_[app.sid()] = &app; }

Status Hypersec::enable_dma_protection(sim::Iommu& iommu,
                                       std::span<const u32> streams) {
  if (!initialized_) {
    return Status::Precondition("hypersec: init() first");
  }
  for (const u32 stream : streams) {
    iommu.clear(stream);
    iommu.allow(stream, sim::Iommu::Window{0, machine_.secure_base(), true});
    machine_.advance(config_.verify_cost);
  }
  iommu.set_enabled(true);
  return Status::Ok();
}

void Hypersec::revalidate_audit_cache() const {
  std::erase_if(audit_cache_, [&](const auto& kv) {
    const AuditTableEntry& entry = kv.second;
    if (entry.has_alias || !verifier_.is_pt_page(kv.first)) return true;
    for (const auto& [begin, end] : entry.writable) {
      if (verifier_.any_pt_page_in(begin, end)) return true;
    }
    return false;
  });
}

std::vector<AuditFinding> Hypersec::audit_report() const {
  std::vector<AuditFinding> violations;
  auto note = [&](AuditCode code, std::string detail) {
    violations.push_back(AuditFinding{code, std::move(detail)});
  };

  // 4. The live translation root is the sealed kernel root.
  const PhysAddr ttbr1 =
      machine_.sysreg(SysReg::TTBR1_EL1) & 0x0000'FFFF'FFFF'FFFFull;
  if (ttbr1 != verifier_.kernel_root()) {
    note(AuditCode::kTtbrHijacked,
         "TTBR1_EL1 does not name the sealed kernel root");
  }

  // Walk a stage-1 tree, applying the leaf checks.  Every table's scan is
  // first flattened into an ordered item list (child descents and findings
  // interleaved in entry order), then replayed — identical findings in
  // identical order to a direct recursive walk.  On the host fast path the
  // item lists of *watched* (inventory-registered) tables are memoized,
  // keyed on the page's mutation epoch; see hypersec.h for the
  // invalidation rules.  All table reads are uncharged phys() peeks, so
  // memoization changes no simulated state whatsoever.
  const bool memoize = machine_.host_fast_path();
  if (memoize && audit_cache_gen_ != verifier_.generation()) {
    revalidate_audit_cache();
    audit_cache_gen_ = verifier_.generation();
  }

  auto scan_table = [&](PhysAddr table, unsigned level,
                        AuditTableEntry& entry) {
    obs_audit_scans_.add();
    std::vector<AuditScanItem>& items = entry.items;
    for (u64 idx = 0; idx < kPtEntries; ++idx) {
      const u64 desc = machine_.phys().read64(table + idx * 8);
      if (!sim::desc_valid(desc)) continue;
      if (sim::desc_is_table(desc, level)) {
        items.push_back(AuditScanItem{.is_child = true,
                                      .child = sim::desc_out_addr(desc)});
        continue;
      }
      const bool leaf =
          (level == 3 && bit(desc, sim::kDescTable)) ||
          sim::desc_is_block(desc, level);
      if (!leaf) continue;
      const PhysAddr out = sim::desc_out_addr(desc);
      const u64 span = sim::level_span(level);
      const sim::PageAttrs attrs = sim::decode_attrs(desc);
      // 2. nothing maps the secure space.
      if (ranges_overlap(out, span, machine_.secure_base(),
                         machine_.secure_size())) {
        items.push_back(
            AuditScanItem{.code = AuditCode::kSecureMapped,
                          .detail = ": mapping reaches the secure space"});
      }
      // 3. W^X.
      if (attrs.write && attrs.exec) {
        items.push_back(
            AuditScanItem{.code = AuditCode::kWxViolation,
                          .detail = ": writable+executable mapping"});
      }
      // 1. PT pages are read-only through any alias.
      if (attrs.write) {
        const PhysAddr begin = page_align_down(out);
        const PhysAddr end = begin + span;
        if (verifier_.any_pt_page_in(begin, end)) {
          items.push_back(
              AuditScanItem{.code = AuditCode::kPtWritableAlias,
                            .detail = ": writable alias of a PT page"});
          entry.has_alias = true;
        }
        if (!entry.writable.empty() && entry.writable.back().second == begin) {
          entry.writable.back().second = end;
        } else {
          entry.writable.emplace_back(begin, end);
        }
      }
    }
  };

  auto walk_tree = [&](auto&& self, PhysAddr table, unsigned level,
                       const char* which) -> void {
    const std::vector<AuditScanItem>* items = nullptr;
    AuditTableEntry local;
    const u64 pindex = table >> kPageShift;
    if (memoize && pindex < machine_.phys().page_count() &&
        machine_.phys().page_watched(pindex)) {
      const u64 epoch = machine_.phys().page_epoch(pindex);
      auto it = audit_cache_.find(table);
      if (it == audit_cache_.end() || it->second.epoch != epoch ||
          it->second.level != level) {
        AuditTableEntry entry;
        entry.epoch = epoch;
        entry.level = level;
        scan_table(table, level, entry);
        it = audit_cache_.insert_or_assign(table, std::move(entry)).first;
      } else {
        obs_audit_memo_hits_.add();
      }
      items = &it->second.items;  // std::map: stable across child inserts
    } else {
      scan_table(table, level, local);
      items = &local.items;
    }
    for (const AuditScanItem& item : *items) {
      if (item.is_child) {
        self(self, item.child, level + 1, which);
      } else {
        note(item.code, std::string(which) + item.detail);
      }
    }
  };
  walk_tree(walk_tree, verifier_.kernel_root(), 0, "kernel tree");
  for (const kernel::Task* task : kernel_.procs().all_tasks()) {
    if (task->ttbr0 != 0) walk_tree(walk_tree, task->ttbr0, 0, "user tree");
  }
  return violations;
}

std::vector<std::string> Hypersec::audit() const {
  std::vector<std::string> out;
  for (const AuditFinding& f : audit_report()) {
    out.push_back(std::string("[") + audit_code_name(f.code) + "] " + f.detail);
  }
  return out;
}

u64 Hypersec::handle_hvc(u64 func, std::span<const u64> args) {
  obs::SpanScope span(machine_.spans(), span_hvc_);
  obs_hvc_calls_.add();
  obs_verify_cycles_.add(config_.verify_cost);
  machine_.advance(config_.verify_cost);
  switch (func) {
    case hvc::kPtWrite:
      return do_pt_write(args);
    case hvc::kPtAlloc:
      return do_pt_alloc(args);
    case hvc::kPtFree:
      return do_pt_free(args);
    case hvc::kPtRegisterRoot:
      if (args.size() != 1) return hvc::kBadArgs;
      ++stats_.root_registrations;
      verifier_.add_user_root(args[0]);
      return hvc::kOk;
    case hvc::kPtUnregisterRoot:
      if (args.size() != 1) return hvc::kBadArgs;
      verifier_.remove_user_root(args[0]);
      return hvc::kOk;
    case hvc::kMonRegister:
      return do_mon_register(args);
    case hvc::kMonUnregister:
      return do_mon_unregister(args);
    case hvc::kModuleSeal:
      return do_module_seal(args, true);
    case hvc::kModuleUnseal:
      return do_module_seal(args, false);
    case hvc::kMbmIrq:
      return do_mbm_irq();
    default:
      return hvc::kBadArgs;
  }
}

u64 Hypersec::do_pt_write(std::span<const u64> args) {
  if (args.size() != 3) return hvc::kBadArgs;
  ++stats_.pt_write_calls;
  obs_pt_writes_.add();
  const PhysAddr table_pa = args[0];
  const auto index = static_cast<unsigned>(args[1]);
  const u64 desc = args[2];
  if (index >= kPtEntries) return hvc::kBadArgs;
  if (verifier_.check_pt_write(table_pa, index, desc) == Verdict::kDeny) {
    ++stats_.pt_write_denials;
    obs_pt_write_denials_.add();
    HN_LOG_DEBUG("hypersec", "denied PT write: table=%llx idx=%u desc=%llx",
                 static_cast<unsigned long long>(table_pa), index,
                 static_cast<unsigned long long>(desc));
    return hvc::kDenied;
  }
  machine_.el2_write64(table_pa + index * 8, desc);
  return hvc::kOk;
}

u64 Hypersec::do_pt_alloc(std::span<const u64> args) {
  if (args.size() != 2) return hvc::kBadArgs;
  const PhysAddr pa = args[0];
  const auto level = static_cast<unsigned>(args[1]);
  if (!is_page_aligned(pa) || level > 3) return hvc::kBadArgs;
  if (machine_.in_secure_space(pa, kPageSize)) return hvc::kDenied;
  if (verifier_.is_pt_page(pa)) return hvc::kDenied;
  // The page must arrive zeroed: no pre-seeded descriptors.
  for (u64 off = 0; off < kPageSize; off += kWordSize) {
    if (machine_.el2_read64(pa + off) != 0) return hvc::kDenied;
  }
  ++stats_.pt_allocs;
  verifier_.add_pt_page(pa, level);
  // Lock it read-only in the EL1 linear map.
  if (!set_linear_writable(pa, false)) {
    verifier_.remove_pt_page(pa);
    return hvc::kDenied;
  }
  if (pt_observer_ != nullptr) pt_observer_->on_pt_alloc(pa, level);
  return hvc::kOk;
}

u64 Hypersec::do_pt_free(std::span<const u64> args) {
  if (args.size() != 1) return hvc::kBadArgs;
  const PhysAddr pa = args[0];
  if (!verifier_.is_pt_page(pa)) return hvc::kDenied;
  ++stats_.pt_frees;
  verifier_.remove_pt_page(pa);
  if (pt_observer_ != nullptr) pt_observer_->on_pt_free(pa);
  // Restore the EL1 linear-map write permission.
  return set_linear_writable(pa, true) ? hvc::kOk : hvc::kDenied;
}

u64 Hypersec::do_mon_register(std::span<const u64> args) {
  if (args.size() != 3 || driver_ == nullptr) return hvc::kBadArgs;
  const u64 sid = args[0];
  if (!apps_.contains(sid)) return hvc::kDenied;
  ++stats_.mon_registers;
  return driver_->register_region(sid, args[1], args[2]).ok() ? hvc::kOk
                                                              : hvc::kDenied;
}

u64 Hypersec::do_mon_unregister(std::span<const u64> args) {
  if (args.size() != 3 || driver_ == nullptr) return hvc::kBadArgs;
  ++stats_.mon_unregisters;
  return driver_->unregister_region(args[0], args[1], args[2]).ok()
             ? hvc::kOk
             : hvc::kDenied;
}

u64 Hypersec::do_module_seal(std::span<const u64> args, bool seal) {
  if (args.size() != 2) return hvc::kBadArgs;
  const PhysAddr base = args[0];
  const u64 pages = args[1];
  if (!is_page_aligned(base) || pages == 0 || pages > 1024) {
    return hvc::kBadArgs;
  }
  // The region must be ordinary kernel data: never the secure space, the
  // kernel image, or translation tables.  Unseal additionally requires
  // that every page was actually sealed module text.
  if (machine_.in_secure_space(base, pages * kPageSize)) return hvc::kDenied;
  if (ranges_overlap(base, pages * kPageSize, kernel::kImageBase,
                     kernel::kImageEnd)) {
    return hvc::kDenied;
  }
  for (u64 p = 0; p < pages; ++p) {
    const PhysAddr pa = base + p * kPageSize;
    if (verifier_.is_pt_page(pa)) return hvc::kDenied;
    if (seal && verifier_.is_module_text(pa)) return hvc::kDenied;
    if (!seal && !verifier_.is_module_text(pa)) return hvc::kDenied;
  }
  // Apply the attribute change descriptor by descriptor at EL2: RX when
  // sealing, RW non-exec when unsealing (never both — W^X by construction).
  for (u64 p = 0; p < pages; ++p) {
    const PhysAddr pa = base + p * kPageSize;
    const VirtAddr va = kernel::phys_to_virt(pa);
    PhysAddr table = kernel_.kpt().kernel_root();
    bool done = false;
    for (unsigned l = 0; l <= 3 && !done; ++l) {
      const PhysAddr desc_pa = table + sim::va_index(va, l) * 8;
      const u64 desc = machine_.el2_read64(desc_pa);
      if (!sim::desc_valid(desc)) return hvc::kDenied;
      if (sim::desc_is_table(desc, l)) {
        table = sim::desc_out_addr(desc);
        continue;
      }
      sim::PageAttrs attrs = sim::decode_attrs(desc);
      attrs.write = !seal;
      attrs.exec = seal;
      machine_.el2_write64(desc_pa, sim::desc_with_attrs(desc, attrs));
      machine_.tlb_shootdown_va(va);
      machine_.advance(machine_.timing().tlbi);
      done = true;
    }
    if (!done) return hvc::kDenied;
    if (seal) {
      verifier_.add_module_text(pa);
    } else {
      verifier_.remove_module_text(pa);
    }
  }
  return hvc::kOk;
}

u64 Hypersec::do_mbm_irq() {
  if (driver_ == nullptr) return hvc::kBadArgs;
  ++stats_.mbm_irq_calls;
  const u64 n = driver_->drain(
      [this](const mbm::MonitorEvent& ev, const RegionInfo& region) {
        auto it = apps_.find(region.sid);
        if (it == apps_.end()) return AppVerdict::kBenign;
        return it->second->on_write_event(ev, region);
      });
  stats_.events_dispatched += n;
  return hvc::kOk;
}

TrapVerdict Hypersec::handle_sysreg_trap(SysReg reg, u64 value) {
  obs::SpanScope span(machine_.spans(), span_trap_);
  obs_traps_.add();
  obs_verify_cycles_.add(config_.verify_cost);
  machine_.advance(config_.verify_cost);
  ++stats_.ttbr_traps;
  switch (reg) {
    case SysReg::TTBR1_EL1: {
      // The kernel half may only ever use the one vetted root (§6.1).
      const PhysAddr baddr = value & 0x0000'FFFF'FFFF'FFFFull;
      if (baddr != verifier_.kernel_root()) {
        ++stats_.trap_denials;
        obs_trap_denials_.add();
        return TrapVerdict::kDeny;
      }
      return TrapVerdict::kAllow;
    }
    case SysReg::TTBR0_EL1: {
      // ATRA defence: user roots must have been registered through the
      // hypercall interface before they can be installed.
      const PhysAddr baddr = value & 0x0000'FFFF'FFFF'FFFFull;
      if (baddr != 0 && !verifier_.is_user_root(baddr)) {
        ++stats_.trap_denials;
        obs_trap_denials_.add();
        return TrapVerdict::kDeny;
      }
      return TrapVerdict::kAllow;
    }
    case SysReg::SCTLR_EL1:
      // The MMU must stay on: with translation disabled every protection
      // Hypernel established would evaporate (§5.2.2).
      if (!bit(value, 0)) {
        ++stats_.trap_denials;
        obs_trap_denials_.add();
        return TrapVerdict::kDeny;
      }
      return TrapVerdict::kAllow;
    case SysReg::TCR_EL1:
    case SysReg::MAIR_EL1:
    case SysReg::CONTEXTIDR_EL1:
      return TrapVerdict::kAllow;  // verified no-ops in this model
    default:
      return TrapVerdict::kAllow;
  }
}

}  // namespace hn::hypersec
