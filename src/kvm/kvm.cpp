#include "kvm/kvm.h"

#include <algorithm>
#include <cassert>

#include "common/log.h"
#include "kernel/layout.h"
#include "sim/pagetable.h"
#include "sim/sysregs.h"

namespace hn::kvm {

using sim::SysReg;

KvmHypervisor::KvmHypervisor(sim::Machine& machine, kernel::Kernel& kernel,
                             const KvmConfig& config)
    : machine_(machine), kernel_(kernel), config_(config),
      rng_(config.rng_seed) {}

KvmHypervisor::~KvmHypervisor() {
  machine_.set_guest_mode(false);
  kernel_.buddy().set_free_hook(nullptr);
  machine_.set_s2_fault_handler(nullptr);
  machine_.install_el2_irq_handler(nullptr);
}

PhysAddr KvmHypervisor::alloc_s2_table() {
  // Stage-2 tables live in host-reserved memory (the carve-out at the top
  // of DRAM, which the guest's linear map excludes).
  const PhysAddr pa = s2_pool_next_;
  assert(pa + kPageSize <= machine_.phys().size() &&
         "stage-2 table pool exhausted");
  s2_pool_next_ += kPageSize;
  machine_.phys().zero_range(pa, kPageSize);
  return pa;
}

Status KvmHypervisor::init() {
  assert(s2_root_ == 0 && "KVM already initialised");
  guest_ram_size_ = machine_.secure_base();
  ever_mapped_.assign(((guest_ram_size_ >> kPageShift) + 63) / 64, 0);
  s2_pool_next_ = machine_.secure_base();
  s2_root_ = alloc_s2_table();

  machine_.set_sysreg_raw_all(SysReg::VTTBR_EL2, s2_root_);
  u64 hcr = machine_.sysreg(SysReg::HCR_EL2);
  hcr = with_bit(hcr, sim::kHcrVm, true);   // stage-2 translation on
  hcr = with_bit(hcr, sim::kHcrImo, true);  // physical IRQs exit to EL2
  machine_.set_sysreg_raw_all(SysReg::HCR_EL2, hcr);

  machine_.set_s2_fault_handler(
      [this](const sim::Fault& fault, bool is_write, u64 value) {
        return on_s2_fault(fault, is_write, value);
      });
  machine_.set_guest_mode(true);

  // Physical interrupts take a full world switch before reinjection into
  // the guest (3.10-era KVM/ARM, no VHE).
  machine_.install_el2_irq_handler([this](unsigned line) {
    ++stats_.irq_exits;
    machine_.advance(machine_.timing().vm_exit);
    ++machine_.counters().vm_exits;
    machine_.exceptions().invoke_el1_irq(line);
    machine_.advance(machine_.timing().vm_entry);
  });

  // Host memory-pressure model: some recycled frames lose their stage-2
  // mapping (see header).
  recycle_tokens_ = config_.recycle_burst;
  recycle_last_refill_ = machine_.account().cycles();
  kernel_.buddy().set_free_hook([this](PhysAddr pa, unsigned order) {
    if (config_.recycle_invalidate_permille == 0) return;
    // Refill the reclaim-rate token bucket from elapsed guest time.
    const Cycles now = machine_.account().cycles();
    recycle_tokens_ = std::min<double>(
        config_.recycle_burst,
        recycle_tokens_ + static_cast<double>(now - recycle_last_refill_) /
                              config_.recycle_min_interval);
    recycle_last_refill_ = now;
    for (u64 i = 0; i < (u64{1} << order); ++i) {
      if (recycle_tokens_ < 1.0) break;
      if (rng_.chance(config_.recycle_invalidate_permille, 1000)) {
        if (s2_unmap(pa + i * kPageSize).ok()) {
          ++stats_.recycle_invalidations;
          recycle_tokens_ -= 1.0;
        }
      }
    }
  });

  if (config_.eager_map) {
    for (IpaAddr ipa = 0; ipa < guest_ram_size_; ipa += kPageSize) {
      if (Status s = s2_map(ipa, /*write_ok=*/true); !s.ok()) return s;
    }
  }
  return Status::Ok();
}

Status KvmHypervisor::s2_map(IpaAddr ipa, bool write_ok) {
  PhysAddr table = s2_root_;
  for (unsigned level = 0; level <= 2; ++level) {
    const PhysAddr slot = table + sim::va_index(ipa, level) * 8;
    u64 desc = machine_.phys().read64(slot);
    if (!sim::desc_valid(desc)) {
      const PhysAddr next = alloc_s2_table();
      desc = sim::make_table_desc(next);
      machine_.phys().write64(slot, desc);
    }
    table = sim::desc_out_addr(desc);
  }
  const PhysAddr leaf = table + sim::va_index(ipa, 3) * 8;
  machine_.phys().write64(
      leaf, sim::make_s2_page_desc(page_align_down(ipa),
                                   sim::S2Attrs{true, write_ok}));
  ++stats_.pages_mapped;
  return Status::Ok();
}

Status KvmHypervisor::s2_unmap(IpaAddr ipa) {
  PhysAddr table = s2_root_;
  for (unsigned level = 0; level <= 2; ++level) {
    const u64 desc = machine_.phys().read64(table + sim::va_index(ipa, level) * 8);
    if (!sim::desc_valid(desc)) return Status::NotFound("s2: not mapped");
    table = sim::desc_out_addr(desc);
  }
  const PhysAddr leaf = table + sim::va_index(ipa, 3) * 8;
  if (!sim::desc_valid(machine_.phys().read64(leaf))) {
    return Status::NotFound("s2: not mapped");
  }
  machine_.phys().write64(leaf, 0);
  // The combined TLB entry for the guest VA must go too; the host only
  // knows the IPA, and this model's guest linear map gives its kernel VA.
  machine_.tlb_shootdown_va(kernel::phys_to_virt(page_align_down(ipa)));
  return Status::Ok();
}

sim::S2FaultAction KvmHypervisor::on_s2_fault(const sim::Fault& fault,
                                              bool is_write, u64 value) {
  const IpaAddr page = page_align_down(fault.ipa);
  if (page >= guest_ram_size_) {
    HN_LOG_WARN("kvm", "stage-2 fault outside guest RAM: ipa=%llx",
                static_cast<unsigned long long>(fault.ipa));
    return sim::S2FaultAction::kUnhandled;
  }

  if (fault.type == sim::FaultType::kS2Translation) {
    machine_.advance(machine_.timing().stage2_fault_service);
    ++stats_.s2_faults_serviced;
    if (config_.thp_backing && !ever_mapped(page)) {
      // Cold fault into THP-backed RAM: populate the whole 2 MiB group.
      const IpaAddr group = page & ~kSectionMask;
      const IpaAddr end = std::min<IpaAddr>(group + kSectionSize,
                                            guest_ram_size_);
      for (IpaAddr p = group; p < end; p += kPageSize) {
        mark_ever_mapped(p);
        if (!s2_map(p, /*write_ok=*/!is_protected(p)).ok()) {
          return sim::S2FaultAction::kUnhandled;
        }
      }
      return sim::S2FaultAction::kRetry;
    }
    mark_ever_mapped(page);
    if (!s2_map(page, /*write_ok=*/!is_protected(page)).ok()) {
      return sim::S2FaultAction::kUnhandled;
    }
    return sim::S2FaultAction::kRetry;
  }

  // Stage-2 permission fault on a write.
  if (is_write && is_protected(page)) {
    ++stats_.wp_traps;
    machine_.advance(machine_.timing().stage2_wp_emulate);
    if (wp_handler_) wp_handler_(fault.ipa, value);
    // Emulate the store on the guest's behalf (single-step emulation).
    // Any dirty cached copy — on any core — must be written back *before*
    // the store, or a later eviction would clobber the emulated value.
    machine_.cache_flush_range_all(fault.ipa, 1);
    machine_.phys().write64(word_align_down(fault.ipa), value);
    return sim::S2FaultAction::kEmulated;
  }

  // Stale write-protection (page no longer monitored): upgrade and retry.
  if (is_write) {
    machine_.advance(machine_.timing().stage2_fault_service);
    ++stats_.s2_faults_serviced;
    if (!s2_map(page, /*write_ok=*/true).ok()) {
      return sim::S2FaultAction::kUnhandled;
    }
    machine_.tlb_shootdown_va(fault.va);
    return sim::S2FaultAction::kRetry;
  }
  return sim::S2FaultAction::kUnhandled;
}

Status KvmHypervisor::protect_page(PhysAddr pa) {
  const PhysAddr page = page_align_down(pa);
  if (page >= guest_ram_size_) return Status::Invalid("outside guest RAM");
  protected_pages_.insert(page);
  // Downgrade an existing mapping (if any) and drop stale TLB entries.
  if (s2_unmap(page).ok()) {
    Status s = s2_map(page, /*write_ok=*/false);
    if (!s.ok()) return s;
  }
  machine_.tlb_shootdown_va(kernel::phys_to_virt(page));
  return Status::Ok();
}

Status KvmHypervisor::unprotect_page(PhysAddr pa) {
  const PhysAddr page = page_align_down(pa);
  if (protected_pages_.erase(page) == 0) {
    return Status::NotFound("page was not protected");
  }
  if (s2_unmap(page).ok()) {
    Status s = s2_map(page, /*write_ok=*/true);
    if (!s.ok()) return s;
  }
  machine_.tlb_shootdown_va(kernel::phys_to_virt(page));
  return Status::Ok();
}

}  // namespace hn::kvm
