#include "hypernel/system.h"

#include "mbm/bitmap_math.h"

namespace hn::hypernel {

System::~System() = default;

Result<std::unique_ptr<System>> System::create(const SystemConfig& config) {
  std::unique_ptr<System> sys(new System(config));
  if (Status s = sys->build(); !s.ok()) return s;
  return sys;
}

Status System::build() {
  machine_ = std::make_unique<sim::Machine>(config_.machine);
  if (config_.metrics) machine_->obs().set_enabled(true);

  // The MBM is standard under Hypernel; a Native system may also carry it
  // (without Hypersec) to reproduce the bare external-monitor baseline and
  // its ATRA weakness (§2, [15]).
  const bool want_mbm =
      config_.enable_mbm && config_.mode != Mode::kKvmGuest;

  kernel::KernelConfig kcfg = config_.kernel;
  if (kcfg.linear_limit == 0) {
    // A pure native kernel keeps all of DRAM; KVM reserves the top for the
    // host (stage-2 tables); Hypernel — and any system carrying the MBM —
    // reserves it as the secure space (§5.2).
    kcfg.linear_limit = (config_.mode == Mode::kNative && !want_mbm)
                            ? machine_->phys().size()
                            : machine_->secure_base();
  }
  kernel_ = std::make_unique<kernel::Kernel>(*machine_, kcfg);

  if (config_.mode == Mode::kKvmGuest) {
    kvm_ = std::make_unique<kvm::KvmHypervisor>(*machine_, *kernel_,
                                                config_.kvm);
    if (Status s = kvm_->init(); !s.ok()) return s;
  }

  if (Status s = kernel_->boot(); !s.ok()) return s;

  if (want_mbm) {
    // Secure-space layout: [bitmap][event ring][Hypersec stack/data].
    mbm::MbmConfig mcfg;
    mcfg.watch_base = 0;
    mcfg.watch_size = machine_->secure_base();
    mcfg.bitmap_base = machine_->secure_base();
    mcfg.ring_base = page_align_up(mcfg.bitmap_base +
                                   mbm::bitmap_bytes_for(mcfg.watch_size));
    mcfg.ring_entries = config_.mbm_ring_entries;
    mcfg.fifo_depth = config_.mbm_fifo_depth;
    mcfg.bitmap_cache_entries = config_.mbm_bitmap_cache_entries;
    mcfg.bitmap_cache_enabled = config_.mbm_bitmap_cache_enabled;
    const u64 ring_end =
        mcfg.ring_base + mcfg.ring_entries * mbm::kRingEntryBytes;
    if (ring_end > machine_->phys().size()) {
      return Status::Invalid("secure space too small for MBM structures");
    }
    mbm_ = std::make_unique<mbm::MemoryBusMonitor>(*machine_, mcfg);
  }

  if (config_.mode == Mode::kHypernel) {
    hypersec_ = std::make_unique<hypersec::Hypersec>(
        *machine_, *kernel_, mbm_.get(), config_.hypersec);
    if (Status s = hypersec_->init(); !s.ok()) return s;
  }
  return Status::Ok();
}

Status System::register_security_app(hypersec::SecurityApp& app) {
  if (hypersec_ == nullptr) {
    return Status::Precondition(
        "security applications require the Hypernel configuration");
  }
  hypersec_->register_app(app);
  return Status::Ok();
}

System::Snapshot System::snapshot() const {
  Snapshot s;
  s.cycles = machine_->account().cycles();
  s.counters = machine_->account().counters();
  return s;
}

double System::us_since(const Snapshot& s) const {
  return machine_->timing().cycles_to_us(machine_->account().cycles() -
                                         s.cycles);
}

Cycles System::cycles_since(const Snapshot& s) const {
  return machine_->account().cycles() - s.cycles;
}

sim::Counters System::counters_since(const Snapshot& s) const {
  return machine_->account().counters().delta(s.counters);
}

// --- Machine snapshot / COW fork ---------------------------------------------

namespace {

inline u64 fold(u64 h, u64 v) {
  return (h ^ v) * 1099511628211ull;  // FNV-1a step over a 64-bit word
}

}  // namespace

u64 System::config_digest() const {
  u64 h = 14695981039346656037ull;
  h = fold(h, static_cast<u64>(config_.mode));
  h = fold(h, config_.machine.dram_size);
  h = fold(h, config_.machine.secure_size);
  h = fold(h, config_.machine.cache.size_bytes);
  h = fold(h, config_.machine.cache.ways);
  h = fold(h, config_.machine.cache.enabled);
  h = fold(h, config_.machine.tlb_entries);
  // Folded only for SMP machines so every single-core digest (and with it
  // every pre-SMP golden, including pinned snapshot files) is unchanged.
  if (config_.machine.cores > 1) h = fold(h, config_.machine.cores);
  h = fold(h, config_.kernel.use_sections);
  h = fold(h, config_.kernel.linear_limit);
  h = fold(h, config_.kernel.timer_period);
  h = fold(h, config_.enable_mbm);
  h = fold(h, config_.mbm_ring_entries);
  h = fold(h, config_.mbm_fifo_depth);
  h = fold(h, config_.mbm_bitmap_cache_entries);
  h = fold(h, config_.mbm_bitmap_cache_enabled);
  h = fold(h, config_.kvm.eager_map);
  h = fold(h, config_.kvm.thp_backing);
  h = fold(h, config_.kvm.recycle_invalidate_permille);
  h = fold(h, config_.kvm.recycle_min_interval);
  h = fold(h, config_.kvm.recycle_burst);
  h = fold(h, config_.kvm.rng_seed);
  h = fold(h, config_.hypersec.verify_cost);
  h = fold(h, config_.hypersec.mbm_noncacheable_remap);
  return h;
}

sim::Snapshot System::save_state() {
  sim::Snapshot snap;
  snap.config_digest = config_digest();
  // The save marker goes in first so it is the last event of the saved
  // ring; every restore links back to it by this sequence id.
  snap.save_seq = machine_->trace().record(machine_->account().cycles(),
                                           sim::TraceKind::kSnapshot, 1, 0);
  sim::SnapWriter w;
  w.put_u64(snap.save_seq);
  machine_->save_state(w);
  kernel_->save_state(w);
  w.put_bool(mbm_ != nullptr);
  if (mbm_) mbm_->save_state(w);
  w.put_bool(kvm_ != nullptr);
  if (kvm_) kvm_->save_state(w);
  w.put_bool(hypersec_ != nullptr);
  if (hypersec_) hypersec_->save_state(w);
  snap.state = w.take();
  snap.pages = machine_->phys().capture();
  snap.id = sim::next_snapshot_id();
  if (mbm_) mbm_->ring().mark_synced();
  synced_snapshot_ = snap.id;
  return snap;
}

Status System::restore_state(const sim::Snapshot& snap) {
  if (snap.empty()) {
    return Status::Invalid("snapshot: empty snapshot");
  }
  if (snap.config_digest != config_digest()) {
    return Status::Invalid(
        "snapshot: configuration digest mismatch (snapshot was taken from a "
        "differently configured system)");
  }
  const bool delta = snap.id != 0 && snap.id == synced_snapshot_ &&
                     machine_->host_fast_path();
  synced_snapshot_ = 0;
  sim::PhysicalMemory& phys = machine_->phys();
  if (Status s = delta ? phys.adopt_dirty(snap.pages) : phys.adopt(snap.pages);
      !s.ok()) {
    return s;
  }
  sim::SnapReader r(snap.state, delta);
  const u64 save_seq = r.get_u64();
  machine_->restore_state(r);
  kernel_->restore_state(r);
  r.section("system");
  const bool had_mbm = r.get_bool();
  if (r.ok() && had_mbm != (mbm_ != nullptr)) {
    r.fail("MBM presence does not match this configuration");
  }
  if (r.ok() && mbm_) mbm_->restore_state(r);
  r.section("system");
  const bool had_kvm = r.get_bool();
  if (r.ok() && had_kvm != (kvm_ != nullptr)) {
    r.fail("KVM presence does not match this configuration");
  }
  if (r.ok() && kvm_) kvm_->restore_state(r);
  r.section("system");
  const bool had_hypersec = r.get_bool();
  if (r.ok() && had_hypersec != (hypersec_ != nullptr)) {
    r.fail("Hypersec presence does not match this configuration");
  }
  if (r.ok() && hypersec_) hypersec_->restore_state(r);
  if (r.ok() && r.remaining() != 0) {
    r.section("system");
    r.fail("trailing bytes after layered state");
  }
  if (Status s = r.status(); !s.ok()) return s;
  synced_snapshot_ = snap.id;
  last_restore_delta_ = delta;
  // The restored ring ends with the save marker; the restore event links
  // back to it, so offline tools see fork points as explicit edges.
  machine_->trace().record_caused(machine_->account().cycles(),
                                  sim::TraceKind::kSnapshot, save_seq, 2, 0);
  return Status::Ok();
}

}  // namespace hn::hypernel
