// Delta snapshot restore (DESIGN.md §12).  A system restored onto the
// snapshot it last saved to or restored from visits only the page slots
// dirtied since, and the event ring copies back only the slots pushed
// since.  The full restore is the oracle: after any case, on every
// full-matrix configuration, a delta-restored twin must equal a
// fully-restored one byte for byte — saved state and every DRAM page.
// Planted changes in each layer the delta path treats specially must be
// undone, and reference mode, file-loaded snapshots and any other
// snapshot must take the full path.
#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fuzz/fuzzer.h"
#include "hypernel/system.h"
#include "kernel/layout.h"
#include "secapps/object_monitor.h"
#include "sim/snapshot.h"

namespace hn::hypernel {
namespace {

using fuzz::FuzzConfigSpec;

std::unique_ptr<System> make_system(const SystemConfig& cfg) {
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

/// A matrix cell's system with its object monitor installed, as the fuzz
/// executor's boot sessions build them.
struct Twin {
  std::unique_ptr<System> sys;
  std::unique_ptr<secapps::ObjectIntegrityMonitor> monitor;

  explicit Twin(const FuzzConfigSpec& spec)
      : sys(make_system(spec.system_config())) {
    if (spec.monitored()) {
      monitor = std::make_unique<secapps::ObjectIntegrityMonitor>(
          *sys, spec.granularity);
      EXPECT_TRUE(monitor->install().ok());
    }
  }

  /// Restore the system, then the monitor's host state from `monitor_blob`.
  void restore(const sim::Snapshot& snap,
               const std::vector<u8>& monitor_blob) {
    ASSERT_TRUE(sys->restore_state(snap).ok());
    if (monitor) {
      sim::SnapReader r(monitor_blob);
      monitor->restore_state(r);
      ASSERT_TRUE(r.ok()) << r.status().message();
    }
  }
};

/// A seeded case of kernel work that reaches every restored layer: files,
/// directories, processes, user memory (page faults, TLB fills, stage-2
/// faults under KVM), mmap/munmap (buddy) and setuid (monitored cred
/// writes that push MBM ring events).
void run_case(System& sys, u64 seed) {
  SplitMix64 rng(seed);
  kernel::Kernel& k = sys.kernel();
  for (int i = 0; i < 24; ++i) {
    const std::string path = "/f" + std::to_string(rng.next_below(6));
    switch (rng.next_below(8)) {
      case 0: {
        const Result<u64> ino = k.sys_creat(path);
        if (ino.ok()) {
          const u64 data = rng.next();
          const u64 offset = rng.next_below(1024) * kWordSize;
          (void)k.sys_write(ino.value(), offset, &data, sizeof data);
        }
        break;
      }
      case 1: (void)k.sys_unlink(path); break;
      case 2:
        (void)k.sys_mkdir("/d" + std::to_string(rng.next_below(4)));
        break;
      case 3:
        (void)k.run_user_memory(32 + rng.next_below(200),
                                1 + rng.next_below(8), rng.next());
        break;
      case 4:
        if (k.procs().live_tasks() < 6) (void)k.sys_fork();
        break;
      case 5: (void)k.sys_setuid(rng.chance(1, 2) ? 0 : 1000); break;
      case 6: {
        const u64 len = (1 + rng.next_below(4)) * kPageSize;
        const Result<VirtAddr> va = k.sys_mmap(len, /*writable=*/true);
        if (va.ok()) {
          (void)sys.machine().write64(va.value(), rng.next(), /*user=*/true);
          if (rng.chance(1, 2)) (void)k.sys_munmap(va.value(), len);
        }
        break;
      }
      default: k.run_user_compute(1000 + rng.next_below(20'000)); break;
    }
  }
}

/// Index of the first page whose bytes differ (zero pages compare as
/// zeros), or page_count() when all match.
u64 first_page_mismatch(const sim::PhysicalMemory& a,
                        const sim::PhysicalMemory& b) {
  static const u8 kZero[kPageSize] = {};
  for (u64 i = 0; i < a.page_count(); ++i) {
    const u8* pa = a.page_data(i) != nullptr ? a.page_data(i) : kZero;
    const u8* pb = b.page_data(i) != nullptr ? b.page_data(i) : kZero;
    if (pa != pb && std::memcmp(pa, pb, kPageSize) != 0) return i;
  }
  return a.page_count();
}

TEST(DeltaRestore, MatchesFullRestoreOnEveryFullMatrixConfig) {
  for (const FuzzConfigSpec& spec : fuzz::build_matrix(/*full=*/true)) {
    SCOPED_TRACE(spec.name);
    Twin delta(spec);
    Twin full(spec);
    std::vector<u8> monitor_blob;
    if (delta.monitor) {
      sim::SnapWriter w;
      delta.monitor->save_state(w);
      monitor_blob = w.take();
    }
    for (u64 seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("seed " + std::to_string(seed));
      // `delta` syncs to `base` by saving it; `full` reaches the same
      // state through a file round trip, so it never synced to `base`.
      const sim::Snapshot base = delta.sys->save_state();
      sim::Snapshot file;
      ASSERT_TRUE(sim::unpack_snapshot(sim::pack_snapshot(base), file).ok());
      full.restore(file, monitor_blob);
      EXPECT_FALSE(full.sys->last_restore_was_delta());
      delta.restore(base, monitor_blob);
      EXPECT_TRUE(delta.sys->last_restore_was_delta());

      run_case(*delta.sys, seed);
      run_case(*full.sys, seed);
      EXPECT_GT(delta.sys->machine().phys().dirty_count(), 0u);

      delta.restore(base, monitor_blob);
      EXPECT_TRUE(delta.sys->last_restore_was_delta());
      full.restore(base, monitor_blob);
      EXPECT_FALSE(full.sys->last_restore_was_delta());

      const u64 bad = first_page_mismatch(delta.sys->machine().phys(),
                                          full.sys->machine().phys());
      EXPECT_EQ(bad, delta.sys->machine().phys().page_count())
          << "page " << bad << " differs";
      const sim::Snapshot a = delta.sys->save_state();
      const sim::Snapshot b = full.sys->save_state();
      EXPECT_TRUE(a.state == b.state) << "saved state differs";
      EXPECT_TRUE(a.state == base.state) << "delta restore left a change";
    }
  }
}

// --- Planted changes ---------------------------------------------------------

SystemConfig config_for(Mode mode) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mode == Mode::kHypernel;
  return cfg;
}

/// Save, plant a change that `layer` must show, delta-restore, and check
/// both the layer and the whole saved state are back to the snapshot.
void expect_delta_undoes(System& sys,
                         const std::function<std::vector<u8>()>& layer,
                         const std::function<void()>& plant) {
  const sim::Snapshot base = sys.save_state();
  const std::vector<u8> before = layer();
  plant();
  ASSERT_FALSE(layer() == before) << "the plant changed nothing";
  ASSERT_TRUE(sys.restore_state(base).ok());
  EXPECT_TRUE(sys.last_restore_was_delta());
  EXPECT_TRUE(layer() == before);
  EXPECT_TRUE(sys.save_state().state == base.state);
}

template <typename Layer>
std::vector<u8> blob_of(const Layer& layer) {
  sim::SnapWriter w;
  layer.save_state(w);
  return w.take();
}

TEST(DeltaRestore, UndoesPlantedPageWrites) {
  auto sys = make_system(config_for(Mode::kHypernel));
  sim::PhysicalMemory& phys = sys->machine().phys();
  u64 populated = 0;
  while (phys.page_data(populated) == nullptr) ++populated;
  u64 zero = 0;
  while (phys.page_data(zero) != nullptr) ++zero;
  const PhysAddr copied = (populated << kPageShift) + 64;
  const PhysAddr materialised = zero << kPageShift;
  const auto pages = [&] {
    std::vector<u8> out(2 * kPageSize);
    phys.read_block(page_align_down(copied), out.data(), kPageSize);
    phys.read_block(materialised, out.data() + kPageSize, kPageSize);
    return out;
  };
  expect_delta_undoes(*sys, pages, [&] {
    phys.write64(copied, ~phys.read64(copied));
    phys.write64(materialised, 0x5EED);
  });
  EXPECT_EQ(phys.page_data(zero), nullptr);
  EXPECT_EQ(phys.dirty_count(), 0u);
}

TEST(DeltaRestore, UndoesPlantedZeroedPage) {
  auto sys = make_system(config_for(Mode::kHypernel));
  sim::PhysicalMemory& phys = sys->machine().phys();
  u64 populated = 0;
  while (phys.page_data(populated) == nullptr) ++populated;
  const PhysAddr pa = populated << kPageShift;
  const auto page = [&] {
    std::vector<u8> out(kPageSize);
    phys.read_block(pa, out.data(), kPageSize);
    return out;
  };
  expect_delta_undoes(*sys, page, [&] { phys.zero_range(pa, kPageSize); });
  EXPECT_NE(phys.page_data(populated), nullptr);
}

TEST(DeltaRestore, UndoesPlantedBuddyAllocation) {
  auto sys = make_system(config_for(Mode::kHypernel));
  kernel::BuddyAllocator& buddy = sys->kernel().buddy();
  expect_delta_undoes(
      *sys, [&] { return blob_of(buddy); },
      [&] { ASSERT_TRUE(buddy.alloc_pages(2).ok()); });
}

TEST(DeltaRestore, UndoesPlantedKvmStage2Population) {
  auto sys = make_system(config_for(Mode::kKvmGuest));
  kvm::KvmHypervisor& kvm = *sys->kvm();
  // A fresh 2 MiB buddy block lies in a group the boot never touched: the
  // guest read's stage-2 fault populates the group into the ever-mapped
  // bitmap.
  expect_delta_undoes(
      *sys, [&] { return blob_of(kvm); },
      [&] {
        const Result<PhysAddr> block =
            sys->kernel().buddy().alloc_pages(kSectionShift - kPageShift);
        ASSERT_TRUE(block.ok());
        ASSERT_TRUE(
            sys->machine().read64(kernel::phys_to_virt(block.value())).ok);
      });
}

TEST(DeltaRestore, UndoesPlantedEventRingPushes) {
  auto sys = make_system(config_for(Mode::kHypernel));
  mbm::EventRing& ring = sys->mbm()->ring();
  expect_delta_undoes(
      *sys, [&] { return blob_of(ring); },
      [&] {
        for (u64 i = 0; i < 3; ++i) {
          ASSERT_TRUE(ring.push({.paddr = 0x1000 * i, .value = i,
                                 .trace_seq = 100 + i, .at = 7 * i}));
        }
      });
}

TEST(DeltaRestore, UndoesPlantedTlbFill) {
  auto sys = make_system(config_for(Mode::kHypernel));
  sim::Tlb& tlb = sys->machine().tlb();
  expect_delta_undoes(
      *sys, [&] { return blob_of(tlb); },
      [&] {
        for (u64 i = 0; i < tlb.capacity() + 3; ++i) {
          sim::TlbEntry e;
          e.vpage = 0x7000'0000 + (i << kPageShift);
          e.asid = 9;
          e.ppage = i << kPageShift;
          tlb.insert(e);
        }
      });
  // The rebuilt index finds what the restored array holds, and only that.
  EXPECT_EQ(tlb.lookup(0x7000'0000, 9), nullptr);
}

// --- Which restores take the full path ---------------------------------------

TEST(DeltaRestore, ReferenceModeAlwaysRestoresInFull) {
  SystemConfig cfg = config_for(Mode::kHypernel);
  cfg.machine.host_fast_path = false;
  auto sys = make_system(cfg);
  const sim::Snapshot snap = sys->save_state();
  for (int i = 0; i < 2; ++i) {
    run_case(*sys, 7);
    ASSERT_TRUE(sys->restore_state(snap).ok());
    EXPECT_FALSE(sys->last_restore_was_delta());
    EXPECT_EQ(sys->machine().phys().dirty_count(), 0u);
  }
}

TEST(DeltaRestore, FileLoadedSnapshotFirstRestoresInFull) {
  auto sys = make_system(config_for(Mode::kHypernel));
  const sim::Snapshot saved = sys->save_state();
  sim::Snapshot file;
  ASSERT_TRUE(sim::unpack_snapshot(sim::pack_snapshot(saved), file).ok());
  EXPECT_NE(file.id, saved.id);
  run_case(*sys, 3);
  ASSERT_TRUE(sys->restore_state(file).ok());
  EXPECT_FALSE(sys->last_restore_was_delta());
  // Now synced to the loaded snapshot: the next restore of it is a delta.
  run_case(*sys, 4);
  ASSERT_TRUE(sys->restore_state(file).ok());
  EXPECT_TRUE(sys->last_restore_was_delta());
  EXPECT_TRUE(sys->save_state().state == saved.state);
}

TEST(DeltaRestore, OtherSnapshotOfTheSameSystemRestoresInFull) {
  auto sys = make_system(config_for(Mode::kHypernel));
  const sim::Snapshot first = sys->save_state();
  run_case(*sys, 5);
  const sim::Snapshot second = sys->save_state();
  ASSERT_TRUE(sys->restore_state(first).ok());
  EXPECT_FALSE(sys->last_restore_was_delta());
  ASSERT_TRUE(sys->restore_state(second).ok());
  EXPECT_FALSE(sys->last_restore_was_delta());
  // A copy keeps the id: its content is the same immutable snapshot.
  const sim::Snapshot copy = second;
  ASSERT_TRUE(sys->restore_state(copy).ok());
  EXPECT_TRUE(sys->last_restore_was_delta());
}

}  // namespace
}  // namespace hn::hypernel
