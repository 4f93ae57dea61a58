// Machine-snapshot tests (DESIGN.md §12).
//
// Three layers, mirroring the feature's own structure:
//
//   * the copy-on-write page store — write-after-fork isolation, the
//     refcount lifecycle, and a threaded fork campaign that gives TSan a
//     real concurrent workload over the shared refcounts;
//   * the v1 file format — golden header bytes, deterministic
//     serialization, and precise rejection of every corruption class,
//     modeled on trace_recorder_test;
//   * whole-system round trips — an empty (freshly booted) machine and a
//     post-rootkit-scenario system both restore into live twins that are
//     functionally indistinguishable from the original.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <thread>
#include <vector>

#include "hypernel/fingerprint.h"
#include "hypernel/system.h"
#include "kernel/objects.h"
#include "secapps/object_monitor.h"
#include "sim/phys_mem.h"
#include "sim/snapshot.h"

namespace hn::sim {
namespace {

// ---------------------------------------------------------------------------
// Copy-on-write page store
// ---------------------------------------------------------------------------

constexpr u64 kMemBytes = 16 * kPageSize;

TEST(CowPages, FreshMemoryAllocatesNoPages) {
  PhysicalMemory mem(kMemBytes);
  ASSERT_EQ(mem.page_count(), 16u);
  for (u64 i = 0; i < mem.page_count(); ++i) {
    EXPECT_EQ(mem.page_data(i), nullptr);
    EXPECT_EQ(mem.page_refs(i), 0u);
  }
  EXPECT_EQ(mem.read64(0), 0u);
  EXPECT_EQ(mem.read64(kMemBytes - 8), 0u);
}

TEST(CowPages, WriteAfterForkIsolatesParentAndChild) {
  PhysicalMemory parent(kMemBytes);
  parent.write64(kPageSize + 8, 0x1111);
  parent.write64(3 * kPageSize, 0x3333);

  const PhysicalMemory::PageSet snap = parent.capture();
  PhysicalMemory child(kMemBytes);
  ASSERT_TRUE(child.adopt(snap).ok());
  EXPECT_EQ(child.read64(kPageSize + 8), 0x1111u);
  EXPECT_EQ(child.read64(3 * kPageSize), 0x3333u);

  // Parent writes stay invisible to the child and to the snapshot...
  parent.write64(kPageSize + 8, 0xAAAA);
  EXPECT_EQ(child.read64(kPageSize + 8), 0x1111u);
  u64 in_snap = 0;
  std::memcpy(&in_snap, snap.page_data(1) + 8, 8);
  EXPECT_EQ(in_snap, 0x1111u);

  // ...and child writes stay invisible to the parent, including writes
  // that materialise a page neither side had populated.
  child.write64(3 * kPageSize, 0xBBBB);
  child.write64(5 * kPageSize, 0x5555);
  EXPECT_EQ(parent.read64(3 * kPageSize), 0x3333u);
  EXPECT_EQ(parent.read64(5 * kPageSize), 0u);
  EXPECT_EQ(snap.page_data(5), nullptr);
}

TEST(CowPages, RefcountLifecycle) {
  PhysicalMemory mem(kMemBytes);
  mem.write64(kPageSize, 0x42);
  EXPECT_EQ(mem.page_refs(1), 1u);  // privately owned

  {
    const PhysicalMemory::PageSet snap = mem.capture();
    EXPECT_EQ(mem.page_refs(1), 2u);  // shared with the snapshot

    // Copying a PageSet bumps, destroying the copy drops.
    {
      const PhysicalMemory::PageSet copy(snap);
      EXPECT_EQ(mem.page_refs(1), 3u);
    }
    EXPECT_EQ(mem.page_refs(1), 2u);

    // A write to a shared page copies first: the memory ends up sole
    // owner of a fresh page while the snapshot keeps the old bytes.
    mem.write64(kPageSize, 0x43);
    EXPECT_EQ(mem.page_refs(1), 1u);
    u64 in_snap = 0;
    std::memcpy(&in_snap, snap.page_data(1), 8);
    EXPECT_EQ(in_snap, 0x42u);

    // Adopting re-shares the snapshot's page and frees the private copy.
    ASSERT_TRUE(mem.adopt(snap).ok());
    EXPECT_EQ(mem.page_refs(1), 2u);
    EXPECT_EQ(mem.read64(kPageSize), 0x42u);

    // A page only the snapshot holds survives until the snapshot dies.
  }
  EXPECT_EQ(mem.page_refs(1), 1u);  // snapshot destroyed: sole owner again

  // Re-observing exclusivity: the next write mutates in place.
  mem.write64(kPageSize, 0x44);
  EXPECT_EQ(mem.page_refs(1), 1u);
  EXPECT_EQ(mem.read64(kPageSize), 0x44u);
}

TEST(CowPages, ZeroingAWholePageReclaimsSharing) {
  PhysicalMemory mem(kMemBytes);
  mem.write64(2 * kPageSize, 0x99);
  const PhysicalMemory::PageSet snap = mem.capture();
  mem.zero_range(2 * kPageSize, kPageSize);
  EXPECT_EQ(mem.page_refs(2), 0u);  // back to the zero sentinel
  EXPECT_EQ(mem.read64(2 * kPageSize), 0u);
  u64 in_snap = 0;
  std::memcpy(&in_snap, snap.page_data(2), 8);
  EXPECT_EQ(in_snap, 0x99u);  // snapshot unaffected
}

TEST(CowPages, AdoptRejectsPageCountMismatch) {
  PhysicalMemory small(kMemBytes);
  PhysicalMemory big(2 * kMemBytes);
  const PhysicalMemory::PageSet snap = small.capture();
  const Status s = big.adopt(snap);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("page count mismatch"), std::string::npos);
}

TEST(CowPages, ConcurrentForksShareAndDivergeSafely) {
  // The snapshot-boot fuzz path forks many machines from one captured
  // PageSet.  Model that directly: one shared snapshot, several threads
  // each adopting (concurrent refcount bumps on the same pages), writing
  // their own divergent state (concurrent copy-on-write of shared pages)
  // and re-adopting (concurrent drops).  TSan owns the verdict; the
  // assertions pin isolation.
  PhysicalMemory base(kMemBytes);
  for (u64 p = 0; p < base.page_count(); ++p) {
    base.write64(p * kPageSize, 0xBA5E0000 + p);
  }
  const PhysicalMemory::PageSet snap = base.capture();

  constexpr unsigned kThreads = 4;
  constexpr unsigned kRounds = 50;
  std::vector<std::thread> workers;
  // One byte per thread: std::vector<bool> packs the flags into one word,
  // so the workers' final stores would race.
  std::vector<u8> ok(kThreads, 0);
  for (unsigned t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      PhysicalMemory mine(kMemBytes);
      bool good = true;
      for (unsigned round = 0; round < kRounds; ++round) {
        good &= mine.adopt(snap).ok();
        for (u64 p = 0; p < mine.page_count(); ++p) {
          good &= mine.read64(p * kPageSize) == 0xBA5E0000 + p;
          mine.write64(p * kPageSize, (u64{t} << 32) | round);
          good &= mine.read64(p * kPageSize) == ((u64{t} << 32) | round);
        }
      }
      ok[t] = good ? 1 : 0;
    });
  }
  for (std::thread& w : workers) w.join();
  for (unsigned t = 0; t < kThreads; ++t) {
    EXPECT_TRUE(ok[t]) << "thread " << t << " observed foreign writes";
  }
  // The shared snapshot never changed underneath anyone.
  for (u64 p = 0; p < base.page_count(); ++p) {
    u64 v = 0;
    std::memcpy(&v, snap.page_data(p), 8);
    EXPECT_EQ(v, 0xBA5E0000 + p);
    EXPECT_EQ(base.read64(p * kPageSize), 0xBA5E0000 + p);
  }
}

// ---------------------------------------------------------------------------
// File format (modeled on trace_recorder_test)
// ---------------------------------------------------------------------------

// Mirrors the packer's checksum so corruption tests can tamper with a
// field and re-seal the file: the parser must reject the *field*, not
// just notice the broken trailer.
u64 snapshot_checksum(const std::vector<u8>& blob, u64 payload_len) {
  u64 h = 1469598103934665603ull;
  for (u64 i = 0; i < payload_len; ++i) {
    h = (h ^ blob[i]) * 1099511628211ull;
  }
  return h;
}

void reseal(std::vector<u8>& blob) {
  const u64 sum = snapshot_checksum(blob, blob.size() - 8);
  for (int i = 0; i < 8; ++i) {
    blob[blob.size() - 8 + i] = static_cast<u8>(sum >> (8 * i));
  }
}

void poke_u64(std::vector<u8>& blob, size_t off, u64 v) {
  for (int i = 0; i < 8; ++i) blob[off + i] = static_cast<u8>(v >> (8 * i));
}

struct SampleSnapshot {
  Snapshot snap;
  std::vector<u8> blob;
  // Fixed header layout: magic(8) version(4) reserved(4) digest(8) seq(8)
  // state_size(8) state(...), then the page table.
  size_t page_size_off;

  SampleSnapshot() {
    snap.config_digest = 0x1122334455667788ull;
    snap.save_seq = 7;
    snap.state = {1, 2, 3, 4, 5};
    snap.pages.reset(4);
    u8 page[kPageSize];
    for (u64 i = 0; i < kPageSize; ++i) page[i] = static_cast<u8>(i * 31);
    snap.pages.set_page(2, page);
    blob = pack_snapshot(snap);
    page_size_off = 8 + 4 + 4 + 8 + 8 + 8 + snap.state.size();
  }
};

TEST(SnapshotFormat, GoldenHeaderBytes) {
  const SampleSnapshot s;
  ASSERT_GE(s.blob.size(), 16u);
  const u8 kGolden[16] = {
      'H', 'N', 'S', 'N', 'A', 'P', 0, 0,  // magic
      2,   0,   0,   0,                    // version 2, little-endian
      0,   0,   0,   0,                    // reserved
  };
  EXPECT_EQ(std::memcmp(s.blob.data(), kGolden, sizeof kGolden), 0);
  // Config digest immediately follows the fixed header.
  u64 digest = 0;
  std::memcpy(&digest, s.blob.data() + 16, 8);
  EXPECT_EQ(digest, 0x1122334455667788ull);
}

TEST(SnapshotFormat, SerializationIsDeterministic) {
  const SampleSnapshot a;
  const SampleSnapshot b;
  EXPECT_EQ(a.blob, b.blob);
}

TEST(SnapshotFormat, PackUnpackRoundTrip) {
  const SampleSnapshot s;
  Snapshot back;
  ASSERT_TRUE(unpack_snapshot(s.blob, back).ok());
  EXPECT_EQ(back.config_digest, s.snap.config_digest);
  EXPECT_EQ(back.save_seq, s.snap.save_seq);
  EXPECT_EQ(back.state, s.snap.state);
  ASSERT_EQ(back.pages.page_count(), 4u);
  EXPECT_EQ(back.pages.populated_count(), 1u);
  EXPECT_EQ(back.pages.page_data(0), nullptr);  // zero pages stay implicit
  ASSERT_NE(back.pages.page_data(2), nullptr);
  EXPECT_EQ(
      std::memcmp(back.pages.page_data(2), s.snap.pages.page_data(2), kPageSize),
      0);
}

TEST(SnapshotFormat, FileRoundTrip) {
  const SampleSnapshot s;
  const std::string path = ::testing::TempDir() + "hn_snapshot_test.hnsnap";
  ASSERT_TRUE(write_snapshot_file(s.blob, path));
  std::vector<u8> read_back;
  ASSERT_TRUE(read_snapshot_file(path, read_back));
  EXPECT_EQ(read_back, s.blob);
  EXPECT_FALSE(read_snapshot_file(path + ".does-not-exist", read_back));
}

TEST(SnapshotFormat, RejectsBadMagic) {
  SampleSnapshot s;
  s.blob[0] ^= 0xFF;
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: bad magic (not a HNSNAP file)");
}

TEST(SnapshotFormat, RejectsTruncatedHeader) {
  const SampleSnapshot s;
  const std::vector<u8> stub(s.blob.begin(), s.blob.begin() + 12);
  Snapshot out;
  const Status st = unpack_snapshot(stub, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: truncated header");
}

TEST(SnapshotFormat, RejectsChecksumMismatch) {
  // A flipped payload byte and a dropped trailing byte are both checksum
  // failures: the integrity check runs before any field is trusted.
  SampleSnapshot s;
  s.blob[20] ^= 0x01;
  Snapshot out;
  Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: checksum mismatch (corrupt file)");

  const SampleSnapshot fresh;
  std::vector<u8> shorter(fresh.blob.begin(), fresh.blob.end() - 1);
  st = unpack_snapshot(shorter, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: checksum mismatch (corrupt file)");
}

TEST(SnapshotFormat, RejectsUnsupportedVersion) {
  SampleSnapshot s;
  s.blob[8] = 99;
  reseal(s.blob);
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: unsupported format version 99");
}

TEST(SnapshotFormat, RejectsForeignPageSize) {
  SampleSnapshot s;
  poke_u64(s.blob, s.page_size_off, 2 * kPageSize);
  reseal(s.blob);
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(),
            "snapshot: page size " + std::to_string(2 * kPageSize) +
                " does not match the simulated granule");
}

TEST(SnapshotFormat, RejectsOverlongPageTable) {
  SampleSnapshot s;
  poke_u64(s.blob, s.page_size_off + 16, 1000);  // populated-page count
  reseal(s.blob);
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: truncated page table");
}

TEST(SnapshotFormat, RejectsOutOfRangePageIndex) {
  SampleSnapshot s;
  poke_u64(s.blob, s.page_size_off + 24, 100);  // first entry's index (>= 4)
  reseal(s.blob);
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(),
            "snapshot: page table index 100 out of order or out of range");
}

TEST(SnapshotFormat, RejectsTrailingBytes) {
  SampleSnapshot s;
  s.blob.insert(s.blob.end() - 8, u8{0});
  reseal(s.blob);
  Snapshot out;
  const Status st = unpack_snapshot(s.blob, out);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.message(), "snapshot: trailing bytes after page table");
}

// ---------------------------------------------------------------------------
// Whole-system round trips
// ---------------------------------------------------------------------------

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_system(Mode mode, bool mbm) {
  SystemConfig cfg;
  cfg.mode = mode;
  cfg.enable_mbm = mbm;
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

TEST(SystemSnapshot, EmptyMachineRoundTrip) {
  // A freshly booted system, straight through the file format and into a
  // live twin: the twin must be byte-for-byte the same architectural
  // state (its own re-save proves it) and functionally indistinguishable.
  auto original = make_system(Mode::kNative, /*mbm=*/false);
  Snapshot snap = original->save_state();
  EXPECT_GT(snap.pages.populated_count(), 0u);

  Snapshot back;
  ASSERT_TRUE(unpack_snapshot(pack_snapshot(snap), back).ok());

  auto twin = make_system(Mode::kNative, /*mbm=*/false);
  ASSERT_TRUE(twin->restore_state(back).ok());

  Snapshot resaved = twin->save_state();
  EXPECT_EQ(resaved.config_digest, snap.config_digest);
  EXPECT_EQ(resaved.state, snap.state);
  EXPECT_TRUE(hypernel::take_fingerprint(*original)
                  .functionally_equal(hypernel::take_fingerprint(*twin)));
}

TEST(SystemSnapshot, RestoreRejectsConfigMismatch) {
  auto native = make_system(Mode::kNative, /*mbm=*/false);
  auto hyper = make_system(Mode::kHypernel, /*mbm=*/true);
  const Snapshot snap = native->save_state();
  const Status st = hyper->restore_state(snap);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("configuration digest mismatch"),
            std::string::npos);
  EXPECT_FALSE(hyper->restore_state(Snapshot{}).ok());  // empty snapshot
}

TEST(SystemSnapshot, PostRootkitScenarioRoundTrip) {
  // Drive a full monitored system through a rootkit scenario — process
  // churn, filesystem writes, then a cred privilege-escalation write that
  // raises an alert — and round-trip the result.  The restored twin must
  // agree on everything, and must keep agreeing when both systems run the
  // same follow-up workload (including catching a second attack).
  auto original = make_system(Mode::kHypernel, /*mbm=*/true);
  secapps::ObjectIntegrityMonitor mon_a(
      *original, secapps::Granularity::kSensitiveFields);
  ASSERT_TRUE(mon_a.install().ok());

  kernel::Kernel& k = original->kernel();
  ASSERT_TRUE(k.sys_mkdir("/etc").ok());
  ASSERT_TRUE(k.sys_creat("/etc/passwd").ok());
  Result<u32> pid = k.sys_fork();
  ASSERT_TRUE(pid.ok());
  k.procs().switch_to(*k.procs().find(pid.value()));
  ASSERT_TRUE(k.sys_execve().ok());
  // Drop to a non-root identity so the direct root write below is an
  // escalation, not a no-op rewrite of an already-root cred.
  ASSERT_TRUE(k.sys_setuid(1000).ok());
  const VirtAddr cred = k.procs().current().cred;
  ASSERT_TRUE(original->machine()
                  .write64(cred + kernel::CredLayout::kEuid * kWordSize, 0)
                  .ok);
  ASSERT_FALSE(mon_a.alerts().empty());
  const size_t alerts_before = mon_a.alerts().size();

  Snapshot snap = original->save_state();
  SnapWriter mon_state;
  mon_a.save_state(mon_state);
  Snapshot back;
  ASSERT_TRUE(unpack_snapshot(pack_snapshot(snap), back).ok());

  auto twin = make_system(Mode::kHypernel, /*mbm=*/true);
  secapps::ObjectIntegrityMonitor mon_b(
      *twin, secapps::Granularity::kSensitiveFields);
  ASSERT_TRUE(mon_b.install().ok());
  ASSERT_TRUE(twin->restore_state(back).ok());
  const std::vector<u8> mon_blob = mon_state.take();
  SnapReader mon_reader(mon_blob);
  mon_b.restore_state(mon_reader);
  ASSERT_TRUE(mon_reader.status().ok()) << mon_reader.status().message();

  EXPECT_EQ(mon_b.alerts().size(), alerts_before);
  EXPECT_EQ(mon_b.stats().events_total, mon_a.stats().events_total);

  // Identical follow-up workload on both: stays in lockstep.
  for (System* sys : {original.get(), twin.get()}) {
    kernel::Kernel& kk = sys->kernel();
    ASSERT_TRUE(kk.sys_creat("/etc/shadow").ok());
    ASSERT_TRUE(kk.sys_rename("/etc/shadow", "/etc/shadow.bak").ok());
    const VirtAddr c = kk.procs().current().cred;
    ASSERT_TRUE(
        sys->machine()
            .write64(c + kernel::CredLayout::kUid * kWordSize, 0)
            .ok);
  }
  EXPECT_EQ(mon_a.alerts().size(), mon_b.alerts().size());
  EXPECT_GT(mon_a.alerts().size(), alerts_before);

  const auto fp_a = hypernel::take_fingerprint(*original);
  const auto fp_b = hypernel::take_fingerprint(*twin);
  EXPECT_TRUE(fp_a.functionally_equal(fp_b)) << fp_a.diff(fp_b);
  EXPECT_EQ(fp_a.cycles, fp_b.cycles);
  EXPECT_EQ(fp_a.alerts, fp_b.alerts);
  EXPECT_EQ(fp_a.monitor_events, fp_b.monitor_events);
}

TEST(SystemSnapshot, ForkedTwinsDivergeIndependently) {
  // One snapshot, two restored twins: each runs a different workload
  // without contaminating the other or the snapshot donor.
  auto donor = make_system(Mode::kNative, /*mbm=*/false);
  ASSERT_TRUE(donor->kernel().sys_creat("/seed").ok());
  const Snapshot snap = donor->save_state();

  auto twin_a = make_system(Mode::kNative, /*mbm=*/false);
  auto twin_b = make_system(Mode::kNative, /*mbm=*/false);
  ASSERT_TRUE(twin_a->restore_state(snap).ok());
  ASSERT_TRUE(twin_b->restore_state(snap).ok());

  ASSERT_TRUE(twin_a->kernel().sys_creat("/only-in-a").ok());
  ASSERT_TRUE(twin_b->kernel().sys_mkdir("/only-in-b").ok());

  EXPECT_TRUE(twin_a->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(twin_a->kernel().sys_stat("/only-in-b").ok());
  EXPECT_TRUE(twin_b->kernel().sys_stat("/only-in-b").ok());
  EXPECT_FALSE(twin_b->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(donor->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(donor->kernel().sys_stat("/only-in-b").ok());

  // And a twin restored later from the same snapshot replays twin A's
  // future exactly: forks are deterministic, not merely isolated.
  auto twin_c = make_system(Mode::kNative, /*mbm=*/false);
  ASSERT_TRUE(twin_c->restore_state(snap).ok());
  ASSERT_TRUE(twin_c->kernel().sys_creat("/only-in-a").ok());
  EXPECT_TRUE(twin_c->kernel().sys_stat("/only-in-a").ok());
  EXPECT_FALSE(twin_c->kernel().sys_stat("/only-in-b").ok());
  const auto fp_a = hypernel::take_fingerprint(*twin_a);
  const auto fp_c = hypernel::take_fingerprint(*twin_c);
  EXPECT_TRUE(fp_a.functionally_equal(fp_c)) << fp_a.diff(fp_c);
  EXPECT_EQ(fp_a.cycles, fp_c.cycles);
}

}  // namespace
}  // namespace hn::sim
