// Audit-memo differential tests: on the host fast path, Hypersec's audit
// serves unchanged tables from a per-table scan memo that survives
// inventory changes and snapshot restores (DESIGN.md §14).  Every step
// below compares the memoized audit_report() with the reference-mode
// rescan of the very same state; the findings must match exactly, in
// order.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "hypernel/system.h"
#include "hypersec/hypersec.h"
#include "kernel/layout.h"
#include "sim/pagetable.h"

namespace hn::hypersec {
namespace {

using hypernel::Mode;
using hypernel::System;
using hypernel::SystemConfig;

std::unique_ptr<System> make_system() {
  SystemConfig cfg;
  cfg.mode = Mode::kHypernel;
  cfg.enable_mbm = false;
  cfg.metrics = true;  // the audit work counters record only when on
  auto r = System::create(cfg);
  EXPECT_TRUE(r.ok()) << r.status().message();
  return std::move(r).value();
}

std::vector<std::string> render(const std::vector<AuditFinding>& findings) {
  std::vector<std::string> out;
  for (const AuditFinding& f : findings) {
    out.push_back(std::string(audit_code_name(f.code)) + " " + f.detail);
  }
  return out;
}

/// Memoized audit, then the reference rescan of the same state.  Returns
/// the (shared) findings so a step can also assert what it planted.
std::vector<std::string> expect_memo_matches_rescan(System& sys,
                                                    const char* step) {
  const std::vector<std::string> fast = render(sys.hypersec()->audit_report());
  sys.machine().set_host_fast_path(false);
  const std::vector<std::string> ref = render(sys.hypersec()->audit_report());
  sys.machine().set_host_fast_path(true);
  EXPECT_EQ(fast, ref) << "after: " << step;
  return ref;
}

size_t count_code(const std::vector<std::string>& findings, AuditCode code) {
  size_t n = 0;
  for (const std::string& f : findings) {
    if (f.starts_with(audit_code_name(code))) ++n;
  }
  return n;
}

/// Level-3 table holding the leaf of user `va` in the tree at `root`.
PhysAddr user_leaf_table(System& sys, PhysAddr root, VirtAddr va) {
  PhysAddr table = root;
  for (unsigned l = 0; l < 3; ++l) {
    const u64 desc =
        sys.machine().phys().read64(table + sim::va_index(va, l) * 8);
    EXPECT_TRUE(sim::desc_valid(desc) && sim::desc_is_table(desc, l));
    table = sim::desc_out_addr(desc);
  }
  return table;
}

/// First invalid slot of `table` at or after `from`.
u64 free_slot(System& sys, PhysAddr table, u64 from) {
  for (u64 idx = from; idx < kPtEntries; ++idx) {
    if (!sim::desc_valid(sys.machine().phys().read64(table + idx * 8))) {
      return idx;
    }
  }
  ADD_FAILURE() << "no free slot in table";
  return 0;
}

TEST(AuditMemo, MatchesRescanAcrossInventoryChangesAndRestores) {
  auto sys = make_system();
  kernel::Kernel& k = sys->kernel();
  PtVerifier& verifier = sys->hypersec()->verifier();
  sim::PhysicalMemory& phys = sys->machine().phys();
  ASSERT_TRUE(expect_memo_matches_rescan(*sys, "boot").empty());

  // A touched, writable user page: its frame is mapped writable by the
  // user leaf table and by the kernel linear map.
  Result<VirtAddr> va = k.sys_mmap(4 * kPageSize, /*writable=*/true);
  ASSERT_TRUE(va.ok());
  ASSERT_TRUE(k.procs().touch_page(va.value(), true).ok());
  const PhysAddr root = k.procs().current().ttbr0;
  const PhysAddr table = user_leaf_table(*sys, root, va.value());
  const PhysAddr frame = sim::desc_out_addr(
      phys.read64(table + sim::va_index(va.value(), 3) * 8));
  ASSERT_FALSE(verifier.is_pt_page(frame));

  // Plant one finding of each leaf kind behind the verifier's back.
  const sim::PageAttrs wx{.write = true, .exec = true, .user = true};
  const sim::PageAttrs rw{.write = true, .user = true};
  const sim::PageAttrs ro{.user = true};
  const PhysAddr secure = sys->machine().secure_base();
  const u64 wx_slot = free_slot(*sys, table, 0);
  phys.write64(table + wx_slot * 8, sim::make_page_desc(frame, wx));
  const u64 secure_slot = free_slot(*sys, table, wx_slot + 1);
  phys.write64(table + secure_slot * 8, sim::make_page_desc(secure, ro));
  const u64 alias_slot = free_slot(*sys, table, secure_slot + 1);
  phys.write64(table + alias_slot * 8, sim::make_page_desc(root, rw));
  std::vector<std::string> f = expect_memo_matches_rescan(*sys, "plant");
  EXPECT_EQ(count_code(f, AuditCode::kWxViolation), 1u);
  EXPECT_EQ(count_code(f, AuditCode::kSecureMapped), 1u);
  EXPECT_EQ(count_code(f, AuditCode::kPtWritableAlias), 1u);
  // A second audit is served from the now-full memo.
  f = expect_memo_matches_rescan(*sys, "memo fill");

  // Register the frame as a table page: the memoized kernel linear-map
  // table (no alias finding of its own) already maps it writable.  A memo
  // that ignored the inventory generation would miss both new aliases.
  verifier.add_pt_page(frame, 3);
  f = expect_memo_matches_rescan(*sys, "add_pt_page of a mapped frame");
  // va's leaf, the W^X leaf, the kernel linear map, the planted alias.
  EXPECT_EQ(count_code(f, AuditCode::kPtWritableAlias), 4u);

  verifier.remove_pt_page(frame);
  f = expect_memo_matches_rescan(*sys, "remove_pt_page");
  EXPECT_EQ(count_code(f, AuditCode::kPtWritableAlias), 1u);

  // Snapshot, then mutate the user table and audit so the memo holds
  // the mutated scan; the restore must bring back the saved findings.
  const sim::Snapshot planted = sys->save_state();
  phys.write64(table + wx_slot * 8, 0);
  f = expect_memo_matches_rescan(*sys, "mutate after capture");
  EXPECT_EQ(count_code(f, AuditCode::kWxViolation), 0u);
  ASSERT_TRUE(sys->restore_state(planted).ok());
  f = expect_memo_matches_rescan(*sys, "restore over a mutated table");
  EXPECT_EQ(count_code(f, AuditCode::kWxViolation), 1u);

  // Save with the frame registered, then shrink and grow the inventory:
  // drop the frame, touch a distant page (its new tables join the walk),
  // and allocate and free a spare root.
  verifier.add_pt_page(frame, 3);
  const sim::Snapshot registered = sys->save_state();
  verifier.remove_pt_page(frame);
  const u64 tables_before = verifier.pt_page_count();
  constexpr u64 kFarBytes = 8ull << 20;
  Result<VirtAddr> far = k.sys_mmap(kFarBytes, /*writable=*/true);
  ASSERT_TRUE(far.ok());
  const VirtAddr far_page = far.value() + kFarBytes - kPageSize;
  ASSERT_TRUE(k.procs().touch_page(far_page, true).ok());
  Result<PhysAddr> spare = k.kpt().alloc_user_root();
  ASSERT_TRUE(spare.ok());
  EXPECT_GT(verifier.pt_page_count(), tables_before + 1);
  expect_memo_matches_rescan(*sys, "new tables after capture");
  k.kpt().free_user_root(spare.value());
  expect_memo_matches_rescan(*sys, "free after capture");

  // The restored inventory regains the frame (the aliases come back) and
  // loses the new tables.
  ASSERT_TRUE(sys->restore_state(registered).ok());
  f = expect_memo_matches_rescan(*sys, "restore into a changed inventory");
  EXPECT_EQ(count_code(f, AuditCode::kPtWritableAlias), 4u);
  ASSERT_TRUE(sys->restore_state(planted).ok());
  f = expect_memo_matches_rescan(*sys, "restore back to the planted state");
  EXPECT_EQ(count_code(f, AuditCode::kPtWritableAlias), 1u);
}

#if HN_OBS  // the counters record nothing with observability compiled out
u64 counter(System& sys, const char* name) {
  return sys.metrics_snapshot().value(name);
}

TEST(AuditMemo, WorkCountersShowWarmMemoAcrossRestore) {
  auto sys = make_system();
  Hypersec& hs = *sys->hypersec();
  const u64 scans0 = counter(*sys, "hypersec.audit.scans");
  (void)hs.audit_report();
  const u64 tables = counter(*sys, "hypersec.audit.scans") - scans0;
  ASSERT_GT(tables, 0u);

  // Unchanged state: every table is served from the memo.
  const u64 hits0 = counter(*sys, "hypersec.audit.memo_hits");
  (void)hs.audit_report();
  EXPECT_EQ(counter(*sys, "hypersec.audit.scans") - scans0, tables);
  EXPECT_EQ(counter(*sys, "hypersec.audit.memo_hits") - hits0, tables);

  // A restore to the same inventory keeps every table warm.  (Restore
  // zeroes metric values, so count from after it.)
  const sim::Snapshot snap = sys->save_state();
  ASSERT_TRUE(sys->restore_state(snap).ok());
  (void)hs.audit_report();
  EXPECT_EQ(counter(*sys, "hypersec.audit.scans"), 0u);
  EXPECT_EQ(counter(*sys, "hypersec.audit.memo_hits"), tables);

  // An inventory change that aliases nothing keeps the memo too.  The
  // new root is reached by no walk; only the kernel linear-map table that
  // now maps it read-only changed, so only that table is rescanned.
  Result<PhysAddr> spare = sys->kernel().kpt().alloc_user_root();
  ASSERT_TRUE(spare.ok());
  const u64 scans1 = counter(*sys, "hypersec.audit.scans");
  (void)hs.audit_report();
  EXPECT_EQ(counter(*sys, "hypersec.audit.scans") - scans1, 1u);

  // Reference mode rescans every table and never hits the memo.
  sys->machine().set_host_fast_path(false);
  const u64 scans2 = counter(*sys, "hypersec.audit.scans");
  const u64 hits2 = counter(*sys, "hypersec.audit.memo_hits");
  (void)hs.audit_report();
  EXPECT_EQ(counter(*sys, "hypersec.audit.scans") - scans2, tables);
  EXPECT_EQ(counter(*sys, "hypersec.audit.memo_hits"), hits2);
}
#endif  // HN_OBS

}  // namespace
}  // namespace hn::hypersec
