// Hypersec's page-table write verifier (§5.2.1).
//
// Maintains an inventory of translation-table pages (with their walk
// level) and enforces, on every requested descriptor write:
//   * writes only target registered table pages,
//   * table descriptors only point at registered next-level table pages,
//   * the secure space is never mapped (neither as data nor as a table),
//   * W^X over kernel mappings,
//   * page-table pages and kernel text/rodata are never mapped writable,
//   * unmap (zero descriptor) is always allowed.
#pragma once

#include <map>
#include <set>

#include "common/types.h"
#include "sim/machine.h"
#include "sim/pagetable.h"

namespace hn::hypersec {

enum class Verdict : u8 { kAllow, kDeny };

struct VerifierStats {
  u64 checked = 0;
  u64 denied_not_pt_page = 0;    // target page is not a registered table
  u64 denied_kernel_tree = 0;    // runtime edit of the immutable kernel tree
  u64 denied_secure_map = 0;     // descriptor output in the secure space
  u64 denied_bad_table = 0;      // table desc to a non-table / wrong level
  u64 denied_bad_encoding = 0;   // block/page encoding at an illegal level
  u64 denied_wx = 0;             // writable+executable mapping
  u64 denied_pt_writable = 0;    // writable alias of a table page
  u64 denied_text_writable = 0;  // writable alias of text/rodata

  [[nodiscard]] u64 denied_total() const {
    return denied_not_pt_page + denied_kernel_tree + denied_secure_map +
           denied_bad_table + denied_bad_encoding + denied_wx +
           denied_pt_writable + denied_text_writable;
  }
};

class PtVerifier {
 public:
  PtVerifier(sim::Machine& machine, PhysAddr text_base, u64 text_size,
             PhysAddr rodata_base, u64 rodata_size)
      : machine_(machine), text_base_(text_base), text_size_(text_size),
        rodata_base_(rodata_base), rodata_size_(rodata_size) {}

  // --- Inventory -------------------------------------------------------------
  //
  // Registered table pages are also watched in physical memory so the
  // audit's per-table scan cache (hypersec.cpp) can key entries on the
  // page's mutation epoch.  `generation_` covers the inventory itself:
  // any add/remove makes the audit revalidate its cached scans against
  // the new inventory (any_pt_page_in).
  void add_pt_page(PhysAddr pa, unsigned level) {
    const PhysAddr page = page_align_down(pa);
    pt_pages_[page] = level;
    machine_.phys().watch_page(page >> kPageShift);
    ++generation_;
  }
  void remove_pt_page(PhysAddr pa) {
    const PhysAddr page = page_align_down(pa);
    pt_pages_.erase(page);
    machine_.phys().unwatch_page(page >> kPageShift);
    ++generation_;
  }
  [[nodiscard]] bool is_pt_page(PhysAddr pa) const {
    return pt_pages_.contains(page_align_down(pa));
  }
  /// True when a registered table page lies in [begin, end): one ordered
  /// range query instead of a per-page probe.
  [[nodiscard]] bool any_pt_page_in(PhysAddr begin, PhysAddr end) const {
    auto it = pt_pages_.lower_bound(begin);
    return it != pt_pages_.end() && it->first < end;
  }
  [[nodiscard]] int pt_level(PhysAddr pa) const {
    auto it = pt_pages_.find(page_align_down(pa));
    return it == pt_pages_.end() ? -1 : static_cast<int>(it->second);
  }
  /// The kernel-half (TTBR1) tree is immutable at runtime: the linear map
  /// never changes after boot, so any kernel-requested edit of its tables
  /// is an attack (e.g. relocating a monitored object's mapping — the
  /// ATRA pattern [15]).  Only Hypersec itself edits these at EL2.
  void mark_kernel_tree(PhysAddr pa) {
    kernel_tree_.insert(page_align_down(pa));
  }
  [[nodiscard]] bool is_kernel_tree(PhysAddr pa) const {
    return kernel_tree_.contains(page_align_down(pa));
  }

  /// Sealed module text pages: executable, therefore never writable again
  /// through any alias while sealed.
  void add_module_text(PhysAddr pa) { module_text_.insert(page_align_down(pa)); }
  void remove_module_text(PhysAddr pa) {
    module_text_.erase(page_align_down(pa));
  }
  [[nodiscard]] bool is_module_text(PhysAddr pa) const {
    return module_text_.contains(page_align_down(pa));
  }

  void add_user_root(PhysAddr pa) { user_roots_.insert(pa); }
  void remove_user_root(PhysAddr pa) { user_roots_.erase(pa); }
  [[nodiscard]] bool is_user_root(PhysAddr pa) const {
    return user_roots_.contains(pa);
  }
  void set_kernel_root(PhysAddr pa) { kernel_root_ = pa; }
  [[nodiscard]] PhysAddr kernel_root() const { return kernel_root_; }

  /// Check a requested write of `desc` into the table page at `table_pa`.
  Verdict check_pt_write(PhysAddr table_pa, unsigned index, u64 desc);

  [[nodiscard]] const VerifierStats& stats() const { return stats_; }
  [[nodiscard]] u64 pt_page_count() const { return pt_pages_.size(); }
  /// Full PTP inventory (page PA -> level): the protected set the
  /// invariant checker mirrors into MBM-monitored regions.
  [[nodiscard]] const std::map<PhysAddr, unsigned>& pt_pages() const {
    return pt_pages_;
  }
  /// Monotone inventory generation: bumped on every add/remove_pt_page and
  /// on snapshot restore.  Cache key component for audit memoization.
  [[nodiscard]] u64 generation() const { return generation_; }

  // --- Snapshot support (sim/snapshot.h) ------------------------------------

  void save_state(sim::SnapWriter& w) const {
    w.put_u64(kernel_root_);
    w.put_u64(pt_pages_.size());
    for (const auto& [pa, level] : pt_pages_) {
      w.put_u64(pa);
      w.put_u32(level);
    }
    w.put_u64(kernel_tree_.size());
    for (const PhysAddr pa : kernel_tree_) w.put_u64(pa);
    w.put_u64(module_text_.size());
    for (const PhysAddr pa : module_text_) w.put_u64(pa);
    w.put_u64(user_roots_.size());
    for (const PhysAddr pa : user_roots_) w.put_u64(pa);
    w.put_u64(stats_.checked);
    w.put_u64(stats_.denied_not_pt_page);
    w.put_u64(stats_.denied_kernel_tree);
    w.put_u64(stats_.denied_secure_map);
    w.put_u64(stats_.denied_bad_table);
    w.put_u64(stats_.denied_bad_encoding);
    w.put_u64(stats_.denied_wx);
    w.put_u64(stats_.denied_pt_writable);
    w.put_u64(stats_.denied_text_writable);
  }

  // The inventory sets are restored in place (merge of the ascending saved
  // keys into the live tree): entries present before and after keep their
  // nodes, so a restore allocates only for what changed since the save.
  void restore_state(sim::SnapReader& r) {
    r.section("pt verifier");
    kernel_root_ = r.get_u64();
    // Pages that leave the inventory are unwatched, pages that enter are
    // watched (with a fresh epoch), and pages in both keep their watch and
    // epoch.  A kept epoch is still exact: System::restore_state adopts the
    // snapshot's pages first, and adopt re-epochs every watched page whose
    // backing page it swapped.
    sim::PhysicalMemory& phys = machine_.phys();
    const u64 npt = r.get_count("table page");
    auto it = pt_pages_.begin();
    for (u64 i = 0; r.ok() && i < npt; ++i) {
      const PhysAddr pa = r.get_u64();
      const unsigned level = r.get_u32();
      while (it != pt_pages_.end() && it->first < pa) {
        phys.unwatch_page(it->first >> kPageShift);
        it = pt_pages_.erase(it);
      }
      if (it != pt_pages_.end() && it->first == pa) {
        it->second = level;
        ++it;
      } else {
        pt_pages_.emplace_hint(it, pa, level);
        phys.watch_page(pa >> kPageShift);
      }
    }
    for (; it != pt_pages_.end(); it = pt_pages_.erase(it)) {
      phys.unwatch_page(it->first >> kPageShift);
    }
    ++generation_;
    restore_set(r, kernel_tree_, "kernel-tree page");
    restore_set(r, module_text_, "module-text page");
    restore_set(r, user_roots_, "user root");
    stats_.checked = r.get_u64();
    stats_.denied_not_pt_page = r.get_u64();
    stats_.denied_kernel_tree = r.get_u64();
    stats_.denied_secure_map = r.get_u64();
    stats_.denied_bad_table = r.get_u64();
    stats_.denied_bad_encoding = r.get_u64();
    stats_.denied_wx = r.get_u64();
    stats_.denied_pt_writable = r.get_u64();
    stats_.denied_text_writable = r.get_u64();
  }

 private:
  static void restore_set(sim::SnapReader& r, std::set<PhysAddr>& set,
                          const char* what) {
    const u64 n = r.get_count(what);
    auto it = set.begin();
    for (u64 i = 0; r.ok() && i < n; ++i) {
      const PhysAddr key = r.get_u64();
      while (it != set.end() && *it < key) it = set.erase(it);
      if (it != set.end() && *it == key) {
        ++it;
      } else {
        set.emplace_hint(it, key);
      }
    }
    set.erase(it, set.end());
  }

  sim::Machine& machine_;
  PhysAddr text_base_;
  u64 text_size_;
  PhysAddr rodata_base_;
  u64 rodata_size_;
  PhysAddr kernel_root_ = 0;
  std::map<PhysAddr, unsigned> pt_pages_;  // table page -> walk level
  std::set<PhysAddr> kernel_tree_;         // immutable TTBR1 tables
  std::set<PhysAddr> module_text_;         // sealed RX module pages
  std::set<PhysAddr> user_roots_;
  VerifierStats stats_;
  u64 generation_ = 1;
};

}  // namespace hn::hypersec
