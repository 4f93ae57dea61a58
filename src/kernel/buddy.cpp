#include "kernel/buddy.h"

#include <algorithm>
#include <cassert>

namespace hn::kernel {

BuddyAllocator::BuddyAllocator(PhysAddr base, u64 size) : base_(base) {
  assert(is_page_aligned(base) && is_page_aligned(size));
  total_pages_ = size >> kPageShift;
  block_order_.assign(total_pages_, 0);
  allocated_.assign((total_pages_ + 7) / 8, 0);

  // Seed the free lists with maximal naturally-aligned blocks.
  u64 index = 0;
  while (index < total_pages_) {
    unsigned order = kMaxOrder;
    while (order > 0 && ((index & ((u64{1} << order) - 1)) != 0 ||
                         index + (u64{1} << order) > total_pages_)) {
      --order;
    }
    free_lists_[order].push_back(index);
    index += u64{1} << order;
  }
  free_pages_ = total_pages_;
}

bool BuddyAllocator::take_free_block(u64 index, unsigned order) {
  auto& list = free_lists_[order];
  auto it = std::find(list.begin(), list.end(), index);
  if (it == list.end()) return false;
  *it = list.back();
  list.pop_back();
  return true;
}

Result<PhysAddr> BuddyAllocator::alloc_pages(unsigned order) {
  if (order > kMaxOrder) {
    return Status::Invalid("buddy: order exceeds kMaxOrder");
  }
  SpinGuard zone(lock_);
  unsigned o = order;
  while (o <= kMaxOrder && free_lists_[o].empty()) ++o;
  if (o > kMaxOrder) {
    return Status::OutOfMemory("buddy: no free block of requested order");
  }
  u64 index = free_lists_[o].back();
  free_lists_[o].pop_back();
  // Split down to the requested order, returning the upper halves.
  while (o > order) {
    --o;
    free_lists_[o].push_back(index + (u64{1} << o));
  }
  set_allocated(index, true);
  block_order_[index] = static_cast<u8>(order);
  free_pages_ -= u64{1} << order;
  obs_alloc_pages_.add(u64{1} << order);
  return frame_addr(index);
}

void BuddyAllocator::free_pages(PhysAddr pa, unsigned order) {
  assert(owns(pa) && is_page_aligned(pa));
  SpinGuard zone(lock_);
  u64 index = frame_index(pa);
  assert(allocated(index) && block_order_[index] == order &&
         "free_pages: not an allocated block head of this order");
  set_allocated(index, false);
  free_pages_ += u64{1} << order;
  obs_free_pages_.add(u64{1} << order);
  if (free_hook_) free_hook_(pa, order);

  // Coalesce with the buddy while possible.
  unsigned o = order;
  while (o < kMaxOrder) {
    const u64 buddy = index ^ (u64{1} << o);
    if (buddy >= total_pages_ || !take_free_block(buddy, o)) break;
    index = std::min(index, buddy);
    ++o;
  }
  free_lists_[o].push_back(index);
}

}  // namespace hn::kernel
