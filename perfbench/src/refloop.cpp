#include "refloop.h"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <vector>

namespace perfbench {

namespace {

// CPU part: about two thirds of the chunk.
constexpr std::size_t kFill = 8 * 1024;
constexpr std::size_t kTableSlots = 8 * 1024;  // power of two
constexpr std::size_t kInserts = 3 * 1024;
// Memory part: about one third.  Random 4 KiB page copies within 8 MiB,
// more than a core's L2, like the simulator's copy-on-write page traffic.
constexpr std::size_t kPages = 2048;
constexpr std::size_t kPageBytes = 4096;
constexpr int kPageCopies = 448;

// Sink so the compiler cannot drop the work.
volatile std::uint64_t g_sink = 0;

std::uint64_t xorshift(std::uint64_t& x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

}  // namespace

double run_reference_chunk() {
  // Buffers persist across chunks, so a chunk never page-faults or calls
  // the allocator: its time follows machine speed, not what the item
  // before it did to the heap.
  static std::vector<std::uint64_t> values(kFill);
  static std::vector<std::uint64_t> table(kTableSlots);
  static std::vector<unsigned char> pages(kPages * kPageBytes, 1);
  const auto start = std::chrono::steady_clock::now();

  std::uint64_t x = 0x9E3779B97F4A7C15ull;
  for (std::uint64_t& v : values) v = xorshift(x);
  std::sort(values.begin(), values.end());
  // Open-addressing inserts with linear probing: data-dependent loads and
  // branches, like the simulator's hash lookups.
  std::fill(table.begin(), table.end(), 0);
  std::uint64_t probes = 0;
  for (std::size_t i = 0; i < kInserts; ++i) {
    const std::uint64_t key = values[(i * 2654435761u) % kFill] | 1;
    std::size_t slot = (key * 0xff51afd7ed558ccdull >> 40) & (kTableSlots - 1);
    while (table[slot] != 0 && table[slot] != key) {
      slot = (slot + 1) & (kTableSlots - 1);
      ++probes;
    }
    table[slot] = key;
  }
  for (int i = 0; i < kPageCopies; ++i) {
    const std::uint64_t r = xorshift(x);
    std::memmove(&pages[(r % kPages) * kPageBytes],
                 &pages[((r >> 32) % kPages) * kPageBytes], kPageBytes);
  }
  g_sink = g_sink + values[kFill / 2] + probes + pages[x % pages.size()];

  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace perfbench
