// Machine-snapshot persistence: full serialize/restore of machine +
// kernel state with a versioned binary format (v1, following the
// trace_io idiom), plus the in-memory copy-on-write fork path
// (DESIGN.md §12).
//
// A Snapshot has two parts:
//
//   * `state` — a flat little-endian blob every software/hardware layer
//     appends its architectural state to via SnapWriter, and restores
//     from via SnapReader (each layer owns a `save_state`/`restore_state`
//     pair; hypernel::System orchestrates the fixed layer order);
//   * `pages` — a PhysicalMemory::PageSet sharing the DRAM contents
//     copy-on-write, so taking or restoring a snapshot never copies the
//     64–128 MiB of simulated RAM.
//
// Restores target a *live* system of the identical configuration
// (validated by a config digest): component objects, handler wiring and
// host-side caches persist; only architectural state is replaced.  The
// file form (pack/unpack) adds a magic/version header, a sparse populated-
// page table and a trailing FNV checksum, and the parser rejects corrupt
// blobs with precise diagnostics exactly like parse_trace.
#pragma once

#include <cstring>
#include <string>
#include <vector>

#include "common/status.h"
#include "common/types.h"
#include "sim/phys_mem.h"

namespace hn::sim {

/// Binary snapshot format version.  Bump on any layout change; the parser
/// rejects versions it does not understand.  v2: SMP (per-core machine
/// sections, bus arbiter + pending-IPI state, per-event core provenance,
/// per-core kernel scheduler state).
inline constexpr u32 kSnapshotFormatVersion = 2;

/// 8-byte file magic: "HNSNAP\0\0".
inline constexpr char kSnapshotMagic[8] = {'H', 'N', 'S', 'N', 'A', 'P', 0, 0};

/// Little-endian append writer for the layered state blob.  Deterministic:
/// equal machine states produce byte-identical blobs (snapshot files can
/// be diffed and golden-tested like trace files).
class SnapWriter {
 public:
  void put_u8(u8 v) { buf_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u16(u16 v) {
    for (int i = 0; i < 2; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_u32(u32 v) {
    for (int i = 0; i < 4; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_u64(u64 v) {
    for (int i = 0; i < 8; ++i) buf_.push_back(static_cast<u8>(v >> (8 * i)));
  }
  void put_f64(double v) {
    u64 bits;
    std::memcpy(&bits, &v, 8);
    put_u64(bits);
  }
  void put_bytes(const void* src, u64 n) {
    const u8* p = static_cast<const u8*>(src);
    buf_.insert(buf_.end(), p, p + n);
  }
  void put_string(const std::string& s) {
    put_u32(static_cast<u32>(s.size()));
    put_bytes(s.data(), s.size());
  }

  [[nodiscard]] const std::vector<u8>& data() const { return buf_; }
  [[nodiscard]] std::vector<u8> take() { return std::move(buf_); }

 private:
  std::vector<u8> buf_;
};

/// Bounds-checked little-endian reader with a latched failure state, so
/// per-layer restore code reads fields linearly and checks `ok()` once.
/// The first failure records which section was being parsed; all later
/// reads return zero values without advancing.
///
/// A *delta* reader restores a live system onto the very snapshot it last
/// saved to or restored from (hypernel::System decides; DESIGN.md §12).
/// Layers that track what they changed since that sync may then read the
/// blob selectively (view()) and touch only the changed parts; every other
/// layer reads exactly as in a full restore.
class SnapReader {
 public:
  explicit SnapReader(const std::vector<u8>& blob, bool delta = false)
      : blob_(blob), delta_(delta) {}

  /// True when the live state last equalled this blob's (see above).
  [[nodiscard]] bool delta() const { return delta_; }

  /// Name the section subsequent reads belong to (for diagnostics).
  void section(const char* name) { section_ = name; }
  /// Latch an explicit validation failure against the current section.
  void fail(const std::string& what) {
    if (!failed_) {
      failed_ = true;
      error_ = "snapshot: " + std::string(section_) + ": " + what;
    }
  }

  u8 get_u8() {
    u8 v = 0;
    take(&v, 1);
    return v;
  }
  bool get_bool() { return get_u8() != 0; }
  u16 get_u16() {
    u8 raw[2] = {};
    take(raw, 2);
    return static_cast<u16>(raw[0] | (raw[1] << 8));
  }
  u32 get_u32() {
    u8 raw[4] = {};
    take(raw, 4);
    u32 v = 0;
    for (int i = 0; i < 4; ++i) v |= static_cast<u32>(raw[i]) << (8 * i);
    return v;
  }
  u64 get_u64() {
    u8 raw[8] = {};
    take(raw, 8);
    u64 v = 0;
    for (int i = 0; i < 8; ++i) v |= static_cast<u64>(raw[i]) << (8 * i);
    return v;
  }
  double get_f64() {
    const u64 bits = get_u64();
    double v;
    std::memcpy(&v, &bits, 8);
    return v;
  }
  void get_bytes(void* dst, u64 n) { take(dst, n); }
  /// The next `n` bytes in place (nullptr after a failure), for restores
  /// that copy back only part of a saved array.
  [[nodiscard]] const u8* view(u64 n) {
    if (!failed_ && n <= remaining()) [[likely]] {
      const u8* p = blob_.data() + pos_;
      pos_ += n;
      return p;
    }
    fail_truncated();
    return nullptr;
  }
  std::string get_string() {
    const u32 len = get_u32();
    if (len > remaining()) {
      fail("truncated string");
      return {};
    }
    std::string s(len, '\0');
    if (len > 0) take(s.data(), len);
    return s;
  }
  /// Element count for a container about to be read; fails (and returns 0)
  /// when even one-byte elements could not fit in the remaining bytes.
  u64 get_count(const char* what) {
    const u64 n = get_u64();
    if (n > remaining()) {
      fail(std::string("truncated ") + what + " table");
      return 0;
    }
    return n;
  }

  [[nodiscard]] bool ok() const { return !failed_; }
  [[nodiscard]] u64 remaining() const { return blob_.size() - pos_; }
  [[nodiscard]] Status status() const {
    return failed_ ? Status::Invalid(error_) : Status::Ok();
  }

 private:
  // Every field read lands here, so the in-bounds copy stays inline and
  // the failure path is out of line.
  void take(void* dst, u64 n) {
    if (!failed_ && n <= remaining()) [[likely]] {
      std::memcpy(dst, blob_.data() + pos_, n);
      pos_ += n;
      return;
    }
    fail_truncated();
    std::memset(dst, 0, n);
  }
  [[gnu::cold, gnu::noinline]] void fail_truncated();

  const std::vector<u8>& blob_;
  bool delta_ = false;
  u64 pos_ = 0;
  bool failed_ = false;
  const char* section_ = "header";
  std::string error_;
};

/// A machine snapshot: the layered state blob plus the COW-shared DRAM
/// pages, tagged with the digest of the configuration it was taken from.
struct Snapshot {
  /// Process-unique identity (host-side; never serialized).  Assigned by
  /// hypernel::System::save_state and unpack_snapshot; a copy keeps it,
  /// since its content is identical and must stay immutable.  0 = none.
  u64 id = 0;
  u64 config_digest = 0;
  /// Sequence id of the kSnapshot trace event recorded at save time
  /// (kNoCause when tracing was off) — the restore event's cause link.
  u64 save_seq = ~0ull;
  std::vector<u8> state;
  PhysicalMemory::PageSet pages;

  [[nodiscard]] bool empty() const { return state.empty(); }
};

/// A fresh process-unique snapshot id (never 0).  Thread-safe.
[[nodiscard]] u64 next_snapshot_id();

/// Serialize a snapshot into the self-contained v1 file format:
/// magic, version, config digest, state blob, sparse page table
/// (populated pages only), trailing FNV-1a checksum.
[[nodiscard]] std::vector<u8> pack_snapshot(const Snapshot& snap);

/// Parse a snapshot file blob.  Returns Invalid with a precise diagnostic
/// on bad magic, unknown version, truncation, out-of-range page indices,
/// checksum mismatch or trailing bytes.
Status unpack_snapshot(const std::vector<u8>& blob, Snapshot& out);

/// Write `blob` to `path`.  Returns false on I/O failure.
bool write_snapshot_file(const std::vector<u8>& blob, const std::string& path);

/// Read `path` into `blob`.  Returns false on I/O failure.
bool read_snapshot_file(const std::string& path, std::vector<u8>& blob);

}  // namespace hn::sim
