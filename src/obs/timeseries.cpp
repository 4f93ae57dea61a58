#include "obs/timeseries.h"

#include <cstdio>
#include <cstring>

namespace hn::obs {

// --- TimeSeriesData ----------------------------------------------------------

int TimeSeriesData::track_index(std::string_view name) const {
  for (size_t i = 0; i < tracks.size(); ++i) {
    if (tracks[i].name == name) return static_cast<int>(i);
  }
  return -1;
}

u64 TimeSeriesData::track_total(std::string_view name) const {
  const int idx = track_index(name);
  if (idx < 0) return 0;
  const auto i = static_cast<size_t>(idx);
  if (tracks[i].kind == TrackKind::kLevel) {
    return samples.empty() ? 0 : samples.back().values[i];
  }
  u64 total = 0;
  for (const TimeSeriesSample& s : samples) total += s.values[i];
  return total;
}

// --- TimeSeries --------------------------------------------------------------

void TimeSeries::enroll(std::string name, TrackKind kind, Probe probe) {
  Track t;
  t.name = std::move(name);
  t.kind = kind;
  t.probe = std::move(probe);
  tracks_.push_back(std::move(t));
}

void TimeSeries::arm(Cycles interval, Cycles now) {
#if HN_OBS
  samples_.clear();
  interval_ = interval;
  if (interval == 0) return;
  for (Track& t : tracks_) t.prev = t.probe();
  // First boundary strictly after `now`: absolute multiples of the
  // interval, so identical arm cycles give identical stamps.
  next_at_ = (now / interval + 1) * interval;
#else
  (void)interval;
  (void)now;
#endif
}

void TimeSeries::clear_samples() {
  samples_.clear();
  interval_ = 0;
}

void TimeSeries::unenroll_prefix(std::string_view prefix) {
  std::vector<size_t> keep;
  keep.reserve(tracks_.size());
  for (size_t i = 0; i < tracks_.size(); ++i) {
    if (tracks_[i].name.compare(0, prefix.size(), prefix) != 0) {
      keep.push_back(i);
    }
  }
  if (keep.size() == tracks_.size()) return;
  std::vector<Track> tracks;
  tracks.reserve(keep.size());
  for (const size_t i : keep) tracks.push_back(std::move(tracks_[i]));
  tracks_ = std::move(tracks);
  // Rows sampled before a later enroll() are shorter than the track list:
  // they keep only the columns they have.
  for (TimeSeriesSample& row : samples_) {
    std::vector<u64> values;
    values.reserve(keep.size());
    for (const size_t i : keep) {
      if (i < row.values.size()) values.push_back(row.values[i]);
    }
    row.values = std::move(values);
  }
}

void TimeSeries::sample_at(Cycles at) {
  TimeSeriesSample row;
  row.at = at;
  row.values.reserve(tracks_.size());
  for (Track& t : tracks_) {
    const u64 cur = t.probe();
    if (t.kind == TrackKind::kCounter) {
      row.values.push_back(cur - t.prev);
      t.prev = cur;
    } else {
      row.values.push_back(cur);
    }
  }
  samples_.push_back(std::move(row));
}

TimeSeriesData TimeSeries::data(Cycles now) const {
  TimeSeriesData out;
  out.interval = interval_;
  out.tracks.reserve(tracks_.size());
  for (const Track& t : tracks_) out.tracks.push_back({t.name, t.kind});
  out.samples = samples_;
  // Flush row: the partial window since the last boundary, so counter
  // sums telescope to end-of-run totals.  prev stays untouched (const).
  if (armed() && (samples_.empty() || samples_.back().at < now)) {
    TimeSeriesSample row;
    row.at = now;
    row.values.reserve(tracks_.size());
    for (const Track& t : tracks_) {
      const u64 cur = t.probe();
      row.values.push_back(t.kind == TrackKind::kCounter ? cur - t.prev : cur);
    }
    out.samples.push_back(std::move(row));
  }
  return out;
}

// --- Binary format -----------------------------------------------------------

namespace {

void put_u8(std::vector<u8>& out, u8 v) { out.push_back(v); }

void put_u32(std::vector<u8>& out, u32 v) {
  for (unsigned i = 0; i < 4; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

void put_u64(std::vector<u8>& out, u64 v) {
  for (unsigned i = 0; i < 8; ++i) out.push_back(static_cast<u8>(v >> (8 * i)));
}

void put_f64(std::vector<u8>& out, double v) {
  u64 bits;
  std::memcpy(&bits, &v, sizeof bits);
  put_u64(out, bits);
}

/// Bounds-checked little-endian reader (mirrors trace_io.cpp's).
class Reader {
 public:
  explicit Reader(const std::vector<u8>& blob) : blob_(blob) {}

  bool u8_(u8& v) {
    if (pos_ + 1 > blob_.size()) return false;
    v = blob_[pos_++];
    return true;
  }
  bool u32_(u32& v) {
    if (pos_ + 4 > blob_.size()) return false;
    v = 0;
    for (unsigned i = 0; i < 4; ++i) v |= u32{blob_[pos_ + i]} << (8 * i);
    pos_ += 4;
    return true;
  }
  bool u64_(u64& v) {
    if (pos_ + 8 > blob_.size()) return false;
    v = 0;
    for (unsigned i = 0; i < 8; ++i) v |= u64{blob_[pos_ + i]} << (8 * i);
    pos_ += 8;
    return true;
  }
  bool f64_(double& v) {
    u64 bits;
    if (!u64_(bits)) return false;
    std::memcpy(&v, &bits, sizeof v);
    return true;
  }
  bool bytes(void* dst, size_t n) {
    if (pos_ + n > blob_.size()) return false;
    std::memcpy(dst, blob_.data() + pos_, n);
    pos_ += n;
    return true;
  }
  [[nodiscard]] size_t remaining() const { return blob_.size() - pos_; }

 private:
  const std::vector<u8>& blob_;
  size_t pos_ = 0;
};

}  // namespace

std::vector<u8> serialize_timeseries(const TimeSeriesData& data) {
  std::vector<u8> out;
  out.reserve(64 + data.samples.size() * (data.tracks.size() + 1) * 8);
  out.insert(out.end(), kTimeSeriesMagic, kTimeSeriesMagic + 8);
  put_u32(out, kTimeSeriesFormatVersion);
  put_u32(out, 0);  // reserved
  put_f64(out, data.cpu_ghz);
  put_u64(out, data.interval);
  put_u64(out, data.tracks.size());
  for (const TimeSeriesTrack& t : data.tracks) {
    put_u32(out, static_cast<u32>(t.name.size()));
    out.insert(out.end(), t.name.begin(), t.name.end());
    put_u8(out, static_cast<u8>(t.kind));
  }
  put_u64(out, data.samples.size());
  for (const TimeSeriesSample& s : data.samples) {
    put_u64(out, s.at);
    for (const u64 v : s.values) put_u64(out, v);
  }
  return out;
}

Status parse_timeseries(const std::vector<u8>& blob, TimeSeriesData& out) {
  out = TimeSeriesData{};
  Reader r(blob);
  char magic[8];
  if (!r.bytes(magic, 8) || std::memcmp(magic, kTimeSeriesMagic, 8) != 0) {
    return Status::Invalid("timeseries: bad magic (not an HNTSERIE blob)");
  }
  u32 version = 0;
  u32 reserved = 0;
  if (!r.u32_(version) || !r.u32_(reserved)) {
    return Status::Invalid("timeseries: truncated header");
  }
  if (version != kTimeSeriesFormatVersion) {
    return Status::Invalid("timeseries: unsupported format version " +
                           std::to_string(version));
  }
  u64 track_count = 0;
  if (!r.f64_(out.cpu_ghz) || !r.u64_(out.interval) || !r.u64_(track_count)) {
    return Status::Invalid("timeseries: truncated header");
  }
  if (track_count > (1u << 20)) {
    return Status::Invalid("timeseries: implausible track count");
  }
  out.tracks.reserve(track_count);
  for (u64 i = 0; i < track_count; ++i) {
    u32 name_len = 0;
    if (!r.u32_(name_len) || name_len > r.remaining()) {
      return Status::Invalid("timeseries: truncated track table");
    }
    TimeSeriesTrack t;
    t.name.resize(name_len);
    u8 kind = 0;
    if (!r.bytes(t.name.data(), name_len) || !r.u8_(kind)) {
      return Status::Invalid("timeseries: truncated track table");
    }
    if (kind > static_cast<u8>(TrackKind::kLevel)) {
      return Status::Invalid("timeseries: unknown track kind");
    }
    t.kind = static_cast<TrackKind>(kind);
    out.tracks.push_back(std::move(t));
  }
  u64 sample_count = 0;
  if (!r.u64_(sample_count)) {
    return Status::Invalid("timeseries: truncated sample table");
  }
  const u64 row_bytes = (track_count + 1) * 8;
  if (sample_count > r.remaining() / (row_bytes == 0 ? 1 : row_bytes)) {
    return Status::Invalid("timeseries: sample table overruns blob");
  }
  out.samples.reserve(sample_count);
  for (u64 i = 0; i < sample_count; ++i) {
    TimeSeriesSample s;
    if (!r.u64_(s.at)) {
      return Status::Invalid("timeseries: truncated sample table");
    }
    s.values.resize(track_count);
    for (u64 j = 0; j < track_count; ++j) {
      if (!r.u64_(s.values[j])) {
        return Status::Invalid("timeseries: truncated sample table");
      }
    }
    out.samples.push_back(std::move(s));
  }
  if (r.remaining() != 0) {
    return Status::Invalid("timeseries: trailing bytes after sample table");
  }
  return Status::Ok();
}

bool write_timeseries_file(const std::vector<u8>& blob,
                           const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok =
      blob.empty() || std::fwrite(blob.data(), 1, blob.size(), f) == blob.size();
  return std::fclose(f) == 0 && ok;
}

bool read_timeseries_file(const std::string& path, std::vector<u8>& blob) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return false;
  blob.clear();
  u8 buf[4096];
  for (size_t n; (n = std::fread(buf, 1, sizeof buf, f)) > 0;) {
    blob.insert(blob.end(), buf, buf + n);
  }
  const bool ok = std::ferror(f) == 0;
  std::fclose(f);
  return ok;
}

}  // namespace hn::obs
