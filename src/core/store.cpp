#include "core/store.h"

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>

#include "core/runner.h"
#include "obs/codec.h"
#include "sim/rng.h"

#if defined(__unix__) || defined(__APPLE__)
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace fiveg::core {

namespace {

using obs::codec::Reader;

constexpr char kMagic[4] = {'F', 'G', 'R', 'S'};
constexpr std::uint8_t kVersion = 1;
constexpr std::uint8_t kFrameDict = 'D';
constexpr std::uint8_t kFrameRecord = 'R';
// magic + version + type + u32 payload length.
constexpr std::size_t kHeaderSize = 10;
// u64 payload checksum.
constexpr std::size_t kTrailerSize = 8;

void put_u32le(std::string* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void put_u64le(std::string* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

std::uint32_t get_u32le(const char* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

std::uint64_t get_u64le(const char* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(static_cast<unsigned char>(p[i]))
         << (8 * i);
  }
  return v;
}

void append_frame(std::string* out, std::uint8_t type,
                  std::string_view payload) {
  out->append(kMagic, sizeof kMagic);
  out->push_back(static_cast<char>(kVersion));
  out->push_back(static_cast<char>(type));
  put_u32le(out, static_cast<std::uint32_t>(payload.size()));
  out->append(payload);
  put_u64le(out, sim::fnv1a64(payload));
}

std::uint8_t status_byte(RunStatus status) {
  switch (status) {
    case RunStatus::kOk:
      return 0;
    case RunStatus::kFailed:
      return 1;
    case RunStatus::kTimedOut:
      return 2;
  }
  return 0;
}

bool status_from(std::uint8_t b, RunStatus* out) {
  switch (b) {
    case 0:
      *out = RunStatus::kOk;
      return true;
    case 1:
      *out = RunStatus::kFailed;
      return true;
    case 2:
      *out = RunStatus::kTimedOut;
      return true;
    default:
      return false;
  }
}

// The deterministic core of a record payload, encoded against the
// file-wide dictionary. Field order is fixed; the intern callback is
// invoked in exactly this order, which makes the dictionary delta of a
// record deterministic too.
std::string encode_core(const StoreRecord& rec,
                        const obs::codec::StringIntern& intern) {
  using obs::codec::put_f64;
  using obs::codec::put_string;
  using obs::codec::put_varint;
  const ExperimentResult& r = rec.result;
  std::string out;
  put_varint(&out, intern(r.name));
  put_varint(&out, r.seed);
  out.push_back(static_cast<char>(status_byte(r.status)));
  put_string(&out, r.error);
  put_varint(&out, intern(r.paper_ref));
  put_varint(&out, intern(r.description));
  put_varint(&out, rec.labels.size());
  for (const auto& [key, value] : rec.labels) {
    put_varint(&out, intern(key));
    put_varint(&out, intern(value));
  }
  put_varint(&out, r.metrics.size());
  for (const MetricSeries& s : r.metrics) {
    put_varint(&out, intern(s.name));
    put_varint(&out, intern(s.unit));
    put_varint(&out, s.points.size());
    for (const MetricPoint& p : s.points) {
      put_f64(&out, p.x);
      put_f64(&out, p.y);
    }
  }
  obs::codec::encode_snapshots(&out, r.counters, intern);
  put_string(&out, r.text);
  return out;
}

// Record payload: the core, then the execution section.
std::string encode_record(const StoreRecord& rec,
                          const obs::codec::StringIntern& intern) {
  std::string out = encode_core(rec, intern);
  obs::codec::put_f64(&out, rec.result.wall_ms);
  obs::codec::put_varint(&out, rec.result.peak_rss_kb);
  obs::codec::encode_snapshots(&out, rec.result.profile, intern);
  return out;
}

bool decode_record(std::string_view payload,
                   const std::vector<std::string>& dict, StoreRecord* out) {
  Reader r(payload);
  const auto resolve = [&dict](std::uint64_t id, std::string* s) {
    if (id >= dict.size()) return false;
    *s = dict[static_cast<std::size_t>(id)];
    return true;
  };
  const auto get_interned = [&](std::string* s) {
    std::uint64_t id = 0;
    return r.get_varint(&id) && resolve(id, s);
  };

  ExperimentResult& res = out->result;
  std::uint8_t status = 0;
  if (!get_interned(&res.name) || !r.get_varint(&res.seed) ||
      !r.get_byte(&status) || !status_from(status, &res.status) ||
      !r.get_string(&res.error) || !get_interned(&res.paper_ref) ||
      !get_interned(&res.description)) {
    return false;
  }

  std::uint64_t n = 0;
  if (!r.get_varint(&n)) return false;
  std::string prev_key;
  for (std::uint64_t i = 0; i < n; ++i) {
    std::string key;
    std::string value;
    if (!get_interned(&key) || !get_interned(&value)) return false;
    // Labels are canonical on disk: strictly ascending keys.
    if (i > 0 && key <= prev_key) return false;
    prev_key = key;
    out->labels.emplace_back(std::move(key), std::move(value));
  }

  if (!r.get_varint(&n)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    MetricSeries series;
    std::uint64_t npoints = 0;
    if (!get_interned(&series.name) || !get_interned(&series.unit) ||
        !r.get_varint(&npoints)) {
      return false;
    }
    series.points.reserve(static_cast<std::size_t>(npoints));
    for (std::uint64_t j = 0; j < npoints; ++j) {
      MetricPoint p;
      if (!r.get_f64(&p.x) || !r.get_f64(&p.y)) return false;
      series.points.push_back(p);
    }
    res.metrics.push_back(std::move(series));
  }

  if (!obs::codec::decode_snapshots(&r, obs::MetricClock::kSim, resolve,
                                    &res.counters)) {
    return false;
  }
  if (!r.get_string(&res.text)) return false;
  // Records written before the execution section existed end here.
  if (r.done()) return true;
  return r.get_f64(&res.wall_ms) && r.get_varint(&res.peak_rss_kb) &&
         obs::codec::decode_snapshots(&r, obs::MetricClock::kWall, resolve,
                                      &res.profile) &&
         r.done();
}

// Parse outcome plus the reconstructed dictionary (the writer reopens a
// shard through this to resume interning where the file left off).
struct ParseState {
  StoreLoad load;
  std::vector<std::string> dict;
};

ParseState parse_impl(std::string_view bytes) {
  ParseState st;
  std::size_t pos = 0;
  while (pos < bytes.size()) {
    if (bytes.size() - pos < kHeaderSize + kTrailerSize) break;
    const char* h = bytes.data() + pos;
    if (std::memcmp(h, kMagic, sizeof kMagic) != 0) break;
    const auto version = static_cast<std::uint8_t>(h[4]);
    const auto type = static_cast<std::uint8_t>(h[5]);
    if (version != kVersion ||
        (type != kFrameDict && type != kFrameRecord)) {
      break;
    }
    const std::uint32_t len = get_u32le(h + 6);
    if (bytes.size() - pos - kHeaderSize - kTrailerSize < len) break;
    const std::string_view payload = bytes.substr(pos + kHeaderSize, len);
    if (get_u64le(bytes.data() + pos + kHeaderSize + len) !=
        sim::fnv1a64(payload)) {
      break;
    }

    if (type == kFrameDict) {
      // A dictionary frame every later record depends on: a decode
      // failure here (impossible without external tampering, given the
      // checksum passed) invalidates everything after it, so stop.
      Reader r(payload);
      std::uint64_t n = 0;
      if (!r.get_varint(&n)) break;
      std::vector<std::string> fresh;
      bool ok = true;
      for (std::uint64_t i = 0; i < n; ++i) {
        std::string s;
        if (!r.get_string(&s)) {
          ok = false;
          break;
        }
        fresh.push_back(std::move(s));
      }
      if (!ok || !r.done()) break;
      for (std::string& s : fresh) st.dict.push_back(std::move(s));
    } else {
      StoreRecord rec;
      if (decode_record(payload, st.dict, &rec)) {
        st.load.records.push_back(std::move(rec));
      } else {
        ++st.load.dropped_records;
      }
    }
    pos += kHeaderSize + len + kTrailerSize;
    st.load.valid_bytes = pos;
  }
  st.load.truncated_tail = st.load.valid_bytes < bytes.size();
  return st;
}

std::string seed_to_string(std::uint64_t seed) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, seed);
  return std::string(buf);
}

}  // namespace

std::string StoreRecord::key() const {
  // '\x1f' (unit separator) cannot appear in experiment names or label
  // keys/values, so the join is unambiguous.
  std::string out = result.name;
  out += '\x1f';
  out += seed_to_string(result.seed);
  for (const auto& [k, v] : labels) {
    out += '\x1f';
    out += k;
    out += '=';
    out += v;
  }
  return out;
}

std::uint64_t core_checksum(const StoreRecord& rec) {
  // Interning each string as its own hash keeps the encoding independent
  // of which shard (and which dictionary ids) the record came from.
  return sim::fnv1a64(encode_core(
      rec, [](std::string_view s) { return sim::fnv1a64(s); }));
}

bool store_record_less(const StoreRecord& a, const StoreRecord& b) {
  if (a.result.name != b.result.name) return a.result.name < b.result.name;
  if (a.result.seed != b.result.seed) return a.result.seed < b.result.seed;
  return a.labels < b.labels;
}

StoreLoad parse_store(std::string_view bytes) {
  return parse_impl(bytes).load;
}

StoreLoad load_store_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) {
    StoreLoad load;
    load.error = "cannot open store shard: " + path;
    return load;
  }
  std::ostringstream buf;
  buf << f.rdbuf();
  return parse_store(buf.str());
}

StoreDirLoad load_store_dir(const std::string& dir) {
  StoreDirLoad out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) {
    out.error = "cannot open store directory: " + dir + ": " + ec.message();
    return out;
  }
  for (const auto& entry : it) {
    if (!entry.is_regular_file(ec)) continue;
    std::string p = entry.path().string();
    if (p.size() < kStoreFileSuffix.size() ||
        p.compare(p.size() - kStoreFileSuffix.size(),
                  kStoreFileSuffix.size(), kStoreFileSuffix) != 0) {
      continue;
    }
    out.files.push_back(std::move(p));
  }
  std::sort(out.files.begin(), out.files.end());
  for (const std::string& path : out.files) {
    StoreLoad load = load_store_file(path);
    if (!load.ok()) {
      out.error = load.error;
      return out;
    }
    if (load.truncated_tail) ++out.torn_files;
    out.dropped_records += load.dropped_records;
    for (StoreRecord& rec : load.records) {
      out.records.push_back(std::move(rec));
    }
  }
  return out;
}

std::vector<StoreRecord> canonical_view(std::vector<StoreRecord> records) {
  // Last record with a given key wins: a post-crash re-run is appended
  // after — and supersedes — the run it replaces.
  std::map<std::string, std::size_t> last;
  for (std::size_t i = 0; i < records.size(); ++i) {
    last[records[i].key()] = i;
  }
  std::vector<StoreRecord> out;
  out.reserve(last.size());
  for (std::size_t i = 0; i < records.size(); ++i) {
    if (last[records[i].key()] == i) out.push_back(std::move(records[i]));
  }
  std::sort(out.begin(), out.end(), store_record_less);
  return out;
}

std::map<std::string, ExperimentResult> completed_runs(
    const std::vector<StoreRecord>& records, std::uint64_t base_seed,
    const std::vector<std::pair<std::string, std::string>>& labels) {
  std::map<std::string, ExperimentResult> out;
  for (const StoreRecord& rec : records) {
    const ExperimentResult& r = rec.result;
    if (r.status != RunStatus::kOk || rec.labels != labels ||
        r.seed != Runner::fork_seed(base_seed, r.name)) {
      continue;
    }
    out[r.name] = r;
  }
  return out;
}

StoreWriter::StoreWriter(const std::string& path) {
#if defined(__unix__) || defined(__APPLE__)
  fd_ = ::open(path.c_str(), O_RDWR | O_APPEND | O_CREAT | O_CLOEXEC, 0644);
  if (fd_ < 0) {
    error_ = "cannot open store shard for append: " + path + ": " +
             std::strerror(errno);
    return;
  }
  // Scan what's already there: rebuild the dictionary and present-key
  // set, and seal a torn tail so the next frame starts on a clean
  // boundary.
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    error_ = "cannot stat store shard: " + path + ": " + std::strerror(errno);
    return;
  }
  std::string bytes(static_cast<std::size_t>(st.st_size), '\0');
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::pread(fd_, bytes.data() + off, bytes.size() - off,
                              static_cast<off_t>(off));
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = "cannot read store shard: " + path + ": " +
               std::strerror(errno);
      return;
    }
    if (n == 0) {
      bytes.resize(off);
      break;
    }
    off += static_cast<std::size_t>(n);
  }
  ParseState state = parse_impl(bytes);
  if (state.load.truncated_tail &&
      ::ftruncate(fd_, static_cast<off_t>(state.load.valid_bytes)) != 0) {
    error_ = "cannot seal torn store shard: " + path + ": " +
             std::strerror(errno);
    return;
  }
  for (std::string& s : state.dict) {
    dict_.emplace(std::move(s), next_id_++);
  }
  for (const StoreRecord& rec : state.load.records) {
    if (rec.result.status == RunStatus::kOk) present_.insert(rec.key());
  }
#else
  (void)path;
  error_ = "store writer requires a POSIX platform";
#endif
}

StoreWriter::~StoreWriter() {
#if defined(__unix__) || defined(__APPLE__)
  if (fd_ >= 0) ::close(fd_);
#endif
}

bool StoreWriter::contains(const std::string& key) const {
  const std::lock_guard<std::mutex> lock(mu_);
  return present_.count(key) != 0;
}

std::size_t StoreWriter::appended() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

bool StoreWriter::append(const StoreRecord& rec) {
  const std::lock_guard<std::mutex> lock(mu_);
  if (!ok()) return false;
  std::string key = rec.key();
  if (present_.count(key) != 0) return true;

#if defined(__unix__) || defined(__APPLE__)
  // Intern against the live dictionary, collecting first-use strings for
  // this record's dictionary delta frame.
  std::vector<std::string_view> fresh;
  const auto intern = [this, &fresh](std::string_view s) {
    const auto it = dict_.find(s);
    if (it != dict_.end()) return it->second;
    const std::uint64_t id = next_id_++;
    const auto inserted = dict_.emplace(std::string(s), id).first;
    fresh.push_back(inserted->first);
    return id;
  };
  const std::string payload = encode_record(rec, intern);

  std::string out;
  if (!fresh.empty()) {
    std::string dict_payload;
    obs::codec::put_varint(&dict_payload, fresh.size());
    for (const std::string_view s : fresh) {
      obs::codec::put_string(&dict_payload, s);
    }
    append_frame(&out, kFrameDict, dict_payload);
  }
  append_frame(&out, kFrameRecord, payload);

  // One write() for dict delta + record: O_APPEND keeps concurrent
  // workers' frames contiguous, and a crash tears at most this tail.
  std::size_t off = 0;
  while (off < out.size()) {
    const ssize_t n = ::write(fd_, out.data() + off, out.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      error_ = std::string("store write failed: ") + std::strerror(errno);
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  if (rec.result.status == RunStatus::kOk) present_.insert(std::move(key));
  ++appended_;
  return true;
#else
  return false;
#endif
}

}  // namespace fiveg::core
