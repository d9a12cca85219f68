#include "dse/result_cache.h"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "core/config_digest.h"
#include "obs/json_io.h"

namespace ara::dse {

namespace {

constexpr int kExactDigits = 17;

void member(std::string& out, bool& first, const char* name) {
  if (!first) out += ',';
  first = false;
  out += '"';
  out += name;
  out += "\":";
}

void put(std::string& out, bool& first, const char* name, double v) {
  member(out, first, name);
  obs::json_number(out, v, kExactDigits);
}

void put(std::string& out, bool& first, const char* name, std::uint64_t v) {
  member(out, first, name);
  obs::json_uint(out, v);
}

void put(std::string& out, bool& first, const char* name,
         std::string_view v) {
  member(out, first, name);
  out += '"';
  obs::json_escape(out, v);
  out += '"';
}

/// The 16 lowercase hex digits of `key`, zero-padded.
std::string hex_key(std::uint64_t key) {
  char digits[16];
  const std::to_chars_result r = std::to_chars(digits, digits + 16, key, 16);
  std::string out(16 - static_cast<std::size_t>(r.ptr - digits), '0');
  out.append(digits, r.ptr);
  return out;
}

bool get(const obs::JsonValue& obj, const char* name, double* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_double();
  return true;
}

bool get(const obs::JsonValue& obj, const char* name, std::uint64_t* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_number()) return false;
  *out = v->as_u64();
  return true;
}

bool get(const obs::JsonValue& obj, const char* name, std::string* out) {
  const obs::JsonValue* v = obj.find(name);
  if (v == nullptr || !v->is_string()) return false;
  *out = v->text;
  return true;
}

// --- Packed memory-tier format ---
//
// An entry is stored as one byte string: LEB128 varints for integers and
// lengths, the raw 8 bytes of each double (bit-exact, NaN payloads and
// signed zeros included) and length-prefixed strings. Stat names are not
// in it: they go to a separate list, which entries of the same snapshot
// shape share (ResultCache::store). Per-kind seconds are host wall-clock
// and are not stored. code_entry() walks the fields once for both
// directions, so the writer and reader cannot disagree on order.

class Packer {
 public:
  explicit Packer(std::string* out) : out_(out) {}

  void operator()(std::uint64_t v) {
    while (v >= 0x80) {
      out_->push_back(static_cast<char>((v & 0x7f) | 0x80));
      v >>= 7;
    }
    out_->push_back(static_cast<char>(v));
  }
  void operator()(double v) {
    char raw[sizeof v];
    std::memcpy(raw, &v, sizeof v);
    out_->append(raw, sizeof v);
  }
  void operator()(const std::string& v) {
    (*this)(static_cast<std::uint64_t>(v.size()));
    out_->append(v);
  }
  /// A stat name: listed, not packed.
  void name(const std::string& v) { names.push_back(v); }
  template <class T, class Fn>
  void list(const std::vector<T>& items, Fn&& fn) {
    (*this)(static_cast<std::uint64_t>(items.size()));
    for (const T& item : items) fn(item);
  }

  /// The entry's stat names, in order; they view the packed Entry.
  std::vector<std::string_view> names;

 private:
  std::string* out_;
};

/// Reads only what Packer wrote in this process, so it does no bounds
/// checks of its own.
class Unpacker {
 public:
  Unpacker(const std::string& in, const std::vector<std::string>& names)
      : p_(in.data()), name_(names.begin()) {}

  void operator()(std::uint64_t& v) {
    v = 0;
    for (int shift = 0;; shift += 7) {
      const auto byte = static_cast<unsigned char>(*p_++);
      v |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) break;
    }
  }
  void operator()(double& v) {
    std::memcpy(&v, p_, sizeof v);
    p_ += sizeof v;
  }
  void operator()(std::string& v) {
    std::uint64_t n = 0;
    (*this)(n);
    v.assign(p_, n);
    p_ += n;
  }
  void name(std::string& v) { v = *name_++; }
  template <class T, class Fn>
  void list(std::vector<T>& items, Fn&& fn) {
    std::uint64_t n = 0;
    (*this)(n);
    items.resize(n);
    for (T& item : items) fn(item);
  }

 private:
  const char* p_;
  std::vector<std::string>::const_iterator name_;
};

template <class Coder, class E>
void code_entry(Coder& c, E& e) {
  auto& r = e.result;
  c(r.workload);
  c(r.config);
  c(r.makespan);
  c(r.jobs);
  c(r.energy.abb_j);
  c(r.energy.spm_j);
  c(r.energy.abb_spm_xbar_j);
  c(r.energy.island_net_j);
  c(r.energy.dma_j);
  c(r.energy.noc_j);
  c(r.energy.l2_j);
  c(r.energy.dram_j);
  c(r.energy.mono_j);
  c(r.energy.leakage_j);
  c(r.energy.platform_j);
  c(r.area.islands_mm2);
  c(r.area.noc_mm2);
  c(r.area.l2_mm2);
  c(r.area.mc_mm2);
  c(r.avg_abb_utilization);
  c(r.peak_abb_utilization);
  c(r.l2_hit_rate);
  c(r.dram_bytes);
  c(r.chains_direct);
  c(r.chains_spilled);
  c(r.tasks_queued);
  c(r.noc_peak_link_utilization);
  c(r.job_latency_mean);
  c(r.job_latency_p50);
  c(r.job_latency_p95);
  c(r.job_latency_max);
  c(e.events);
  for (auto& kind : e.event_kinds) c(kind.count);
  auto& m = e.metrics;
  c.list(m.counters, [&c](auto& s) {
    c.name(s.name);
    c(s.value);
  });
  c.list(m.accumulators, [&c](auto& s) {
    c.name(s.name);
    c(s.sum);
    c(s.count);
    c(s.mean);
    c(s.min);
    c(s.max);
  });
  c.list(m.histograms, [&c](auto& s) {
    c.name(s.name);
    c(s.count);
    c(s.mean);
    c(s.min);
    c(s.max);
    c(s.p50);
    c(s.p95);
    c(s.p99);
    c(s.bucket_width);
    c.list(s.buckets, [&c](auto& b) { c(b); });
  });
}

/// Content hash of a name list: the names' FNV-1a hashes, chained. Equal
/// hashes are confirmed by comparing the lists.
std::uint64_t hash_names(const std::vector<std::string_view>& names) {
  std::uint64_t h = names.size();
  for (const std::string_view name : names) {
    h = (h * 0x100000001b3ull) ^ core::fnv1a64(name);
  }
  return h;
}

void unpack(const std::string& values, const std::vector<std::string>& names,
            ResultCache::Entry* out) {
  ResultCache::Entry e;
  Unpacker unpacker(values, names);
  code_entry(unpacker, e);
  *out = std::move(e);
}

}  // namespace

ResultCache::ResultCache(std::string dir, std::uint64_t salt)
    : dir_(std::move(dir)), salt_(salt) {}

std::uint64_t ResultCache::key(const core::ArchConfig& config,
                               const workloads::Workload& workload,
                               std::uint64_t salt) {
  std::string text = "[salt]\nversion=" + std::to_string(salt) + "\n";
  text += core::canonical_text(config);
  text += core::canonical_text(workload);
  return core::fnv1a64(text);
}

std::string ResultCache::entry_path(std::uint64_t key) const {
  return dir_ + "/" + hex_key(key) + ".json";
}

void ResultCache::append_json(std::string& out, std::uint64_t key,
                              std::uint64_t salt, const core::RunResult& r,
                              const obs::MetricsSnapshot& metrics,
                              std::uint64_t events,
                              const EventKinds& event_kinds) {
  out += '{';
  bool first = true;
  put(out, first, "key", hex_key(key));
  put(out, first, "salt", salt);
  member(out, first, "result");
  {
    out += '{';
    bool f = true;
    put(out, f, "workload", r.workload);
    put(out, f, "config", r.config);
    put(out, f, "makespan", r.makespan);
    put(out, f, "jobs", r.jobs);
    member(out, f, "energy");
    {
      out += '{';
      bool e = true;
      put(out, e, "abb_j", r.energy.abb_j);
      put(out, e, "spm_j", r.energy.spm_j);
      put(out, e, "abb_spm_xbar_j", r.energy.abb_spm_xbar_j);
      put(out, e, "island_net_j", r.energy.island_net_j);
      put(out, e, "dma_j", r.energy.dma_j);
      put(out, e, "noc_j", r.energy.noc_j);
      put(out, e, "l2_j", r.energy.l2_j);
      put(out, e, "dram_j", r.energy.dram_j);
      put(out, e, "mono_j", r.energy.mono_j);
      put(out, e, "leakage_j", r.energy.leakage_j);
      put(out, e, "platform_j", r.energy.platform_j);
      out += '}';
    }
    member(out, f, "area");
    {
      out += '{';
      bool a = true;
      put(out, a, "islands_mm2", r.area.islands_mm2);
      put(out, a, "noc_mm2", r.area.noc_mm2);
      put(out, a, "l2_mm2", r.area.l2_mm2);
      put(out, a, "mc_mm2", r.area.mc_mm2);
      out += '}';
    }
    put(out, f, "avg_abb_utilization", r.avg_abb_utilization);
    put(out, f, "peak_abb_utilization", r.peak_abb_utilization);
    put(out, f, "l2_hit_rate", r.l2_hit_rate);
    put(out, f, "dram_bytes", r.dram_bytes);
    put(out, f, "chains_direct", r.chains_direct);
    put(out, f, "chains_spilled", r.chains_spilled);
    put(out, f, "tasks_queued", r.tasks_queued);
    put(out, f, "noc_peak_link_utilization", r.noc_peak_link_utilization);
    put(out, f, "job_latency_mean", r.job_latency_mean);
    put(out, f, "job_latency_p50", r.job_latency_p50);
    put(out, f, "job_latency_p95", r.job_latency_p95);
    put(out, f, "job_latency_max", r.job_latency_max);
    out += '}';
  }
  put(out, first, "events", events);
  member(out, first, "event_kinds");
  {
    out += '{';
    bool k = true;
    for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
      put(out, k, sim::event_kind_name(static_cast<sim::EventKind>(i)),
          event_kinds[i].count);
    }
    out += '}';
  }
  member(out, first, "metrics");
  obs::MetricsExporter::append_snapshot_exact(out, metrics);
  out += '}';
}

std::string ResultCache::to_json(std::uint64_t key, std::uint64_t salt,
                                 const Entry& entry) {
  std::string out;
  append_json(out, key, salt, entry.result, entry.metrics, entry.events,
              entry.event_kinds);
  out += '\n';
  return out;
}

bool ResultCache::from_json(const std::string& text, std::uint64_t key,
                            std::uint64_t salt, Entry* out) {
  // One strict parse: a truncated or hand-edited file is a clean miss.
  obs::JsonValue root;
  if (!obs::parse_json(text, &root) || !root.is_object()) return false;

  std::string stored_key;
  std::uint64_t stored_salt = 0;
  if (!get(root, "key", &stored_key) || stored_key != hex_key(key)) {
    return false;
  }
  if (!get(root, "salt", &stored_salt) || stored_salt != salt) return false;

  const obs::JsonValue* result = root.find("result");
  const obs::JsonValue* metrics = root.find("metrics");
  if (result == nullptr || !result->is_object() || metrics == nullptr) {
    return false;
  }

  Entry e;
  auto& r = e.result;
  const obs::JsonValue* energy = result->find("energy");
  const obs::JsonValue* area = result->find("area");
  if (energy == nullptr || !energy->is_object() || area == nullptr ||
      !area->is_object()) {
    return false;
  }
  bool ok = get(*result, "workload", &r.workload) &&
            get(*result, "config", &r.config) &&
            get(*result, "makespan", &r.makespan) &&
            get(*result, "jobs", &r.jobs) &&
            get(*energy, "abb_j", &r.energy.abb_j) &&
            get(*energy, "spm_j", &r.energy.spm_j) &&
            get(*energy, "abb_spm_xbar_j", &r.energy.abb_spm_xbar_j) &&
            get(*energy, "island_net_j", &r.energy.island_net_j) &&
            get(*energy, "dma_j", &r.energy.dma_j) &&
            get(*energy, "noc_j", &r.energy.noc_j) &&
            get(*energy, "l2_j", &r.energy.l2_j) &&
            get(*energy, "dram_j", &r.energy.dram_j) &&
            get(*energy, "mono_j", &r.energy.mono_j) &&
            get(*energy, "leakage_j", &r.energy.leakage_j) &&
            get(*energy, "platform_j", &r.energy.platform_j) &&
            get(*area, "islands_mm2", &r.area.islands_mm2) &&
            get(*area, "noc_mm2", &r.area.noc_mm2) &&
            get(*area, "l2_mm2", &r.area.l2_mm2) &&
            get(*area, "mc_mm2", &r.area.mc_mm2) &&
            get(*result, "avg_abb_utilization", &r.avg_abb_utilization) &&
            get(*result, "peak_abb_utilization", &r.peak_abb_utilization) &&
            get(*result, "l2_hit_rate", &r.l2_hit_rate) &&
            get(*result, "dram_bytes", &r.dram_bytes) &&
            get(*result, "chains_direct", &r.chains_direct) &&
            get(*result, "chains_spilled", &r.chains_spilled) &&
            get(*result, "tasks_queued", &r.tasks_queued) &&
            get(*result, "noc_peak_link_utilization",
                &r.noc_peak_link_utilization) &&
            get(*result, "job_latency_mean", &r.job_latency_mean) &&
            get(*result, "job_latency_p50", &r.job_latency_p50) &&
            get(*result, "job_latency_p95", &r.job_latency_p95) &&
            get(*result, "job_latency_max", &r.job_latency_max) &&
            get(root, "events", &e.events);
  if (!ok) return false;

  const obs::JsonValue* kinds = root.find("event_kinds");
  if (kinds == nullptr || !kinds->is_object()) return false;
  for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
    if (!get(*kinds, sim::event_kind_name(static_cast<sim::EventKind>(i)),
             &e.event_kinds[i].count)) {
      return false;
    }
  }
  if (!obs::MetricsExporter::snapshot_from_json(*metrics, &e.metrics)) {
    return false;
  }
  *out = std::move(e);
  return true;
}

void ResultCache::store(std::uint64_t key, const Entry& entry) {
  std::string values;
  Packer packer(&values);
  code_entry(packer, entry);
  values.shrink_to_fit();  // entries live as long as the cache
  const std::vector<std::string_view>& names = packer.names;
  const std::uint64_t names_hash = hash_names(names);

  common::MutexLock lock(mu_);
  Packed& slot = memory_[key];
  slot.values = std::move(values);
  const auto it = name_lists_.find(names_hash);
  if (it != name_lists_.end() &&
      std::equal(it->second->begin(), it->second->end(), names.begin(),
                 names.end())) {
    slot.names = it->second;
    return;
  }
  slot.names = std::make_shared<const std::vector<std::string>>(
      names.begin(), names.end());
  if (it == name_lists_.end()) name_lists_.emplace(names_hash, slot.names);
}

bool ResultCache::lookup(std::uint64_t key, Entry* out) {
  Packed packed;
  bool in_memory = false;
  {
    common::MutexLock lock(mu_);
    auto it = memory_.find(key);
    if (it != memory_.end()) {
      packed = it->second;  // decode outside the lock
      in_memory = true;
      ++hits_;
    }
  }
  if (in_memory) {
    unpack(packed.values, *packed.names, out);
    return true;
  }
  if (!dir_.empty()) {
    std::ifstream in(entry_path(key));
    if (in) {
      std::ostringstream buf;
      buf << in.rdbuf();
      Entry e;
      if (from_json(buf.str(), key, salt_, &e)) {
        store(key, e);
        {
          common::MutexLock lock(mu_);
          ++hits_;
          ++disk_hits_;
        }
        *out = std::move(e);
        return true;
      }
      // Corrupt / stale file: fall through to a miss; the fresh result
      // overwrites it on insert.
    }
  }
  common::MutexLock lock(mu_);
  ++misses_;
  return false;
}

void ResultCache::write_disk_entry(std::uint64_t key,
                                   const Entry& entry) const {
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
  // Write-then-rename so a concurrent reader never sees a partial file.
  const std::string path = entry_path(key);
  const std::string tmp = path + ".tmp";
  std::ofstream os(tmp, std::ios::trunc);
  if (os) {
    os << to_json(key, salt_, entry);
    os.close();
    if (os) {
      std::filesystem::rename(tmp, path, ec);
    }
    if (ec) std::filesystem::remove(tmp, ec);
  }
}

void ResultCache::insert(std::uint64_t key, const Entry& entry) {
  // Neither tier stores the host-dependent per-kind seconds: to_json and
  // the packer write only the counts.
  if (!dir_.empty()) {
    // All writers share the "<path>.tmp" scratch name; concurrent inserts
    // of the same key must not interleave bytes in it (see disk_mu_).
    common::MutexLock lock(disk_mu_);
    write_disk_entry(key, entry);
  }
  store(key, entry);
}

std::uint64_t ResultCache::hits() const {
  common::MutexLock lock(mu_);
  return hits_;
}

std::uint64_t ResultCache::misses() const {
  common::MutexLock lock(mu_);
  return misses_;
}

std::uint64_t ResultCache::disk_hits() const {
  common::MutexLock lock(mu_);
  return disk_hits_;
}

std::size_t ResultCache::size() const {
  common::MutexLock lock(mu_);
  return memory_.size();
}

}  // namespace ara::dse
