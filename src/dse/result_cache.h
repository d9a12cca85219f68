// Content-addressed memoization of sweep-point results.
//
// A design-space sweep re-simulates many (ArchConfig, Workload) pairs that
// earlier sweeps — or earlier points of the same sweep — already ran. Every
// point is a pure function of its configuration and workload, so its
// RunResult and MetricsSnapshot can be memoized by content: the cache key is
// an FNV-1a hash of core::canonical_text(config) + canonical_text(workload)
// + a simulator version salt (kSimVersionSalt, bumped whenever simulation
// semantics change so stale entries miss instead of lying).
//
// Two tiers:
//  - in-process: always on, mutex-protected; each entry is stored once as
//    a packed byte string (LEB128 integers, raw 8-byte doubles, no per-kind
//    seconds), a fraction of a decoded Entry's heap, plus a pointer to its
//    snapshot's stat-name list, which every entry of the same snapshot
//    shape shares (the names are over half of a packed entry); lookup()
//    decodes it;
//  - on-disk (optional, `--cache DIR` / ARA_CACHE): one JSON file per key,
//    written with 17-significant-digit doubles so RunResult round-trips
//    bit-exactly (asserted by tests/result_cache_test.cc). Files are
//    parsed with the strict obs::parse_json on load; corrupt or truncated
//    files are treated as misses, never as errors.
//
// Host-dependent observability (wall seconds, self-profile seconds) is NOT
// cached — a hit restores the deterministic fields (result, metrics, event
// count, per-kind dispatch counts) and reports wall_seconds = 0.
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "core/arch_config.h"
#include "core/run_result.h"
#include "obs/metrics_export.h"
#include "sim/event_queue.h"
#include "workloads/workload.h"

namespace ara::dse {

/// Simulator version salt folded into every cache key. Bump when any change
/// alters simulation results (event ordering, cost models, config
/// defaults); on-disk entries written under the old salt then miss cleanly.
/// 3 -> 4: Histogram::percentile now reports bucket midpoints (affects
/// job_latency_p50/p95 in RunResult) and serialized histogram samples
/// carry a "min" field — both change entry bytes.
/// 4 -> 5: MetricsSnapshot gained six partitioned-kernel counters,
/// changing entry bytes.
/// 5 -> 6: the partitioned kernel and its six counters were removed;
/// simulation results are unchanged, but entry bytes lose those counters.
inline constexpr std::uint64_t kSimVersionSalt = 6;

class ResultCache {
 public:
  /// Per-kind dispatch counts (and host seconds) of a point.
  using EventKinds = std::array<sim::EventKindStats, sim::kNumEventKinds>;

  /// The deterministic portion of a sweep point's outcome.
  struct Entry {
    core::RunResult result;
    obs::MetricsSnapshot metrics;
    /// Events the point's Simulator executed (deterministic).
    std::uint64_t events = 0;
    /// Per-kind dispatch counts. Seconds are host wall-clock and are not
    /// stored — a hit reports them as 0.
    EventKinds event_kinds{};
  };

  /// In-process tier only.
  ResultCache() = default;
  /// Adds the on-disk tier rooted at `dir` (created on first store). An
  /// empty dir means memory-only.
  explicit ResultCache(std::string dir, std::uint64_t salt = kSimVersionSalt);

  /// Content hash of a design point under `salt`.
  static std::uint64_t key(const core::ArchConfig& config,
                           const workloads::Workload& workload,
                           std::uint64_t salt = kSimVersionSalt);

  /// Probe memory then disk. A disk hit is promoted into the memory tier.
  bool lookup(std::uint64_t key, Entry* out) ARA_EXCLUDES(mu_, disk_mu_);

  /// Store in memory and (when configured) on disk. Overwrites.
  void insert(std::uint64_t key, const Entry& entry)
      ARA_EXCLUDES(mu_, disk_mu_);

  const std::string& dir() const { return dir_; }
  std::uint64_t salt() const { return salt_; }

  // --- telemetry (each reads its counter under the lock: parallel sweep
  // workers may be mutating the cache while a reporter samples it) ---
  std::uint64_t hits() const ARA_EXCLUDES(mu_);
  std::uint64_t misses() const ARA_EXCLUDES(mu_);
  /// Subset of hits() served by reading a disk file.
  std::uint64_t disk_hits() const ARA_EXCLUDES(mu_);
  std::size_t size() const ARA_EXCLUDES(mu_);

  /// Append an entry, given by its parts, as one JSON object (exact
  /// precision, no trailing newline). `key`/`salt` are embedded for
  /// validation on load. Taking the parts lets the serve protocol write a
  /// SweepResult straight into its response without building an Entry.
  static void append_json(std::string& out, std::uint64_t key,
                          std::uint64_t salt, const core::RunResult& result,
                          const obs::MetricsSnapshot& metrics,
                          std::uint64_t events, const EventKinds& event_kinds);
  /// append_json of `entry` plus a trailing newline: the bytes of an
  /// on-disk entry file.
  static std::string to_json(std::uint64_t key, std::uint64_t salt,
                             const Entry& entry);
  /// Inverse of to_json. False on malformed JSON, wrong shape, or a
  /// key/salt mismatch.
  static bool from_json(const std::string& text, std::uint64_t key,
                        std::uint64_t salt, Entry* out);

  /// "<dir>/<16-hex-digit-key>.json".
  std::string entry_path(std::uint64_t key) const;

 private:
  /// Serialize one entry to `entry_path(key)` via tmp + rename.
  void write_disk_entry(std::uint64_t key, const Entry& entry) const
      ARA_REQUIRES(disk_mu_);

  // Immutable after construction (safe to read without a lock).
  std::string dir_;
  std::uint64_t salt_ = kSimVersionSalt;

  /// Every stat name of a snapshot in packing order (counters, then
  /// accumulators, then histograms).
  using NameList = std::shared_ptr<const std::vector<std::string>>;
  /// One memory-tier entry: the name list it shares with every entry of
  /// the same snapshot shape, and everything else packed (format private
  /// to result_cache.cc).
  struct Packed {
    NameList names;
    std::string values;
  };
  /// Pack `entry` into the memory tier under `key`, sharing the interned
  /// name list equal to its stat names (interning a copy when new).
  void store(std::uint64_t key, const Entry& entry) ARA_EXCLUDES(mu_);

  mutable common::Mutex mu_;
  std::unordered_map<std::uint64_t, Packed> memory_ ARA_GUARDED_BY(mu_);
  /// Interned name lists by content hash. A list whose hash is taken by
  /// a different list (a collision) is kept by its entry alone.
  std::unordered_map<std::uint64_t, NameList> name_lists_
      ARA_GUARDED_BY(mu_);
  std::uint64_t hits_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ ARA_GUARDED_BY(mu_) = 0;
  std::uint64_t disk_hits_ ARA_GUARDED_BY(mu_) = 0;

  /// Guards the on-disk tier's tmp-file protocol. Every writer of a given
  /// cache uses the same "<path>.tmp" scratch name, so two concurrent
  /// insert()s of one key would interleave bytes in the tmp file and then
  /// rename the corrupted result into place; serializing writers (but not
  /// readers — rename is atomic, so lookups may race with it freely) keeps
  /// every published file well-formed. Separate from mu_ so file I/O never
  /// blocks the in-memory fast path.
  mutable common::Mutex disk_mu_;
};

}  // namespace ara::dse
