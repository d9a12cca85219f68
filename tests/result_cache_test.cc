// Tests for the content-addressed sweep result cache: key scheme and
// invalidation, the in-process and on-disk tiers, bit-exact round-trips
// (doubles included), corrupt-file tolerance, and the cached-vs-fresh
// determinism contract through dse::run().
#include <gtest/gtest.h>

#include <atomic>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/arch_config.h"
#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "obs/json_io.h"
#include "workloads/registry.h"

namespace ara::dse {
namespace {

workloads::Workload test_workload(double scale = 0.03) {
  return workloads::make_benchmark("Denoise", scale);
}

// Fresh per-test scratch directory under gtest's temp root.
std::string scratch_dir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "ara_cache_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

// Run one design point through dse::run and return its SweepResult.
SweepResult run_one(const core::ArchConfig& cfg, const workloads::Workload& wl,
                    ResultCache* cache = nullptr) {
  auto results = run(SweepRequest{}.add(cfg, wl).with_cache(cache));
  return std::move(results.front());
}

std::string exact_metrics(const obs::MetricsSnapshot& snap) {
  std::ostringstream os;
  obs::MetricsExporter::write_snapshot_exact(os, snap);
  return os.str();
}

TEST(ResultCacheKey, StableForIdenticalInputs) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  EXPECT_EQ(ResultCache::key(cfg, wl), ResultCache::key(cfg, wl));
  // A value-identical copy hashes the same: content, not identity.
  const core::ArchConfig cfg2 = cfg;
  const workloads::Workload wl2 = wl;
  EXPECT_EQ(ResultCache::key(cfg, wl), ResultCache::key(cfg2, wl2));
}

TEST(ResultCacheKey, ConfigChangeChangesKey) {
  const auto wl = test_workload();
  const auto base = core::ArchConfig::paper_baseline(6);
  EXPECT_NE(ResultCache::key(base, wl),
            ResultCache::key(core::ArchConfig::paper_baseline(12), wl));

  core::ArchConfig tweaked = base;
  tweaked.island.net.link_bytes *= 2;
  EXPECT_NE(ResultCache::key(base, wl), ResultCache::key(tweaked, wl));
}

TEST(ResultCacheKey, WorkloadChangeChangesKey) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  EXPECT_NE(ResultCache::key(cfg, test_workload(0.03)),
            ResultCache::key(cfg, test_workload(0.05)));
  EXPECT_NE(ResultCache::key(cfg, test_workload()),
            ResultCache::key(cfg, workloads::make_benchmark("EKF-SLAM", 0.03)));
}

TEST(ResultCacheKey, SaltChangeChangesKey) {
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  EXPECT_NE(ResultCache::key(cfg, wl, kSimVersionSalt),
            ResultCache::key(cfg, wl, kSimVersionSalt + 1));
}

TEST(ResultCache, MemoryTierHitRestoresEntry) {
  ResultCache cache;
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const auto fresh = run_one(cfg, wl);

  const std::uint64_t k = ResultCache::key(cfg, wl);
  ResultCache::Entry miss;
  EXPECT_FALSE(cache.lookup(k, &miss));
  EXPECT_EQ(cache.misses(), 1u);

  ResultCache::Entry entry;
  entry.result = fresh.result;
  entry.metrics = fresh.metrics;
  entry.events = fresh.events;
  entry.event_kinds = fresh.event_kinds;
  cache.insert(k, entry);
  EXPECT_EQ(cache.size(), 1u);

  ResultCache::Entry hit;
  ASSERT_TRUE(cache.lookup(k, &hit));
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);  // memory-only cache
  EXPECT_EQ(hit.result, fresh.result);
  EXPECT_EQ(hit.events, fresh.events);
  EXPECT_EQ(exact_metrics(hit.metrics), exact_metrics(fresh.metrics));
}

TEST(ResultCache, DiskTierRoundTripsBitExactly) {
  const std::string dir = scratch_dir("disk_roundtrip");
  const auto cfg = core::ArchConfig::paper_baseline(6);
  const auto wl = test_workload();
  const std::uint64_t k = ResultCache::key(cfg, wl);
  const auto fresh = run_one(cfg, wl);

  {
    ResultCache writer(dir);
    ResultCache::Entry entry;
    entry.result = fresh.result;
    entry.metrics = fresh.metrics;
    entry.events = fresh.events;
    entry.event_kinds = fresh.event_kinds;
    writer.insert(k, entry);
    ASSERT_TRUE(std::filesystem::exists(writer.entry_path(k)));
  }

  // A brand-new cache over the same directory: nothing in memory, so the
  // hit must come from disk — and restore every field bit-exactly,
  // including all the double-valued energy/area/latency numbers.
  ResultCache reader(dir);
  ResultCache::Entry hit;
  ASSERT_TRUE(reader.lookup(k, &hit));
  EXPECT_EQ(reader.disk_hits(), 1u);
  EXPECT_EQ(hit.result, fresh.result);  // operator== is exact equality
  EXPECT_EQ(hit.events, fresh.events);
  EXPECT_EQ(exact_metrics(hit.metrics), exact_metrics(fresh.metrics));
  for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
    EXPECT_EQ(hit.event_kinds[i].count, fresh.event_kinds[i].count);
    // Host wall-clock never round-trips through the cache.
    EXPECT_EQ(hit.event_kinds[i].seconds, 0.0);
  }

  // A disk hit is promoted: a second lookup is served from memory.
  ResultCache::Entry again;
  ASSERT_TRUE(reader.lookup(k, &again));
  EXPECT_EQ(reader.disk_hits(), 1u);
  EXPECT_EQ(reader.hits(), 2u);
}

TEST(ResultCache, EntryJsonIsStrictlyValid) {
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const auto fresh = run_one(cfg, wl);
  ResultCache::Entry entry;
  entry.result = fresh.result;
  entry.metrics = fresh.metrics;
  entry.events = fresh.events;

  const std::uint64_t k = ResultCache::key(cfg, wl);
  const std::string text = ResultCache::to_json(k, kSimVersionSalt, entry);
  std::string error;
  EXPECT_TRUE(obs::validate_json(text, &error)) << error;

  ResultCache::Entry parsed;
  ASSERT_TRUE(ResultCache::from_json(text, k, kSimVersionSalt, &parsed));
  EXPECT_EQ(parsed.result, entry.result);
  EXPECT_EQ(parsed.events, entry.events);
  EXPECT_EQ(exact_metrics(parsed.metrics), exact_metrics(entry.metrics));
}

TEST(ResultCache, FromJsonRejectsKeyOrSaltMismatch) {
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  ResultCache::Entry entry;
  entry.result = run_one(cfg, wl).result;

  const std::uint64_t k = ResultCache::key(cfg, wl);
  const std::string text = ResultCache::to_json(k, kSimVersionSalt, entry);
  ResultCache::Entry out;
  EXPECT_FALSE(ResultCache::from_json(text, k + 1, kSimVersionSalt, &out));
  EXPECT_FALSE(ResultCache::from_json(text, k, kSimVersionSalt + 1, &out));
  EXPECT_TRUE(ResultCache::from_json(text, k, kSimVersionSalt, &out));
}

TEST(ResultCache, CorruptDiskFilesAreMissesNotErrors) {
  const std::string dir = scratch_dir("corrupt");
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const auto wl = test_workload();
  const std::uint64_t k = ResultCache::key(cfg, wl);

  ResultCache cache(dir);
  std::filesystem::create_directories(dir);

  // Truncated JSON, non-JSON garbage, and valid-JSON-wrong-shape must all
  // read as clean misses.
  for (const char* junk :
       {"{\"key\":\"", "not json at all \x01", "[1,2,3]", "{}"}) {
    {
      std::ofstream os(cache.entry_path(k), std::ios::trunc);
      os << junk;
    }
    ResultCache::Entry out;
    EXPECT_FALSE(cache.lookup(k, &out)) << "junk: " << junk;
  }
  // And insert() after a corrupt read repairs the file.
  ResultCache::Entry entry;
  entry.result = run_one(cfg, wl).result;
  cache.insert(k, entry);
  ResultCache reader(dir);
  ResultCache::Entry out;
  EXPECT_TRUE(reader.lookup(k, &out));
  EXPECT_EQ(out.result, entry.result);
}

// Determinism A/B: a cache-served sweep must be bit-identical to a fresh
// one at every worker count, and the second pass must be entirely hits.
TEST(ResultCache, CachedSweepBitIdenticalToFreshAcrossJobCounts) {
  const auto wl = test_workload();
  const auto points = paper_network_configs(6);

  // Fresh reference, no cache.
  const auto fresh = run(SweepRequest{}.add_points(points, wl));

  for (unsigned jobs : {1u, 2u, 8u}) {
    ResultCache cache;
    const auto first = run(
        SweepRequest{}.add_points(points, wl).with_jobs(jobs).with_cache(
            &cache));
    ASSERT_EQ(first.size(), fresh.size()) << "jobs=" << jobs;
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_FALSE(first[i].from_cache);
      EXPECT_EQ(first[i].result, fresh[i].result)
          << "jobs=" << jobs << " point " << i << " (cold pass)";
    }
    EXPECT_EQ(cache.size(), points.size());

    const auto warm = run(
        SweepRequest{}.add_points(points, wl).with_jobs(jobs).with_cache(
            &cache));
    ASSERT_EQ(warm.size(), fresh.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      EXPECT_TRUE(warm[i].from_cache)
          << "jobs=" << jobs << " point " << i << " missed a warm cache";
      EXPECT_EQ(warm[i].result, fresh[i].result)
          << "jobs=" << jobs << " point " << i << " (warm pass)";
      EXPECT_EQ(warm[i].events, fresh[i].events);
      EXPECT_EQ(exact_metrics(warm[i].metrics),
                exact_metrics(fresh[i].metrics));
    }
  }
}

// Invalidation through the sweep driver: changing the config or the salt
// must miss; re-running the identical request must hit.
TEST(ResultCache, SweepInvalidationOnConfigOrSaltChange) {
  const auto wl = test_workload();
  ResultCache cache;
  const auto cfg6 = core::ArchConfig::paper_baseline(6);
  const auto cfg12 = core::ArchConfig::paper_baseline(12);

  auto r1 = run_one(cfg6, wl, &cache);
  EXPECT_FALSE(r1.from_cache);
  auto r2 = run_one(cfg6, wl, &cache);
  EXPECT_TRUE(r2.from_cache);
  EXPECT_EQ(r1.result, r2.result);

  // Different config: miss, then its own entry.
  auto r3 = run_one(cfg12, wl, &cache);
  EXPECT_FALSE(r3.from_cache);
  EXPECT_EQ(cache.size(), 2u);

  // A cache constructed under a different salt never sees the old entries
  // on disk; in memory the tiers are distinct instances anyway — assert at
  // the key level, where the salt is folded in.
  EXPECT_NE(ResultCache::key(cfg6, wl, kSimVersionSalt),
            ResultCache::key(cfg6, wl, kSimVersionSalt + 1));
  const std::string dir = scratch_dir("salt");
  {
    ResultCache writer(dir);
    ResultCache::Entry entry;
    entry.result = r1.result;
    writer.insert(ResultCache::key(cfg6, wl, writer.salt()), entry);
  }
  ResultCache stale(dir, kSimVersionSalt + 1);
  ResultCache::Entry out;
  EXPECT_FALSE(stale.lookup(ResultCache::key(cfg6, wl, stale.salt()), &out));
}

// Regression: the on-disk tier used to write every insert through one
// shared "<path>.tmp" scratch file with no lock — two workers inserting
// the same key could interleave bytes and rename a corrupt file into
// place. Writers are now serialized (disk_mu_), so hammering one key from
// many threads must leave exactly one strictly-valid, bit-exact entry.
TEST(ResultCache, ConcurrentSameKeyDiskInsertsStayWellFormed) {
  const auto wl = test_workload();
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const std::string dir = scratch_dir("concurrent_insert");

  ResultCache::Entry entry;
  {
    const SweepResult fresh = run_one(cfg, wl);
    entry.result = fresh.result;
    entry.metrics = fresh.metrics;
    entry.events = fresh.events;
    entry.event_kinds = fresh.event_kinds;
  }

  ResultCache cache(dir);
  const std::uint64_t key = ResultCache::key(cfg, wl, cache.salt());
  constexpr int kThreads = 8;
  constexpr int kInsertsPerThread = 25;
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (int i = 0; i < kInsertsPerThread; ++i) cache.insert(key, entry);
    });
  }
  for (auto& th : writers) th.join();

  // Exactly one file, no stray scratch leftovers, strictly valid JSON.
  int files = 0;
  for (const auto& f : std::filesystem::directory_iterator(dir)) {
    ++files;
    EXPECT_EQ(f.path().extension(), ".json") << f.path();
    std::ifstream in(f.path());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_TRUE(obs::validate_json(buf.str())) << f.path();
  }
  EXPECT_EQ(files, 1);

  // A fresh cache over the same directory restores the entry bit-exactly.
  ResultCache reader(dir);
  ResultCache::Entry out;
  ASSERT_TRUE(reader.lookup(key, &out));
  EXPECT_EQ(out.result, entry.result);
  EXPECT_EQ(out.events, entry.events);
  EXPECT_EQ(exact_metrics(out.metrics), exact_metrics(entry.metrics));
  EXPECT_EQ(reader.disk_hits(), 1u);
}

// Regression: hits()/misses()/disk_hits()/size() used to read their
// counters without taking the lock, racing with sweep workers mutating
// the cache. They now lock, so a reporter may sample mid-run and the
// totals must reconcile exactly once the workers finish.
TEST(ResultCache, TelemetryAccountsEveryLookupUnderConcurrency) {
  ResultCache cache;  // memory tier only
  const auto wl = test_workload();
  const auto cfg = core::ArchConfig::paper_baseline(3);
  const std::uint64_t key = ResultCache::key(cfg, wl, cache.salt());

  ResultCache::Entry entry;
  entry.events = 7;

  constexpr int kThreads = 6;
  constexpr int kLookupsPerThread = 200;
  std::atomic<bool> stop{false};
  std::thread sampler([&] {
    while (!stop.load()) {
      (void)cache.hits();
      (void)cache.misses();
      (void)cache.disk_hits();
      (void)cache.size();
    }
  });
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&] {
      for (int i = 0; i < kLookupsPerThread; ++i) {
        ResultCache::Entry out;
        if (!cache.lookup(key, &out)) cache.insert(key, entry);
      }
    });
  }
  for (auto& th : workers) th.join();
  stop.store(true);
  sampler.join();

  EXPECT_EQ(cache.hits() + cache.misses(),
            static_cast<std::uint64_t>(kThreads) * kLookupsPerThread);
  EXPECT_EQ(cache.size(), 1u);
  EXPECT_EQ(cache.disk_hits(), 0u);
  EXPECT_GE(cache.hits(), 1u);
}

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Every numeric field of an entry, doubles as raw bits, in one flat list:
// equal lists mean bit-identical entries (NaN payloads and zero signs
// included, which operator== cannot see). Names and strings go in `text`.
std::vector<std::uint64_t> raw_fields(const ResultCache::Entry& entry,
                                      std::vector<std::string>* text) {
  const auto& r = entry.result;
  const auto& e = r.energy;
  const auto& a = r.area;
  std::vector<std::uint64_t> out = {
      r.makespan, r.jobs, bits(e.abb_j), bits(e.spm_j),
      bits(e.abb_spm_xbar_j), bits(e.island_net_j), bits(e.dma_j),
      bits(e.noc_j), bits(e.l2_j), bits(e.dram_j), bits(e.mono_j),
      bits(e.leakage_j), bits(e.platform_j), bits(a.islands_mm2),
      bits(a.noc_mm2), bits(a.l2_mm2), bits(a.mc_mm2),
      bits(r.avg_abb_utilization), bits(r.peak_abb_utilization),
      bits(r.l2_hit_rate), r.dram_bytes, r.chains_direct, r.chains_spilled,
      r.tasks_queued, bits(r.noc_peak_link_utilization),
      bits(r.job_latency_mean), r.job_latency_p50, r.job_latency_p95,
      r.job_latency_max, entry.events};
  text->push_back(r.workload);
  text->push_back(r.config);
  for (const auto& k : entry.event_kinds) {
    out.push_back(k.count);
    out.push_back(bits(k.seconds));
  }
  const auto& m = entry.metrics;
  out.push_back(m.counters.size());
  for (const auto& c : m.counters) {
    text->push_back(c.name);
    out.push_back(c.value);
  }
  out.push_back(m.accumulators.size());
  for (const auto& c : m.accumulators) {
    text->push_back(c.name);
    out.insert(out.end(), {bits(c.sum), c.count, bits(c.mean), bits(c.min),
                           bits(c.max)});
  }
  out.push_back(m.histograms.size());
  for (const auto& h : m.histograms) {
    text->push_back(h.name);
    out.insert(out.end(), {h.count, bits(h.mean), h.min, h.max, h.p50, h.p95,
                           h.p99, h.bucket_width, h.buckets.size()});
    out.insert(out.end(), h.buckets.begin(), h.buckets.end());
  }
  return out;
}

// insert then lookup through a memory-only cache; the hit must equal
// `entry` field for field and serialize to the same bytes.
void expect_memory_round_trip(const ResultCache::Entry& entry) {
  ResultCache cache;
  const std::uint64_t k = 0x5eed;
  cache.insert(k, entry);
  ResultCache::Entry hit;
  ASSERT_TRUE(cache.lookup(k, &hit));
  std::vector<std::string> want_text, got_text;
  ResultCache::Entry want = entry;
  for (auto& kind : want.event_kinds) kind.seconds = 0;  // never cached
  EXPECT_EQ(raw_fields(hit, &got_text), raw_fields(want, &want_text));
  EXPECT_EQ(got_text, want_text);
  EXPECT_EQ(ResultCache::to_json(k, kSimVersionSalt, hit),
            ResultCache::to_json(k, kSimVersionSalt, entry));
}

TEST(ResultCache, PackedMemoryTierRoundTripsRingProxyAndChainDesigns) {
  const auto wl = test_workload();
  for (const std::uint32_t islands : {3u, 24u}) {
    core::ArchConfig chain = core::ArchConfig::paper_baseline(islands);
    chain.island.net.topology = island::SpmDmaTopology::kChainingXbar;
    for (const core::ArchConfig& cfg :
         {core::ArchConfig::ring_design(islands, 2, 32),
          core::ArchConfig::paper_baseline(islands), chain}) {
      SCOPED_TRACE(cfg.summary());
      const SweepResult fresh = run_one(cfg, wl);
      ResultCache::Entry entry;
      entry.result = fresh.result;
      entry.metrics = fresh.metrics;
      entry.events = fresh.events;
      entry.event_kinds = fresh.event_kinds;
      ASSERT_FALSE(entry.metrics.histograms.empty());
      expect_memory_round_trip(entry);
    }
  }
}

TEST(ResultCache, PackedMemoryTierKeepsSpecialValuesBitExact) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double denorm = std::numeric_limits<double>::denorm_min();
  const std::uint64_t big = (std::uint64_t{1} << 63) + 12345;
  ResultCache::Entry e;
  e.result.workload = std::string("nul\0byte\xff", 9);
  e.result.config = "";
  e.result.makespan = ~std::uint64_t{0};
  e.result.jobs = big;
  e.result.energy.abb_j = -0.0;
  e.result.energy.spm_j = 0.0;
  e.result.energy.dma_j = nan;
  e.result.energy.noc_j = -nan;
  e.result.energy.l2_j = std::bit_cast<double>(0x7ff4000000000abcull);
  e.result.energy.dram_j = denorm;
  e.result.energy.mono_j = -denorm * 3;
  e.result.area.mc_mm2 = std::numeric_limits<double>::infinity();
  e.result.l2_hit_rate = std::numeric_limits<double>::max();
  e.result.dram_bytes = big;
  e.result.job_latency_p95 = std::uint64_t{1} << 63;
  e.events = big;
  for (std::size_t i = 0; i < sim::kNumEventKinds; ++i) {
    e.event_kinds[i].count = big + i;
    e.event_kinds[i].seconds = 1.5;  // host-dependent: comes back 0
  }
  e.metrics.counters = {{"a", 0}, {"b", 127}, {"c", 128}, {"d", big}};
  e.metrics.accumulators = {{"acc", nan, big, -0.0, denorm, -nan}};
  obs::HistogramSample h;
  h.name = "h";
  h.count = big;
  h.mean = -0.0;
  h.min = 0;
  h.max = ~std::uint64_t{0};
  h.p99 = std::uint64_t{1} << 63;
  h.bucket_width = 16;
  h.buckets = {0, 1, 0x7f, 0x80, 0x3fff, 0x4000, big, ~std::uint64_t{0}};
  e.metrics.histograms = {h, obs::HistogramSample{}};
  expect_memory_round_trip(e);
}

TEST(ResultCache, SharedNameListsKeepEachEntrysOwnNames) {
  // The memory tier shares one stat-name list among entries of the same
  // shape; entries with other names, or the same names split differently
  // across stat kinds, must still come back exactly as inserted.
  auto entry = [](std::vector<obs::CounterSample> counters,
                  std::vector<obs::AccumulatorSample> accumulators,
                  std::uint64_t events) {
    ResultCache::Entry e;
    e.result.workload = "w" + std::to_string(events);
    e.events = events;
    e.metrics.counters = std::move(counters);
    e.metrics.accumulators = std::move(accumulators);
    return e;
  };
  const std::vector<ResultCache::Entry> entries = {
      entry({{"x", 1}, {"y", 2}}, {}, 1),
      entry({{"x", 3}, {"y", 4}}, {}, 2),      // same names: shares a list
      entry({{"x", 5}, {"z", 6}}, {}, 3),      // same size, other names
      entry({{"x", 7}}, {{"y", 0.5, 1, 0.5, 0.5, 0.5}}, 4),  // other split
      entry({{"xy", 8}}, {}, 5),
      entry({}, {}, 6)};
  ResultCache cache;
  for (std::size_t i = 0; i < entries.size(); ++i) {
    cache.insert(100 + i, entries[i]);
  }
  cache.insert(100, entries[0]);  // overwriting keeps the entry whole
  for (std::size_t i = 0; i < entries.size(); ++i) {
    ResultCache::Entry hit;
    ASSERT_TRUE(cache.lookup(100 + i, &hit));
    EXPECT_EQ(ResultCache::to_json(100 + i, kSimVersionSalt, hit),
              ResultCache::to_json(100 + i, kSimVersionSalt, entries[i]));
  }
}

TEST(ConfigDigest, CanonicalTextCoversConfigFields) {
  const auto base = core::ArchConfig::paper_baseline(6);
  core::ArchConfig tweaked = base;
  tweaked.island.spm_sharing = !tweaked.island.spm_sharing;
  EXPECT_NE(core::canonical_text(base), core::canonical_text(tweaked));
  EXPECT_EQ(core::canonical_text(base), core::canonical_text(base));
  // The digest text embeds section headers, so hashes can't collide by
  // field-order coincidence across sections.
  EXPECT_NE(core::canonical_text(base).find("[arch]"), std::string::npos);
}

}  // namespace
}  // namespace ara::dse
