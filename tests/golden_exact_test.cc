// Exact output pins: the FNV-1a 64 of the bytes every JSON emitter writes
// for fixed inputs. tests/golden_test.cc checks the paper's numbers within
// bands; this file checks that the bytes themselves do not move. Ten
// design points (all seven benchmarks at scale 0.015, mixed island counts
// and network kinds) pin ResultCache::to_json, which embeds the cache key
// (so core::canonical_text too) and the exact-precision MetricsSnapshot;
// a two-point serve sweep_response pins the wire envelope; hand-built
// inputs pin the display-precision snapshot, the search response, the
// stats/error frames and one request-log line.
//
// A pin that moves means an output byte changed. That is only right when
// simulation semantics changed on purpose, which also bumps
// kSimVersionSalt (checked first below); regenerate the pins then by
// reading the actual values off a failing run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/config_digest.h"
#include "dse/result_cache.h"
#include "dse/search.h"
#include "dse/spec.h"
#include "dse/sweep.h"
#include "obs/metrics_export.h"
#include "obs/request_log.h"
#include "obs/span.h"
#include "serve/protocol.h"
#include "workloads/registry.h"

namespace ara {
namespace {

constexpr double kScale = 0.015;

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "0x%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

struct Pin {
  const char* benchmark;
  dse::PointSpec spec;
  std::uint64_t digest;  // fnv1a64 of ResultCache::to_json
};

dse::PointSpec spec(std::uint32_t islands, const char* net,
                    std::uint32_t rings, std::uint64_t width,
                    std::uint32_t ports = 1, bool sharing = false,
                    bool mono = false, const char* policy = "fifo") {
  dse::PointSpec s;
  s.islands = islands;
  s.net = net;
  s.rings = rings;
  s.link_bytes = width;
  s.ports = ports;
  s.sharing = sharing;
  s.mono = mono;
  s.policy = policy;
  return s;
}

const std::vector<Pin>& pins() {
  static const std::vector<Pin> table = {
      {"Deblur", spec(3, "proxy", 1, 32), 0x22c023c98c36ea21ull},
      {"Denoise", spec(6, "ring", 1, 16), 0x7ce47879f14844e9ull},
      {"Segmentation", spec(12, "ring", 2, 32, 2), 0xf5d718b1c537c4a1ull},
      {"Registration", spec(24, "ring", 3, 32), 0x8637c6c05d07a0d7ull},
      {"RobotLocalization", spec(6, "chain", 2, 32, 1, true),
       0xc7c034f99c231530ull},
      {"EKF-SLAM", spec(24, "proxy", 1, 32, 1, false, false, "sjf"),
       0x776efc5aaddb5ac9ull},
      {"DisparityMap", spec(3, "ring", 2, 64, 1, false, false, "ljf"),
       0x7412d927fb9dc557ull},
      {"Denoise", spec(24, "chain", 2, 32, 2, true), 0x42b9b19cfa340361ull},
      {"EKF-SLAM", spec(12, "ring", 1, 32, 1, false, true),
       0xe7052765c5bec343ull},
      {"Deblur", spec(6, "ring", 2, 32, 1, true, false, "sjf"),
       0x83d7edf1c41d67cbull},
  };
  return table;
}

struct Ran {
  std::uint64_t key = 0;
  dse::SweepResult result;
};

Ran run_point(const std::string& benchmark, const dse::PointSpec& s) {
  const workloads::Workload w = workloads::make_benchmark(benchmark, kScale);
  core::ArchConfig config = s.to_config();
  config.validate();
  Ran ran;
  ran.key = dse::ResultCache::key(config, w);
  ran.result = std::move(dse::run(dse::SweepRequest{}.add(config, w)).at(0));
  return ran;
}

dse::ResultCache::Entry entry_of(const dse::SweepResult& r) {
  dse::ResultCache::Entry e;
  e.result = r.result;
  e.metrics = r.metrics;
  e.events = r.events;
  e.event_kinds = r.event_kinds;
  return e;
}

TEST(GoldenExact, SaltIsTheOnePinnedHere) {
  // Every digest below was taken under this salt; a bump regenerates them.
  EXPECT_EQ(dse::kSimVersionSalt, 6u);
}

TEST(GoldenExact, CacheEntryBytesOfTenPoints) {
  for (const Pin& pin : pins()) {
    const Ran ran = run_point(pin.benchmark, pin.spec);
    const std::string json = dse::ResultCache::to_json(
        ran.key, dse::kSimVersionSalt, entry_of(ran.result));
    EXPECT_EQ(hex(core::fnv1a64(json)), hex(pin.digest))
        << pin.benchmark << " " << pin.spec.label() << " ("
        << json.size() << " bytes)";
  }
}

TEST(GoldenExact, SweepResponseOfTwoPoints) {
  Ran a = run_point("Denoise", spec(3, "ring", 2, 32));
  Ran b = run_point("Denoise", spec(6, "proxy", 1, 32, 1, false, false,
                                    "ljf"));
  // Host-dependent fields set to fixed values, so the envelope is pinned
  // along with the entries.
  a.result.wall_seconds = 0.1 + 0.2;
  a.result.from_cache = false;
  a.result.coalesced = false;
  b.result.wall_seconds = 0;
  b.result.from_cache = true;
  b.result.coalesced = false;
  std::vector<dse::SweepResult> results;
  results.push_back(std::move(a.result));
  results.push_back(std::move(b.result));
  const std::string response = serve::protocol::sweep_response(
      std::move(results), {a.key, b.key}, dse::kSimVersionSalt, 4242);
  EXPECT_EQ(hex(core::fnv1a64(response)), hex(0x3a7050ba25016d65ull))
      << response.size() << " bytes";
}

obs::MetricsSnapshot odd_snapshot() {
  obs::MetricsSnapshot s;
  s.counters = {{"a.count", 0}, {"b.\"quoted\"\n", 18446744073709551615ull}};
  s.accumulators = {{"acc.tiny", 5e-324, 3, 1.0 / 3.0, -0.0, 1e300},
                    {"acc.round", 0.1, 1, 123456789012.345678, 2.5, 1e21}};
  obs::HistogramSample h;
  h.name = "hist.\x01\x1f";
  h.count = 9;
  h.mean = 2.0 / 3.0;
  h.min = 1;
  h.max = 1u << 31;
  h.p50 = 2;
  h.p95 = 7;
  h.p99 = 8;
  h.bucket_width = 4;
  h.buckets = {0, 5, 4, 0};
  s.histograms = {h};
  return s;
}

TEST(GoldenExact, SnapshotWritersAtBothPrecisions) {
  const obs::MetricsSnapshot s = odd_snapshot();
  std::ostringstream display;
  obs::MetricsExporter::write_json(display, s);
  std::ostringstream exact;
  obs::MetricsExporter::write_snapshot_exact(exact, s);
  EXPECT_EQ(hex(core::fnv1a64(display.str())), hex(0x017faa7115295004ull))
      << display.str();
  EXPECT_EQ(hex(core::fnv1a64(exact.str())), hex(0x633c4948341e3937ull))
      << exact.str();
  EXPECT_EQ(hex(core::fnv1a64(serve::protocol::stats_response(s))),
            hex(0x817c5ced8e970d8aull));
}

TEST(GoldenExact, SearchErrorAndLogFrames) {
  dse::SearchResult r;
  r.workload = "EKF-SLAM";
  r.scale = 0.07;
  r.objective = dse::Objective::kPerfPerArea;
  r.budget = 12;
  r.seed = 3;
  r.space_size = 96;
  r.evaluated = 11;
  r.stages = {{"sample", 0.25, 8, 3}, {"refine", 1, 3, 1}};
  r.best.spec = spec(12, "ring", 2, 32, 2, true, false, "sjf");
  r.best.makespan = 123456789;
  r.best.performance = 1.0 / 7.0;
  r.best.perf_per_energy = 6.02214076e23;
  r.best.perf_per_area = 1e-7;
  r.best.energy_j = 0.1;
  r.best.area_mm2 = 100;
  r.frontier = {r.best, r.best};
  r.frontier[1].spec.net = "proxy";
  r.frontier[1].performance = 2.0 / 7.0;
  r.simulated = 4;
  r.cache_hits = 7;
  r.coalesced = 0;
  r.wall_seconds = 1.25;
  EXPECT_EQ(hex(core::fnv1a64(serve::protocol::search_response(r, 77))),
            hex(0x51d129ebe902b840ull));
  EXPECT_EQ(hex(core::fnv1a64(serve::protocol::error_response(
                "bad_request", "unknown \"net\"\tx\x02", 9))),
            hex(0x88bec3f8df6f8ce8ull));

  obs::RequestTrace t;
  t.id = 31;
  t.client = "c\\1";
  t.workload = "Denoise";
  t.points = 2;
  t.total_ns = 1234567;
  for (std::size_t p = 0; p < obs::kNumPhases; ++p) {
    t.phase_ns[p] = 1000 * (p + 1);
  }
  t.hits = 1;
  t.misses = 1;
  t.error = "";
  EXPECT_EQ(hex(core::fnv1a64(obs::RequestLog::format_line(t, 1))),
            hex(0x9153b5b9b5b26379ull))
      << obs::RequestLog::format_line(t, 1);
}

}  // namespace
}  // namespace ara
