// Observability layer: trace JSON escaping/validity, capacity + category
// filtering, metrics export (JSON/CSV), the strict JSON validator, and the
// end-to-end System integration (instrumented registry, rich traces,
// deterministic metrics under the parallel sweep executor).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/arch_config.h"
#include "core/system.h"
#include "dse/parallel_sweep.h"
#include "obs/json_io.h"
#include "obs/metrics_export.h"
#include "sim/trace.h"
#include "workloads/registry.h"

namespace ara {
namespace {

// ---- JSON writers ----

/// The writers' reference: the byte-by-byte switch the stream writer used,
/// with printf for the \u escapes.
std::string reference_escape(std::string_view s) {
  std::string out;
  for (const char raw : s) {
    const auto c = static_cast<unsigned char>(raw);
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\b':
        out += "\\b";
        break;
      case '\f':
        out += "\\f";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string reference_number(double v, int digits) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.*g", digits, v);
  return buf;
}

std::string number(double v, int digits) {
  std::string out;
  obs::json_number(out, v, digits);
  return out;
}

std::string escaped(std::string_view s) {
  std::string out;
  obs::json_escape(out, s);
  return out;
}

TEST(JsonWriter, NumberEqualsPrintfForRandomBitPatterns) {
  // Every bit pattern is fair game: subnormals, huge exponents, NaN/Inf
  // payloads (which both sides write as 0).
  std::mt19937_64 rng(20141);
  for (int i = 0; i < 100000; ++i) {
    const double v = std::bit_cast<double>(rng());
    for (const int digits : {12, 17}) {
      ASSERT_EQ(number(v, digits), reference_number(v, digits))
          << std::hexfloat << v << " at " << digits << " digits";
    }
  }
}

TEST(JsonWriter, NumberEqualsPrintfAtTheEdges) {
  using limits = std::numeric_limits<double>;
  std::vector<double> values = {0.0,
                                -0.0,
                                limits::denorm_min(),
                                -limits::denorm_min(),
                                limits::min(),
                                std::nextafter(limits::min(), 0.0),
                                limits::max(),
                                -limits::max(),
                                limits::epsilon(),
                                1e21,
                                1e-5,
                                123456789012.0,
                                999999999999.5,
                                99999999999999999.0};
  for (int e = 0; e <= 53; ++e) {
    const double p = std::ldexp(1.0, e);
    values.insert(values.end(), {p, p - 1, p + 1, -p});
  }
  for (int n = 1; n <= 99; ++n) {
    values.push_back(n / 10.0);   // 0.1-style decimals
    values.push_back(n / 100.0);
    values.push_back(n / 3.0);
  }
  values.push_back(0.1 + 0.2);
  for (const double v : values) {
    for (const int digits : {1, 6, 9, 12, 17}) {
      EXPECT_EQ(number(v, digits), reference_number(v, digits))
          << std::hexfloat << v << " at " << digits << " digits";
    }
  }
}

TEST(JsonWriter, NonFiniteNumbersBecomeZero) {
  for (const double v : {std::numeric_limits<double>::quiet_NaN(),
                         -std::numeric_limits<double>::quiet_NaN(),
                         std::numeric_limits<double>::signaling_NaN(),
                         std::numeric_limits<double>::infinity(),
                         -std::numeric_limits<double>::infinity()}) {
    EXPECT_EQ(number(v, 17), "0");
    EXPECT_EQ(number(v, 12), "0");
  }
}

TEST(JsonWriter, UintIsDecimal) {
  for (const std::uint64_t v :
       {std::uint64_t{0}, std::uint64_t{7}, std::uint64_t{1} << 53,
        std::numeric_limits<std::uint64_t>::max()}) {
    std::string out = "x";
    obs::json_uint(out, v);
    EXPECT_EQ(out, "x" + std::to_string(v));
  }
}

TEST(JsonWriter, EscapeEqualsReferenceForEverySingleByte) {
  for (int b = 0; b < 256; ++b) {
    const std::string s(1, static_cast<char>(b));
    EXPECT_EQ(escaped(s), reference_escape(s)) << "byte " << b;
  }
}

TEST(JsonWriter, EscapeEqualsReferenceForMixedStrings) {
  std::vector<std::string> cases = {
      "",
      "plain.stat.name",
      "\"quoted\" and \\backslashed\\",
      std::string("nul\0inside", 10),
      "tab\tnew\nline\rcr\x01\x1f\x7f",
      "\xc3\xa9 UTF-8 and \xff raw",
      "\"\"\\\\",
      "trailing escape\n",
      "\nleading escape"};
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    std::string s(rng() % 40, '\0');
    for (char& c : s) c = static_cast<char>(rng());
    cases.push_back(std::move(s));
  }
  for (const std::string& s : cases) {
    std::string out = "prefix:";
    obs::json_escape(out, s);
    EXPECT_EQ(out, "prefix:" + reference_escape(s));
  }
}

// ---- json_check ----

TEST(JsonCheck, AcceptsValidDocuments) {
  for (const char* doc : {
           "{}",
           "[]",
           "null",
           "true",
           "-12.5e3",
           R"({"a":[1,2,{"b":null}],"c":"x\ny","d":"\u00e9"})",
           "[1, 2, 3]",
           "\"plain string\"",
       }) {
    std::string err;
    EXPECT_TRUE(obs::validate_json(doc, &err)) << doc << ": " << err;
  }
}

TEST(JsonCheck, RejectsInvalidDocuments) {
  for (const char* doc : {
           "",
           "{",
           "[1,2,]",
           "{\"a\":}",
           "{\"a\":1,}",
           "01",
           "1.e5",
           "+1",
           "nul",
           "\"unterminated",
           "\"raw\ncontrol\"",
           "\"bad escape \\q\"",
           "\"bad unicode \\u12g4\"",
           "[1] trailing",
           "{\"dup\" 1}",
       }) {
    std::string err;
    EXPECT_FALSE(obs::validate_json(doc, &err)) << doc;
    EXPECT_FALSE(err.empty()) << doc;
  }
}

// ---- trace collector ----

TEST(Trace, JsonEscapesControlCharacters) {
  // Regression: control characters (tab, newline, 0x01) must come out as
  // \uXXXX (or \n/\t) escapes, never raw bytes.
  sim::TraceCollector t;
  t.record_span(std::string("bad\tname\nwith") + '\x01' + "ctrl", 0, 0, 0, 10,
                "task");
  std::ostringstream os;
  t.write_json(os);
  const std::string out = os.str();
  EXPECT_EQ(out.find('\t'), std::string::npos);
  EXPECT_NE(out.find("\\u0001"), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::validate_json(out, &err)) << err;
}

TEST(Trace, InstantCarriesTid) {
  sim::TraceCollector t;
  t.record_instant("spill", 3, 7, 100, "spill");
  std::ostringstream os;
  t.write_json(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("\"tid\":7"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":3"), std::string::npos);
}

TEST(Trace, CapacityCapCountsDropped) {
  sim::TraceCollector t;
  t.set_capacity(3);
  for (int i = 0; i < 10; ++i) {
    t.record_instant("e" + std::to_string(i), 0, 0, i, "task");
  }
  EXPECT_EQ(t.size(), 3u);
  EXPECT_EQ(t.dropped(), 7u);
  // Metadata bypasses the cap.
  t.name_process(0, "island 0");
  EXPECT_EQ(t.size(), 4u);
  std::ostringstream os;
  t.write_json(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("trace_buffer_full"), std::string::npos);
  std::string err;
  EXPECT_TRUE(obs::validate_json(out, &err)) << err;
}

TEST(Trace, CategoryFilter) {
  sim::TraceCollector t;
  t.set_category_filter({"dma"});
  EXPECT_TRUE(t.category_enabled("dma"));
  EXPECT_FALSE(t.category_enabled("task"));
  t.record_instant("kept", 0, 0, 1, "dma");
  t.record_instant("filtered", 0, 0, 2, "task");
  EXPECT_EQ(t.size(), 1u);
  EXPECT_EQ(t.dropped(), 0u);  // filtered != dropped-by-capacity
}

TEST(Trace, CounterFlowAndMetadataAreValidJson) {
  sim::TraceCollector t;
  t.name_process(1, "island 1");
  t.name_thread(1, 2, "slot 2: poly");
  t.record_counter("queue", 1, 10, "jobs", 3.5);
  const auto flow = t.begin_flow("dma", 1, 2, 10, "dma");
  t.step_flow(flow, "dma", 1, sim::kTraceTidDma, 20, "dma");
  t.end_flow(flow, "dma", sim::kTracePidMem, 0, 30, "dma");
  std::ostringstream os;
  t.write_json(os);
  const std::string out = os.str();
  for (const char* phase : {"\"ph\":\"M\"", "\"ph\":\"C\"", "\"ph\":\"s\"",
                            "\"ph\":\"t\"", "\"ph\":\"f\""}) {
    EXPECT_NE(out.find(phase), std::string::npos) << phase;
  }
  std::string err;
  EXPECT_TRUE(obs::validate_json(out, &err)) << err;
}

// ---- metrics export ----

TEST(MetricsExport, SnapshotCapturesAllKinds) {
  sim::StatRegistry reg;
  reg.counter("island.0.spm.bytes").inc(42);
  reg.accumulator("energy.total").add(1.25);
  reg.histogram("mem.read_latency", 16, 8).record(33);
  const auto snap = obs::MetricsSnapshot::capture(reg);
  ASSERT_EQ(snap.counters.size(), 1u);
  EXPECT_EQ(snap.counters[0].name, "island.0.spm.bytes");
  EXPECT_EQ(snap.counters[0].value, 42u);
  ASSERT_EQ(snap.accumulators.size(), 1u);
  EXPECT_DOUBLE_EQ(snap.accumulators[0].sum, 1.25);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].count, 1u);
  EXPECT_EQ(snap.histograms[0].max, 33u);
  EXPECT_EQ(snap.counter_sum_by_prefix("island."), 42u);
  EXPECT_FALSE(snap.empty());
}

TEST(MetricsExport, JsonIsValidAndCsvHasHeader) {
  sim::StatRegistry reg;
  reg.counter("a.count").inc(7);
  reg.histogram("a.lat", 8, 4).record(9);
  reg.accumulator("a.energy").add(0.5);
  const auto snap = obs::MetricsSnapshot::capture(reg);

  std::ostringstream js;
  obs::MetricsExporter::write_json(js, snap);
  std::string err;
  EXPECT_TRUE(obs::validate_json(js.str(), &err)) << err;
  EXPECT_NE(js.str().find("\"a.count\""), std::string::npos);

  std::ostringstream csv;
  obs::MetricsExporter::write_csv(csv, snap);
  EXPECT_EQ(csv.str().rfind("kind,name,value,count,mean,min,max,p50,p95,p99",
                            0),
            0u);
  EXPECT_NE(csv.str().find("counter,a.count,7"), std::string::npos);
}

TEST(MetricsExport, HistogramMinExportedAndRoundTrips) {
  sim::StatRegistry reg;
  auto& h = reg.histogram("a.lat", 8, 4);
  h.record(21);
  h.record(3);
  const auto snap = obs::MetricsSnapshot::capture(reg);
  ASSERT_EQ(snap.histograms.size(), 1u);
  EXPECT_EQ(snap.histograms[0].min, 3u);  // true minimum, not a 0 default
  EXPECT_EQ(snap.histograms[0].max, 21u);

  std::ostringstream js;
  obs::MetricsExporter::write_json(js, snap);
  EXPECT_NE(js.str().find("\"min\":3"), std::string::npos);

  // CSV row carries ...,min,max,p50,p95,p99 with the real min.
  std::ostringstream csv;
  obs::MetricsExporter::write_csv(csv, snap);
  EXPECT_NE(csv.str().find(",3,21,"), std::string::npos);

  obs::JsonValue parsed;
  std::string err;
  ASSERT_TRUE(obs::parse_json(js.str(), &parsed, &err)) << err;
  obs::MetricsSnapshot rt;
  ASSERT_TRUE(obs::MetricsExporter::snapshot_from_json(parsed, &rt));
  ASSERT_EQ(rt.histograms.size(), 1u);
  EXPECT_EQ(rt.histograms[0].min, 3u);
  EXPECT_EQ(rt.histograms[0].max, 21u);
}

// Determinism the no-unordered-iter lint rule protects: exported metric
// order must depend only on names (StatRegistry is a std::map), never on
// registration order or hash-bucket layout.
TEST(MetricsExport, ExportOrderIndependentOfRegistrationOrder) {
  sim::StatRegistry fwd;
  fwd.counter("abc.0.ops").inc(1);
  fwd.counter("noc.link.flits").inc(2);
  fwd.counter("island.3.spm.bytes").inc(3);
  fwd.accumulator("energy.total").add(0.5);

  sim::StatRegistry rev;
  rev.accumulator("energy.total").add(0.5);
  rev.counter("island.3.spm.bytes").inc(3);
  rev.counter("noc.link.flits").inc(2);
  rev.counter("abc.0.ops").inc(1);

  const auto snap_fwd = obs::MetricsSnapshot::capture(fwd);
  const auto snap_rev = obs::MetricsSnapshot::capture(rev);

  std::ostringstream js_fwd, js_rev;
  obs::MetricsExporter::write_json(js_fwd, snap_fwd);
  obs::MetricsExporter::write_json(js_rev, snap_rev);
  EXPECT_EQ(js_fwd.str(), js_rev.str());

  // And the order is the sorted one, byte for byte.
  ASSERT_EQ(snap_fwd.counters.size(), 3u);
  EXPECT_EQ(snap_fwd.counters[0].name, "abc.0.ops");
  EXPECT_EQ(snap_fwd.counters[1].name, "island.3.spm.bytes");
  EXPECT_EQ(snap_fwd.counters[2].name, "noc.link.flits");
}

TEST(MetricsExport, LabeledJsonIsValid) {
  sim::StatRegistry reg;
  reg.counter("x").inc(1);
  const auto snap = obs::MetricsSnapshot::capture(reg);
  std::ostringstream os;
  obs::MetricsExporter::write_labeled_json(
      os, {{"point \"a\"", &snap}, {"point b", &snap}});
  std::string err;
  EXPECT_TRUE(obs::validate_json(os.str(), &err)) << err;
  EXPECT_NE(os.str().find("\"points\""), std::string::npos);
}

// ---- System integration ----

TEST(Observability, SystemRegistryCoversSubsystems) {
  core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  core::System sys(cfg);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  sys.run(w);
  const auto& reg = sys.stats();
  // Namespaced counters from every major subsystem.
  EXPECT_GT(reg.counter_sum_by_prefix("island."), 0u);
  EXPECT_GT(reg.counter_sum_by_prefix("noc."), 0u);
  EXPECT_GT(reg.counter_sum_by_prefix("mem."), 0u);
  EXPECT_GT(reg.counter_sum_by_prefix("abc."), 0u);
  EXPECT_GT(reg.counter_sum_by_prefix("gam."), 0u);
  EXPECT_GT(reg.counter_sum_by_prefix("sim."), 0u);
  // Per-id naming scheme: island 0's DMA moved bytes, router 0 saw flits.
  EXPECT_NE(reg.find_counter("island.0.dma.bytes"), nullptr);
  EXPECT_NE(reg.find_counter("noc.router.0.flits"), nullptr);
  // Live latency histograms filled during the run.
  std::uint64_t hist_samples = 0;
  for (const auto& [name, h] : reg.histograms()) hist_samples += h->count();
  EXPECT_GT(hist_samples, 0u);
}

TEST(Observability, SystemTraceIsRichAndValid) {
  core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  cfg.trace_enabled = true;
  core::System sys(cfg);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  sys.run(w);
  std::ostringstream os;
  sys.write_trace(os);
  const std::string out = os.str();
  std::string err;
  ASSERT_TRUE(obs::validate_json(out, &err)) << err;
  // Spans from >= 3 subsystems (task = ABC slots, dma = islands, gam).
  for (const char* cat : {"\"cat\":\"task\"", "\"cat\":\"dma\"",
                          "\"cat\":\"gam\""}) {
    EXPECT_NE(out.find(cat), std::string::npos) << cat;
  }
  // Counter-track samples and track metadata.
  EXPECT_NE(out.find("\"ph\":\"C\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"M\""), std::string::npos);
  EXPECT_NE(out.find("island 0"), std::string::npos);
}

TEST(Observability, TraceDroppedSurfacesInMetricsSnapshot) {
  core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  cfg.trace_enabled = true;
  cfg.trace_capacity = 16;  // tiny ring: a real run must overflow it
  core::System sys(cfg);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  sys.run(w);
  const sim::Counter* dropped = sys.stats().find_counter("trace.dropped");
  ASSERT_NE(dropped, nullptr);
  EXPECT_GT(dropped->value(), 0u);
  // The drop count rides a MetricsSnapshot like any other counter, so the
  // stats endpoint / --metrics exports surface trace-buffer saturation.
  const auto snap = obs::MetricsSnapshot::capture(sys.stats());
  bool found = false;
  for (const auto& c : snap.counters) {
    if (c.name == "trace.dropped") {
      found = true;
      EXPECT_EQ(c.value, dropped->value());
    }
  }
  EXPECT_TRUE(found);
}

TEST(Observability, EventKindProfileCounts) {
  core::ArchConfig cfg = core::ArchConfig::ring_design(6, 2, 32);
  core::System sys(cfg);
  sys.simulator().set_self_profiling(true);
  auto w = workloads::make_benchmark("Denoise", 0.05);
  sys.run(w);
  const auto& kinds = sys.simulator().kind_stats();
  std::uint64_t total = 0;
  for (const auto& k : kinds) total += k.count;
  EXPECT_EQ(total, sys.simulator().events_processed());
  const auto gam_req =
      kinds[static_cast<std::size_t>(sim::EventKind::kGamRequest)].count;
  EXPECT_GT(gam_req, 0u);
}

TEST(Observability, MetricsIdenticalSerialVsParallel) {
  auto w = workloads::make_benchmark("Denoise", 0.05);
  std::vector<dse::SweepJob> jobs;
  for (std::uint32_t islands : {3u, 6u}) {
    for (const auto& p : dse::paper_network_configs(islands)) {
      jobs.push_back({p.config, &w});
    }
  }
  const auto serial = dse::ParallelSweepExecutor(1).run(jobs);
  const auto parallel = dse::ParallelSweepExecutor(8).run(jobs);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    std::ostringstream a, b;
    obs::MetricsExporter::write_json(a, serial[i].metrics);
    obs::MetricsExporter::write_json(b, parallel[i].metrics);
    EXPECT_EQ(a.str(), b.str()) << "point " << i;
    // Deterministic per-kind dispatch counts, too (wall-clock seconds are
    // host-dependent and excluded).
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      EXPECT_EQ(serial[i].event_kinds[k].count, parallel[i].event_kinds[k].count);
    }
  }
}

}  // namespace
}  // namespace ara
