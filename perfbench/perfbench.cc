// ara_perfbench: the end-to-end + per-layer benchmark of the ARA simulator.
//
// Three workloads drive the simulator the three ways its users pay for a
// design point (METRICS.md gives the reasons and the metric map):
//   point_serial   - a seeded sample of PointSpecs, each built, run,
//                    captured and destroyed as a core::System, one by one;
//   sweep_parallel - the paper grid (4 island counts x 5 networks) on
//                    Denoise and EKF-SLAM through one dse::run at jobs 2;
//   serve_mixed    - two closed-loop clients against an in-process
//                    serve::Server over its AF_UNIX front end, with a
//                    seeded mix of warm (cached) and cold (first-seen)
//                    sweep requests plus one small search per client.
//
// Only public library API is used. The program prints human-readable
// "# ..." lines and, as its last line, one JSON object:
//   {"correct":B,"attempted":N,"failed":N,"values":{name:value,...}}
// holding the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1); perfbench/run.py checks the names against BENCHMARK.json and
// adds their units. End-to-end times are scaled by the host's speed in the
// run, measured with a fixed reference workload (class HostSpeed); the
// measured values are printed as "# measured" lines. A traced run times an
// untraced and a traced half of the same inputs (the difference is the
// tracing overhead) and reads exact work counts from the layers' public
// accessors in a serial pass over the workload's deterministic count set
// on core::System.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <charconv>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.h"
#include "core/config_digest.h"
#include "core/system.h"
#include "dse/result_cache.h"
#include "dse/spec.h"
#include "dse/sweep.h"
#include "obs/json_io.h"
#include "obs/metrics_export.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "workloads/registry.h"

namespace {

using namespace ara;

// ------------------------------------------------------------ constants

/// Invocation scale of point_serial and serve_mixed points (2 kernel
/// invocations per point on every benchmark) and of the sweep_parallel grid.
constexpr double kPointScale = 0.015;
constexpr double kSweepScale = 0.02;
constexpr double kQuickScale = 0.01;
/// sweep_parallel executor workers: half the 4 hardware threads of the
/// reference machine, so that the run measures the executor and not the
/// shared machine.
constexpr unsigned kSweepJobs = 2;
/// Repeated timings of the same work are reduced to their fast tenth
/// (10th percentile): on the shared reference machine other tenants slow
/// some repeats by up to a third, never speed one up, and a program change
/// moves every repeat (METRICS.md, "Run-to-run noise").
constexpr double kFastQ = 0.10;
/// serve_mixed sessions run as this many equal windows, with a host-speed
/// sample between them; each latency is the fast tenth of the windows'
/// percentiles.
constexpr std::size_t kServeWindows = 4;
/// Timings of ResultCache::to_json per entry (the non-serving workloads'
/// warm-path analogue).
constexpr std::size_t kEncodeReps = 25;
/// Host-speed reference: one round's fast-tenth time on the reference
/// machine in a calm stretch, and the length of one sample of rounds.
constexpr double kRefNominalS = 0.004;
constexpr double kRefSampleS = 0.2;
/// serve_mixed: handlers x jobs = 2 simulation threads, leaving 2 of the 4
/// hardware threads for the clients, sessions and the warm path.
constexpr unsigned kServeHandlers = 2;
constexpr unsigned kServeJobs = 1;
constexpr unsigned kServeClients = 2;
/// Share of requests carrying a first-seen point: the share at which the
/// cold p90 and the warm p99 rest on equally many samples beyond them,
/// 0.10 * c = 0.01 * (1 - c) (METRICS.md, "serve_mixed").
constexpr double kColdShare = 1.0 / 11.0;
/// Warm pool per benchmark: the fewest points that let a request carry 4
/// distinct points of one benchmark.
constexpr std::size_t kWarmPerWorkload = 4;
/// Each client's request with this index is a search (one per client).
constexpr std::size_t kSearchAt = 3;
/// Set-ups per run: at least kSetupMinReps and kSetupSeconds of them;
/// setup_s is their median.
constexpr std::size_t kSetupMinReps = 51;
constexpr double kSetupSeconds = 1.5;
/// point_serial passes and sweep_parallel sweeps per phase, at least: the
/// repeats are the warm samples of those workloads.
constexpr std::size_t kMinRounds = 2;

constexpr const char* kLayers[] = {"bench", "workloads", "core",
                                   "obs",   "dse",       "serve"};

// ---------------------------------------------------------------- helpers

using Clock = std::chrono::steady_clock;
const Clock::time_point g_epoch = Clock::now();

/// Host seconds since process start (steady clock).
double now_s() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

/// splitmix64: a portable seeded stream (std::shuffle and the std
/// distributions are implementation-defined, so inputs would differ
/// between standard libraries).
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  std::uint64_t below(std::uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      const std::size_t j = below(i);
      T tmp = v[i - 1];  // by value: std::vector<bool> hands out proxies
      v[i - 1] = v[j];
      v[j] = tmp;
    }
  }

 private:
  std::uint64_t state_;
};

/// Linear-interpolated quantile of `v` (q in [0, 1]); 0 for no samples.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

/// The fast tenth of repeated timings of the same work.
double fast(const std::vector<double>& v) { return quantile(v, kFastQ); }

/// Per point, the fast tenth over repeats: samples[r][i] is repeat r of
/// point i.
std::vector<double> fast_per_point(const std::vector<std::vector<double>>& samples) {
  std::vector<double> out;
  for (std::size_t i = 0; !samples.empty() && i < samples[0].size(); ++i) {
    std::vector<double> repeats;
    for (const auto& r : samples) repeats.push_back(r[i]);
    out.push_back(fast(repeats));
  }
  return out;
}

double sum(const std::vector<double>& v) {
  double s = 0;
  for (const double x : v) s += x;
  return s;
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Shortest round-trip decimal text of `v`.
std::string number_text(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------ host speed

/// The host-speed reference: a fixed workload of the benchmark's own,
/// std::map inserts, lower_bound lookups and erases (the container behind
/// sim::SharedLink's reservations), timed in rounds. It is sampled before
/// set-up, between passes, sweeps or serve windows and after the timed
/// phase, never while the program runs. End-to-end times are multiplied by
/// scale() and rates divided by it, so that a stretch in which other
/// tenants slow the shared machine does not read as a slower program
/// (METRICS.md, "Host-speed scaling").
class HostSpeed {
 public:
  /// Rounds for kRefSampleS seconds.
  void sample() {
    const double end = now_s() + kRefSampleS;
    do {
      const double t0 = now_s();
      round();
      rounds_.push_back(now_s() - t0);
    } while (now_s() < end);
    ++samples_;
  }
  /// kRefNominalS over the fast tenth of all rounds so far.
  double scale() const { return kRefNominalS / fast(rounds_); }
  std::string note() const {
    return "host speed: reference round " + number_text(fast(rounds_) * 1e3) +
           " ms (fast tenth of " + std::to_string(rounds_.size()) + " rounds in " +
           std::to_string(samples_) + " samples), nominal " +
           number_text(kRefNominalS * 1e3) + " ms: scale " + number_text(scale());
  }

 private:
  static void round() {
    std::map<std::uint64_t, std::uint64_t> busy;
    Rng rng(1);
    std::uint64_t acc = 0;
    for (int i = 0; i < 20000; ++i) {
      const auto [it, fresh] = busy.emplace(rng.below(1 << 14), i);
      acc += it->second + (fresh ? 1 : 0);
      if (i % 3 == 0) {
        const auto j = busy.lower_bound(rng.below(1 << 14));
        if (j != busy.end()) busy.erase(j);
      }
    }
    sink_ = acc;
  }

  static inline volatile std::uint64_t sink_ = 0;
  std::vector<double> rounds_;
  std::size_t samples_ = 0;
};

// -------------------------------------------------------------- outcomes

/// Operations attempted and failed (failed + rejected + mismatched).
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
  void merge(const Outcome& other) {
    attempted += other.attempted;
    failed += other.failed;
    for (const auto& e : other.errors) {
      if (errors.size() < 8) errors.push_back(e);
    }
  }
};

// ---------------------------------------------------------------- tracing

/// One span recorded by the benchmark around a call into a layer. Spans of
/// one point or request share `id`. `lanes` > 1 marks a child that ran
/// concurrently with `lanes - 1` siblings (executor workers, clients): it
/// covers duration / lanes of its parent's interval.
struct Span {
  std::string name;
  const char* layer;
  std::uint64_t id;
  std::int64_t parent;
  double start;
  double end;
  double lanes;
};

/// In-memory span store, written out when the run ends. Off = no-op.
class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  bool on() const { return on_; }

  std::int64_t add(std::string name, const char* layer, std::uint64_t id,
                   std::int64_t parent, double start, double end,
                   double lanes = 1) {
    if (!on_) return -1;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back({std::move(name), layer, id, parent, start, end, lanes});
    return static_cast<std::int64_t>(spans_.size() - 1);
  }
  /// Open a span now; close() sets its end.
  std::int64_t open(std::string name, const char* layer, std::uint64_t id,
                    std::int64_t parent) {
    const double t = now_s();
    return add(std::move(name), layer, id, parent, t, t);
  }
  void close(std::int64_t span) {
    if (span < 0) return;
    const double t = now_s();
    std::lock_guard<std::mutex> lock(mu_);
    spans_[static_cast<std::size_t>(span)].end = t;
  }

  /// Self time per layer: each span's duration minus the share of it its
  /// children cover (children are disjoint, or concurrent with `lanes`).
  std::map<std::string, double> self_seconds() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> covered(spans_.size(), 0.0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        covered[static_cast<std::size_t>(s.parent)] +=
            (s.end - s.start) / s.lanes;
      }
    }
    std::map<std::string, double> out;
    for (const char* layer : kLayers) out[layer] = 0;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.layer] += (s.end - s.start) - covered[i];
    }
    return out;
  }

  void write_json(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream os(path, std::ios::trunc);
    os << "[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      os << (i > 0 ? ",\n" : "\n") << "{\"name\":\"";
      obs::json_escape(os, s.name);
      os << "\",\"layer\":\"" << s.layer << "\",\"id\":" << s.id
         << ",\"parent\":" << s.parent
         << ",\"start_us\":" << number_text(s.start * 1e6)
         << ",\"end_us\":" << number_text(s.end * 1e6)
         << ",\"lanes\":" << number_text(s.lanes) << "}";
    }
    os << "\n]\n";
  }

 private:
  bool on_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

// ------------------------------------------------- layer work counters

/// Exact per-layer work of one or more points, read from public accessors
/// after System::run (they repeat exactly for a given point).
struct LayerCounts {
  std::uint64_t events = 0;
  std::uint64_t packets = 0;
  std::uint64_t link_reservations = 0;
  std::uint64_t flit_hops = 0;
  std::uint64_t dma_chunks = 0;
  std::uint64_t net_bytes = 0;
  std::uint64_t tlb_hits = 0;
  std::uint64_t tlb_misses = 0;
  std::uint64_t l2_accesses = 0;
  std::uint64_t l2_hits = 0;
  std::uint64_t mc_reservations = 0;
  std::uint64_t dram_bytes = 0;
  std::uint64_t tasks_started = 0;
  std::uint64_t chains_direct = 0;
  std::uint64_t chains_spilled = 0;
  std::uint64_t gam_queued = 0;

  bool operator==(const LayerCounts&) const = default;
  LayerCounts& operator+=(const LayerCounts& o) {
    events += o.events;
    packets += o.packets;
    link_reservations += o.link_reservations;
    flit_hops += o.flit_hops;
    dma_chunks += o.dma_chunks;
    net_bytes += o.net_bytes;
    tlb_hits += o.tlb_hits;
    tlb_misses += o.tlb_misses;
    l2_accesses += o.l2_accesses;
    l2_hits += o.l2_hits;
    mc_reservations += o.mc_reservations;
    dram_bytes += o.dram_bytes;
    tasks_started += o.tasks_started;
    chains_direct += o.chains_direct;
    chains_spilled += o.chains_spilled;
    gam_queued += o.gam_queued;
    return *this;
  }
};

LayerCounts read_counts(core::System& sys) {
  LayerCounts c;
  c.events = sys.simulator().events_processed();
  noc::Mesh& mesh = sys.mesh();
  c.packets = mesh.total_packets();
  c.flit_hops = mesh.total_flit_hops();
  for (std::size_t n = 0; n < mesh.node_count(); ++n) {
    for (std::size_t d = 0; d < noc::kNumPorts; ++d) {
      c.link_reservations +=
          mesh.router(static_cast<NodeId>(n)).port(static_cast<noc::Direction>(d)).transfers();
    }
  }
  for (std::size_t i = 0; i < sys.island_count(); ++i) {
    const island::Island& isl = sys.island(static_cast<IslandId>(i));
    c.dma_chunks += isl.dma().transfers();
    c.net_bytes += isl.net().total_bytes();
    c.tlb_hits += isl.tlb().hits();
    c.tlb_misses += isl.tlb().misses();
  }
  const mem::MemorySystem& memory = sys.memory();
  for (std::size_t b = 0; b < memory.l2_bank_count(); ++b) {
    c.l2_accesses += memory.l2_bank(b).accesses();
    c.l2_hits += memory.l2_bank(b).hits();
  }
  for (std::size_t m = 0; m < memory.controller_count(); ++m) {
    c.mc_reservations += memory.controller(m).accesses();
  }
  c.dram_bytes = memory.dram_bytes();
  c.tasks_started = sys.composer().tasks_started();
  c.chains_direct = sys.composer().chains_direct();
  c.chains_spilled = sys.composer().chains_spilled();
  c.gam_queued = sys.gam().queued_requests();
  return c;
}

// ------------------------------------------------------------ design points

struct Point {
  std::string label;  // "<benchmark> <PointSpec::label()>"
  core::ArchConfig config;
  const workloads::Workload* workload = nullptr;
  std::uint64_t key = 0;  // ResultCache::key under kSimVersionSalt
};

Point make_point(const std::string& label, core::ArchConfig config,
                 const workloads::Workload& w) {
  Point p;
  p.label = w.name + " " + label;
  p.config = std::move(config);
  p.config.validate();
  p.workload = &w;
  p.key = dse::ResultCache::key(p.config, w, dse::kSimVersionSalt);
  return p;
}

Point make_point(const dse::PointSpec& spec, const workloads::Workload& w) {
  return make_point(spec.label(), spec.to_config(), w);
}

/// Benchmarks by name, generated once per set-up (spans around each
/// make_benchmark call).
using WorkloadSet = std::map<std::string, workloads::Workload>;

WorkloadSet make_workloads(const std::vector<std::string>& names, double scale,
                           Tracer& tracer, std::int64_t parent,
                           double* make_s) {
  WorkloadSet out;
  for (const auto& name : names) {
    const double t0 = now_s();
    workloads::Workload w = workloads::make_benchmark(name, scale);
    const double t1 = now_s();
    *make_s += t1 - t0;
    tracer.add("make_benchmark", "workloads", 0, parent, t0, t1);
    out.emplace(name, std::move(w));
  }
  return out;
}

/// Balanced knob assignment: each knob's values are dealt evenly over the
/// n points and then shuffled, so every seed sees the same knob mix.
struct KnobDeck {
  std::vector<std::uint32_t> rings;
  std::vector<std::uint64_t> widths;
  std::vector<std::uint32_t> ports;
  std::vector<bool> sharing;
  std::vector<bool> mono;
  std::vector<std::string> policy;

  KnobDeck(std::size_t n, Rng& rng) {
    deal(n, {1u, 2u, 3u}, &rings, rng);
    deal(n, {std::uint64_t{16}, std::uint64_t{32}}, &widths, rng);
    deal(n, {1u, 2u}, &ports, rng);
    deal(n, {false, true}, &sharing, rng);
    deal(n, {false, false, false, false, false, true}, &mono, rng);
    deal(n, {std::string("fifo"), std::string("sjf"), std::string("ljf")},
         &policy, rng);
  }
  void apply(std::size_t i, dse::PointSpec* s) const {
    s->rings = rings[i];
    s->link_bytes = widths[i];
    s->ports = ports[i];
    s->sharing = sharing[i];
    s->mono = mono[i];
    s->policy = policy[i];
  }

 private:
  template <typename T>
  static void deal(std::size_t n, const std::vector<T>& values,
                   std::vector<T>* out, Rng& rng) {
    out->clear();
    for (std::size_t i = 0; i < n; ++i) out->push_back(values[i % values.size()]);
    rng.shuffle(*out);
  }
};

const std::vector<std::uint32_t> kIslandCounts = {3, 6, 12, 24};
const std::vector<std::string> kNets = {"ring", "proxy", "chain"};

// ------------------------------------------------------------- one point

/// A cache entry's canonical bytes: ResultCache::to_json without its
/// trailing newline, which is exactly the "entry" object ara_serve sends.
std::string entry_json(std::uint64_t key, const dse::ResultCache::Entry& e) {
  std::string json = dse::ResultCache::to_json(key, dse::kSimVersionSalt, e);
  while (!json.empty() && json.back() == '\n') json.pop_back();
  return json;
}

struct Encoded {
  std::uint64_t digest = 0;
  std::size_t bytes = 0;
  double seconds = 0;
};

/// Encode and digest an entry `reps` times (the first traced); `seconds` is
/// the fast tenth of the timings.
Encoded encode(std::uint64_t key, const dse::ResultCache::Entry& e,
               Tracer& tracer, std::uint64_t id, std::int64_t parent,
               std::size_t reps = 1) {
  Encoded out;
  std::vector<double> times;
  for (std::size_t r = 0; r < reps; ++r) {
    const double t0 = now_s();
    const std::string json = entry_json(key, e);
    const std::uint64_t digest = core::fnv1a64(json);
    const double t1 = now_s();
    if (r == 0) tracer.add("ResultCache::to_json", "dse", id, parent, t0, t1);
    times.push_back(t1 - t0);
    out.digest = digest;
    out.bytes = json.size();
  }
  out.seconds = fast(times);
  return out;
}

/// One design point built, run, captured and destroyed on a core::System,
/// with its host-time split and exact work counts.
struct PointRun {
  dse::ResultCache::Entry entry;  // event-kind seconds zeroed, as cached
  std::array<double, sim::kNumEventKinds> kind_seconds{};
  LayerCounts counts;
  std::size_t snapshot_stats = 0;
  double build_s = 0;
  double run_s = 0;
  double capture_s = 0;
  double teardown_s = 0;
  double point_s = 0;    // build + run + capture, as dse::run reports it
  double latency_s = 0;  // start of build to end of teardown
};

PointRun run_point(const Point& p, Tracer& tracer, std::uint64_t id,
                   std::int64_t parent) {
  PointRun out;
  const double t0 = now_s();
  auto sys = std::make_unique<core::System>(p.config);
  sys->simulator().set_self_profiling(true);
  const double t1 = now_s();
  out.entry.result = sys->run(*p.workload);
  const double t2 = now_s();
  out.entry.metrics = obs::MetricsSnapshot::capture(sys->stats());
  const double t3 = now_s();
  out.entry.events = sys->simulator().events_processed();
  out.entry.event_kinds = sys->simulator().kind_stats();
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    out.kind_seconds[k] = out.entry.event_kinds[k].seconds;
    out.entry.event_kinds[k].seconds = 0;
  }
  out.counts = read_counts(*sys);
  out.snapshot_stats =
      out.entry.metrics.counters.size() + out.entry.metrics.histograms.size();
  const double t4 = now_s();
  sys.reset();
  const double t5 = now_s();
  out.build_s = t1 - t0;
  out.run_s = t2 - t1;
  out.capture_s = t3 - t2;
  out.teardown_s = t5 - t4;
  out.point_s = t3 - t0;
  out.latency_s = t5 - t0;
  if (tracer.on()) {
    const std::int64_t span =
        tracer.add("point", "bench", id, parent, t0, t5);
    tracer.add("System::System", "core", id, span, t0, t1);
    tracer.add("System::run", "core", id, span, t1, t2);
    tracer.add("MetricsSnapshot::capture", "obs", id, span, t2, t3);
    tracer.add("System::~System", "core", id, span, t4, t5);
  }
  return out;
}

/// Exact kernel/model sanity of one result (beyond digest equality).
bool plausible(const core::RunResult& r, const workloads::Workload& w) {
  return r.jobs == w.invocations && r.makespan > 0 &&
         std::isfinite(r.energy.total()) && r.energy.total() > 0;
}

// ---------------------------------------------------------- passes

/// One pass over `points` on core::System, one point after another (build,
/// run, capture, teardown each). Outside the timed pass every entry is
/// encoded kEncodeReps times, for its digest and the warm-path analogue.
/// The per-point vectors are in point order; a failed point reads 0.
struct Pass {
  double wall_s = 0;        // the timed pass
  double attributed_s = 0;  // sum of build/run/capture/teardown spans
  double run_s = 0;         // sum of System::run
  double makespan_sum = 0;  // simulated cycles
  LayerCounts counts;
  std::vector<LayerCounts> point_counts;
  std::array<double, sim::kNumEventKinds> kind_seconds{};
  std::vector<double> build_ms, run_ms, capture_ms, teardown_ms;
  std::vector<double> point_s, latency_s;
  double snapshot_stats = 0;  // mean per point
  std::vector<std::uint64_t> digests;
  std::vector<double> encode_s;  // fast tenth of kEncodeReps per entry
  std::vector<double> entry_bytes;
};

Pass run_pass(const std::vector<Point>& points, Tracer& tracer,
              std::uint64_t pass_id, Outcome* outcome) {
  const std::size_t n = points.size();
  std::vector<PointRun> runs(n);
  std::vector<bool> ok(n, false);
  const std::int64_t root = tracer.open("pass", "bench", pass_id, -1);
  const double t0 = now_s();
  for (std::size_t i = 0; i < n; ++i) {
    ++outcome->attempted;
    try {
      runs[i] = run_point(points[i], tracer, i, root);
      ok[i] = true;
    } catch (const std::exception& e) {
      outcome->fail(points[i].label + ": " + e.what());
    }
  }
  Pass ps;
  ps.wall_s = now_s() - t0;
  tracer.close(root);

  std::size_t done = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const PointRun& r = runs[i];
    if (ok[i]) {
      ++done;
      if (!plausible(r.entry.result, *points[i].workload)) {
        outcome->fail("implausible result: " + points[i].label);
      }
    }
    ps.build_ms.push_back(r.build_s * 1e3);
    ps.run_ms.push_back(r.run_s * 1e3);
    ps.capture_ms.push_back(r.capture_s * 1e3);
    ps.teardown_ms.push_back(r.teardown_s * 1e3);
    ps.point_s.push_back(r.point_s);
    ps.latency_s.push_back(r.latency_s);
    ps.snapshot_stats += static_cast<double>(r.snapshot_stats);
    ps.run_s += r.run_s;
    ps.attributed_s += r.build_s + r.run_s + r.capture_s + r.teardown_s;
    ps.makespan_sum += static_cast<double>(r.entry.result.makespan);
    ps.counts += r.counts;
    ps.point_counts.push_back(r.counts);
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      ps.kind_seconds[k] += r.kind_seconds[k];
    }
  }
  if (done > 0) ps.snapshot_stats /= static_cast<double>(done);

  const std::int64_t enc_root = tracer.open("encode", "bench", pass_id, -1);
  for (std::size_t i = 0; i < n; ++i) {
    const Encoded enc =
        encode(points[i].key, runs[i].entry, tracer, i, enc_root, kEncodeReps);
    ps.encode_s.push_back(enc.seconds);
    ps.digests.push_back(enc.digest);
    ps.entry_bytes.push_back(static_cast<double>(enc.bytes));
  }
  tracer.close(enc_root);
  return ps;
}

/// Where the time of a serial pass went; dse::run's per-point time covers
/// only build + run + capture.
std::string gap_note(const Pass& ps) {
  return "jobs-1 gap: serial pass " + number_text(ps.wall_s) +
         " s = build+run+capture " + number_text(sum(ps.point_s)) +
         " s + teardown " + number_text(sum(ps.teardown_ms) / 1e3) +
         " s + unattributed " + number_text(ps.wall_s - ps.attributed_s) + " s";
}

/// sim.kind_ms.*: host time per event kind, in milliseconds.
void put_kind_ms(const std::array<double, sim::kNumEventKinds>& seconds,
                 std::map<std::string, double>* m) {
  auto ms = [&](sim::EventKind k) {
    return seconds[static_cast<std::size_t>(k)] * 1e3;
  };
  (*m)["sim.kind_ms.slot_release"] = ms(sim::EventKind::kSlotRelease);
  (*m)["sim.kind_ms.task_complete"] = ms(sim::EventKind::kTaskComplete);
  (*m)["sim.kind_ms.job_admit"] = ms(sim::EventKind::kJobAdmit);
}

/// Per-layer metrics that come from a direct pass over the count set.
void put_count_metrics(const Pass& ps, std::map<std::string, double>* m) {
  const LayerCounts& c = ps.counts;
  auto& out = *m;
  auto ratio = [](double num, double den) { return den == 0 ? 0 : num / den; };
  const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
  out["sim.events"] = d(c.events);
  put_kind_ms(ps.kind_seconds, m);
  out["noc.packets"] = d(c.packets);
  out["noc.link_reservations"] = d(c.link_reservations);
  out["noc.reservations_per_packet"] = ratio(d(c.link_reservations), d(c.packets));
  out["noc.flit_hops"] = d(c.flit_hops);
  out["noc.ns_per_reservation"] = ratio(ps.run_s * 1e9, d(c.link_reservations));
  out["island.dma_chunks"] = d(c.dma_chunks);
  out["island.net_bytes"] = d(c.net_bytes);
  out["island.tlb_hit_rate"] = ratio(d(c.tlb_hits), d(c.tlb_hits + c.tlb_misses));
  out["mem.l2_accesses"] = d(c.l2_accesses);
  out["mem.l2_hit_rate"] = ratio(d(c.l2_hits), d(c.l2_accesses));
  out["mem.mc_reservations"] = d(c.mc_reservations);
  out["mem.dram_bytes"] = d(c.dram_bytes);
  out["abc.tasks_started"] = d(c.tasks_started);
  out["abc.chains_direct"] = d(c.chains_direct);
  out["abc.chains_spilled"] = d(c.chains_spilled);
  out["abc.gam_queued"] = d(c.gam_queued);
  out["core.build_ms_p50"] = quantile(ps.build_ms, 0.50);
  out["core.build_ms_p75"] = quantile(ps.build_ms, 0.75);
  out["core.run_ms_p50"] = quantile(ps.run_ms, 0.50);
  out["core.run_ms_p75"] = quantile(ps.run_ms, 0.75);
  out["core.teardown_ms_p50"] = quantile(ps.teardown_ms, 0.50);
  out["core.teardown_ms_p75"] = quantile(ps.teardown_ms, 0.75);
  out["core.unattributed_s"] = ps.wall_s - ps.attributed_s;
  out["obs.capture_ms"] = quantile(ps.capture_ms, 0.50);
  out["obs.snapshot_stats"] = ps.snapshot_stats;
  out["dse.entry_encode_us"] = quantile(ps.encode_s, 0.50) * 1e6;
  out["dse.entry_bytes"] = ratio(sum(ps.entry_bytes),
                                 static_cast<double>(ps.entry_bytes.size()));
}

// ------------------------------------------------------------- verify pass

dse::ResultCache::Entry entry_of(const dse::SweepResult& r) {
  dse::ResultCache::Entry e;
  e.result = r.result;
  e.metrics = r.metrics;
  e.events = r.events;
  e.event_kinds = r.event_kinds;
  for (auto& k : e.event_kinds) k.seconds = 0;
  return e;
}

/// Untimed: re-run `points` with the invariant checker armed, directly on
/// core::System and through dse::run; both digests must equal each other
/// and `expected` (0 = no timed digest to compare with).
std::uint64_t verify_pass(const std::vector<Point>& points,
                          const std::vector<std::uint64_t>& expected,
                          Outcome* outcome) {
  std::uint64_t violations = 0;
  check::set_enabled(true);
  Tracer off(false);
  for (std::size_t i = 0; i < points.size(); ++i) {
    const Point& p = points[i];
    ++outcome->attempted;
    try {
      core::System sys(p.config);
      dse::ResultCache::Entry e;
      e.result = sys.run(*p.workload);
      e.metrics = obs::MetricsSnapshot::capture(sys.stats());
      e.events = sys.simulator().events_processed();
      e.event_kinds = sys.simulator().kind_stats();
      for (auto& k : e.event_kinds) k.seconds = 0;
      if (sys.checker() == nullptr || sys.checker()->checks_passed() == 0) {
        outcome->fail("invariant checker did not run: " + p.label);
      }
      const std::uint64_t direct = encode(p.key, e, off, i, -1).digest;
      dse::SweepRequest req;
      req.add(p.config, *p.workload);
      const std::uint64_t via_dse =
          encode(p.key, entry_of(dse::run(req).at(0)), off, i, -1).digest;
      if (direct != via_dse) {
        outcome->fail("digest differs between System and dse::run: " + p.label);
      }
      if (expected[i] != 0 && direct != expected[i]) {
        outcome->fail("digest differs from the timed run: " + p.label);
      }
    } catch (const check::CheckError& e) {
      ++violations;
      outcome->fail(std::string("invariant violation: ") + e.what());
    } catch (const std::exception& e) {
      outcome->fail(p.label + ": " + e.what());
    }
  }
  check::set_enabled(false);
  return violations;
}

/// Digests of `points` computed through dse::run (digest-only mode and
/// points a serve run did not happen to serve).
std::vector<std::uint64_t> dse_digests(const std::vector<Point>& points,
                                       unsigned jobs) {
  dse::SweepRequest req;
  req.jobs = jobs;
  for (const Point& p : points) req.add(p.config, *p.workload);
  const std::vector<dse::SweepResult> rs = dse::run(req);
  Tracer off(false);
  std::vector<std::uint64_t> out;
  for (std::size_t i = 0; i < points.size(); ++i) {
    out.push_back(encode(points[i].key, entry_of(rs[i]), off, i, -1).digest);
  }
  return out;
}

// ------------------------------------------------------------------ pins

/// Combined digest of a workload's pinned point set, in its given order.
std::uint64_t combine(const std::vector<std::uint64_t>& keys,
                      const std::vector<std::uint64_t>& digests) {
  std::string text;
  for (std::size_t i = 0; i < keys.size(); ++i) {
    text += hex64(keys[i]) + ":" + hex64(digests[i]) + ";";
  }
  return core::fnv1a64(text);
}

/// "ok", "MISMATCH ..." or "unpinned (...)" for a combined digest. Pins
/// live in pins.json as {"<salt>": {"<workload>": {"<seed>"|"any": hex}}}.
std::string pin_status(const std::string& pins_path, const std::string& workload,
                       std::uint64_t seed, bool quick, std::uint64_t combined) {
  if (quick) return "unpinned (quick mode)";
  std::ifstream in(pins_path);
  if (pins_path.empty() || !in) return "unpinned (no pin file)";
  std::stringstream text;
  text << in.rdbuf();
  obs::JsonValue root;
  if (!obs::parse_json(text.str(), &root)) {
    return "MISMATCH (pin file is not valid JSON)";
  }
  const std::string salt = std::to_string(dse::kSimVersionSalt);
  const obs::JsonValue* by_salt = root.find(salt);
  if (by_salt == nullptr) return "unpinned (no pins for salt " + salt + ")";
  const obs::JsonValue* by_seed = by_salt->find(workload);
  if (by_seed == nullptr) return "unpinned (no pins for this workload)";
  const obs::JsonValue* pin = by_seed->find("any");
  if (pin == nullptr) pin = by_seed->find(std::to_string(seed));
  if (pin == nullptr) return "unpinned (seed " + std::to_string(seed) + ")";
  if (pin->text == hex64(combined)) return "ok";
  return "MISMATCH (pinned " + pin->text + ")";
}

// --------------------------------------------------------------- reports

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20;
  bool trace = false;
  bool quick = false;
  bool digest_only = false;
  std::string out_dir = ".";
  std::string commit = "unknown";
  std::string pins;
};

/// Everything a workload run reports.
struct Report {
  Outcome outcome;
  std::map<std::string, double> metrics;
  std::vector<std::uint64_t> pin_keys;  // the combined digest's points
  std::vector<std::uint64_t> pin_digests;
  std::vector<std::string> notes;
};

/// Repeat timed set-ups (at least kSetupMinReps, for at least
/// kSetupSeconds; 2 in quick mode) and return the last, the only one traced;
/// *median_s gets their median time. Discarded set-ups are torn down outside
/// the timing. The count goes to `notes`.
template <typename SetupFn>
auto timed_setups(const Options& opt, SetupFn&& setup, double* median_s,
                  std::vector<std::string>* notes) {
  const std::size_t min_reps = opt.quick ? 2 : kSetupMinReps;
  const double min_seconds = opt.quick ? 0 : kSetupSeconds;
  std::vector<double> times;
  const double start = now_s();
  for (;;) {
    const bool last =
        times.size() + 1 >= min_reps && now_s() - start >= min_seconds;
    const double t0 = now_s();
    auto value = setup(last);
    times.push_back(now_s() - t0);
    if (last) {
      *median_s = median(times);
      notes->push_back("set-up: median of " + std::to_string(times.size()) +
                       " set-ups");
      return value;
    }
  }
}

/// Per-layer metrics every workload reports the same way.
void put_common_layer_metrics(const Tracer& tracer, double make_s,
                              std::map<std::string, double>* m) {
  for (const auto& [layer, s] : tracer.self_seconds()) {
    (*m)["self_s." + layer] = s;
  }
  (*m)["workloads.make_ms"] = make_s * 1e3;
  for (const char* name :
       {"dse.cache_hits", "dse.cache_misses", "dse.coalesced",
        "dse.search_overhead_ms", "serve.rejected"}) {
    m->emplace(name, 0.0);
  }
  for (const char* phase : {"queued", "cache_lookup", "simulate",
                            "coalesce_wait", "serialize", "wire"}) {
    for (const char* cls : {"cold", "warm"}) {
      m->emplace(std::string("serve.") + phase + "_ms." + cls, 0.0);
    }
  }
}

/// First `n` elements of `v`.
template <typename T>
std::vector<T> head(const std::vector<T>& v, std::size_t n) {
  return {v.begin(), v.begin() + static_cast<std::ptrdiff_t>(std::min(n, v.size()))};
}

// ============================================================ point_serial

struct SerialInputs {
  WorkloadSet workloads;
  std::vector<Point> points;
  double make_s = 0;
};

/// The seeded sample: every benchmark on every (island count x network)
/// pair, the other knobs dealt evenly and shuffled. Quick mode keeps one
/// point per benchmark.
SerialInputs serial_inputs(const Options& opt, Tracer& tracer) {
  SerialInputs in;
  const std::int64_t root = tracer.open("setup", "bench", 0, -1);
  const auto& names = workloads::benchmark_names();
  in.workloads = make_workloads(names, opt.quick ? kQuickScale : kPointScale,
                                tracer, root, &in.make_s);
  std::vector<std::pair<std::string, dse::PointSpec>> specs;
  for (std::size_t b = 0; b < names.size(); ++b) {
    for (std::size_t i = 0; i < kIslandCounts.size(); ++i) {
      for (std::size_t n = 0; n < kNets.size(); ++n) {
        if (opt.quick &&
            (i != b % kIslandCounts.size() || n != b % kNets.size())) {
          continue;
        }
        dse::PointSpec s;
        s.islands = kIslandCounts[i];
        s.net = kNets[n];
        specs.push_back({names[b], s});
      }
    }
  }
  Rng rng(opt.seed);
  const KnobDeck deck(specs.size(), rng);
  for (std::size_t i = 0; i < specs.size(); ++i) deck.apply(i, &specs[i].second);
  rng.shuffle(specs);
  for (const auto& [name, spec] : specs) {
    in.points.push_back(make_point(spec, in.workloads.at(name)));
  }
  tracer.close(root);
  return in;
}

/// Passes over `points` until another pass would end past `seconds`
/// (at least kMinRounds). Later passes must repeat the first pass's digests
/// and work counts exactly.
std::vector<Pass> serial_phase(const std::vector<Point>& points, double seconds,
                               Tracer& tracer, HostSpeed& host, Outcome* outcome) {
  std::vector<Pass> passes;
  const double start = now_s();
  for (;;) {
    Pass ps = run_pass(points, tracer, passes.size(), outcome);
    if (!passes.empty()) {
      for (std::size_t i = 0; i < points.size(); ++i) {
        if (ps.digests[i] != passes[0].digests[i]) {
          outcome->fail("digest changed between passes: " + points[i].label);
        }
        if (ps.point_counts[i] != passes[0].point_counts[i]) {
          outcome->fail("work counts changed between passes: " +
                        points[i].label);
        }
      }
    }
    passes.push_back(std::move(ps));
    host.sample();
    const double elapsed = now_s() - start;
    if (passes.size() >= kMinRounds &&
        elapsed * (1 + 1.0 / static_cast<double>(passes.size())) > seconds) {
      break;
    }
  }
  return passes;
}

/// A phase's passes reduced per point: the fast tenth of each point's
/// build + run + capture, build-to-teardown latency and encode time over
/// the passes.
struct PassSamples {
  std::vector<double> wall_s, point_s, latency_s, encode_s;
  double makespan = 0;  // one pass

  explicit PassSamples(const std::vector<Pass>& passes) {
    std::vector<std::vector<double>> point, latency, encode;
    for (const Pass& ps : passes) {
      wall_s.push_back(ps.wall_s);
      point.push_back(ps.point_s);
      latency.push_back(ps.latency_s);
      encode.push_back(ps.encode_s);
    }
    point_s = fast_per_point(point);
    latency_s = fast_per_point(latency);
    encode_s = fast_per_point(encode);
    makespan = passes.front().makespan_sum;
  }
};

Report run_point_serial(const Options& opt, Tracer& tracer, HostSpeed& host) {
  Report rep;
  double setup_s = 0;
  const SerialInputs in = timed_setups(
      opt,
      [&](bool last) {
        Tracer discard(false);
        return serial_inputs(opt, last ? tracer : discard);
      },
      &setup_s, &rep.notes);
  rep.notes.push_back("sample: " + std::to_string(in.points.size()) +
                      " points over all 7 benchmarks at scale " +
                      number_text(opt.quick ? kQuickScale : kPointScale) +
                      ", one after another");

  Tracer off(false);
  std::vector<Pass> untraced, traced;
  if (!opt.trace) {
    untraced = serial_phase(in.points, opt.seconds, off, host, &rep.outcome);
  } else {
    untraced = serial_phase(in.points, opt.seconds / 2, off, host, &rep.outcome);
    traced = serial_phase(in.points, opt.seconds / 2, tracer, host, &rep.outcome);
  }
  const double rss = peak_rss_mib();
  const std::vector<Pass>& main = opt.trace ? traced : untraced;

  const std::uint64_t violations = verify_pass(
      head(in.points, 2), head(main[0].digests, 2), &rep.outcome);
  rep.notes.push_back("verify: 2 points re-run with the checker armed, " +
                      std::to_string(violations) + " invariant violations");
  for (const Point& p : in.points) rep.pin_keys.push_back(p.key);
  rep.pin_digests = main[0].digests;

  const PassSamples ps(main);
  const double sweep_s = sum(ps.latency_s);
  auto& m = rep.metrics;
  if (!opt.trace) {
    m["setup_s"] = setup_s;
    m["sweep_s"] = sweep_s;
    m["point_s_p50"] = quantile(ps.point_s, 0.50);
    m["point_s_p75"] = quantile(ps.point_s, 0.75);
    m["sim_cycles_per_s"] = ps.makespan / sum(ps.point_s);
    m["peak_rss_mb"] = rss;
    m["cold_ms_p50"] = quantile(ps.latency_s, 0.50) * 1e3;
    m["cold_ms_p90"] = quantile(ps.latency_s, 0.90) * 1e3;
    m["warm_ms_p50"] = quantile(ps.encode_s, 0.50) * 1e3;
    m["warm_ms_p90"] = quantile(ps.encode_s, 0.90) * 1e3;
    m["served_req_per_s"] = static_cast<double>(in.points.size()) / sweep_s;
  } else {
    // Exact counts and the jobs-1 split come from the first traced pass.
    put_count_metrics(main[0], &m);
    put_common_layer_metrics(tracer, in.make_s, &m);
    m["dse.parallel_efficiency"] = sum(ps.point_s) / sweep_s;
    m["warm_ms_p99"] = quantile(ps.encode_s, 0.99) * 1e3;
    m["trace.overhead_pct"] =
        (sweep_s / sum(PassSamples(untraced).latency_s) - 1) * 100;
    rep.notes.push_back(gap_note(main[0]));
  }
  std::string walls;
  for (const double w : ps.wall_s) walls += " " + number_text(w);
  rep.notes.push_back("pass wall s:" + walls);
  rep.notes.push_back("samples: " + std::to_string(main.size()) + " passes of " +
                      std::to_string(in.points.size()) +
                      " points; each point's time is the fast tenth of its " +
                      std::to_string(main.size()) + " repeats (encode: of " +
                      std::to_string(kEncodeReps) + " per pass)");
  return rep;
}

// ========================================================== sweep_parallel

struct SweepInputs {
  WorkloadSet workloads;
  std::vector<Point> points;  // grid order: benchmark, island count, net
  double make_s = 0;
};

/// The fixed paper grid: paper_island_counts() x paper_network_configs()
/// on Denoise and EKF-SLAM. The seed does not change it.
SweepInputs sweep_inputs(const Options& opt, Tracer& tracer) {
  SweepInputs in;
  const std::int64_t root = tracer.open("setup", "bench", 0, -1);
  const std::vector<std::string> names = {"Denoise", "EKF-SLAM"};
  in.workloads = make_workloads(names, opt.quick ? kQuickScale : kSweepScale,
                                tracer, root, &in.make_s);
  for (const auto& name : names) {
    for (const std::uint32_t islands : dse::paper_island_counts()) {
      if (opt.quick && islands != 3 && islands != 24) continue;
      for (const dse::ConfigPoint& cp : dse::paper_network_configs(islands)) {
        in.points.push_back(make_point(std::to_string(islands) + " islands " + cp.label,
                                       cp.config, in.workloads.at(name)));
      }
    }
  }
  tracer.close(root);
  return in;
}

struct SweepRun {
  std::int64_t dse_span = -1;  // the traced dse::run span
  double start = 0;
  double wall_s = 0;
  std::vector<double> point_s;
  double makespan_sum = 0;
  std::array<double, sim::kNumEventKinds> kind_seconds{};
  std::vector<std::uint64_t> digests;
  std::vector<double> encode_s;  // fast tenth of kEncodeReps per entry
};

/// dse::run sweeps of the grid until another would end past `seconds`
/// (at least kMinRounds); later sweeps must repeat the first's digests.
std::vector<SweepRun> sweep_phase(const SweepInputs& in, double seconds,
                                  Tracer& tracer, HostSpeed& host, Outcome* outcome) {
  dse::SweepRequest req;
  req.jobs = kSweepJobs;
  for (const Point& p : in.points) req.add(p.config, *p.workload);
  std::vector<SweepRun> runs;
  const double start = now_s();
  for (;;) {
    SweepRun sr;
    const std::uint64_t id = runs.size();
    const std::int64_t root = tracer.open("sweep", "bench", id, -1);
    outcome->attempted += in.points.size();
    std::vector<dse::SweepResult> results;
    const double t0 = now_s();
    const std::int64_t span = tracer.open("dse::run", "dse", id, root);
    try {
      results = dse::run(req);
    } catch (const std::exception& e) {
      outcome->failed += in.points.size() - 1;
      outcome->fail(std::string("dse::run: ") + e.what());
      tracer.close(span);
      tracer.close(root);
      break;
    }
    sr.dse_span = span;
    sr.start = t0;
    sr.wall_s = now_s() - t0;
    tracer.close(span);
    tracer.close(root);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const dse::SweepResult& r = results[i];
      // Executor time per point, concurrent on kSweepJobs workers.
      tracer.add("point", "core", i, span, t0, t0 + r.wall_seconds, kSweepJobs);
      if (!plausible(r.result, *in.points[i].workload)) {
        outcome->fail("implausible result: " + in.points[i].label);
      }
      sr.point_s.push_back(r.wall_seconds);
      sr.makespan_sum += static_cast<double>(r.result.makespan);
      for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
        sr.kind_seconds[k] += r.event_kinds[k].seconds;
      }
    }
    const std::int64_t enc_root = tracer.open("encode", "bench", id, -1);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Encoded enc = encode(in.points[i].key, entry_of(results[i]), tracer,
                                 i, enc_root, kEncodeReps);
      sr.digests.push_back(enc.digest);
      sr.encode_s.push_back(enc.seconds);
      if (!runs.empty() && sr.digests[i] != runs[0].digests[i]) {
        outcome->fail("digest changed between sweeps: " + in.points[i].label);
      }
    }
    tracer.close(enc_root);
    runs.push_back(std::move(sr));
    host.sample();
    const double elapsed = now_s() - start;
    if (runs.size() >= kMinRounds &&
        elapsed * (1 + 1.0 / static_cast<double>(runs.size())) > seconds) {
      break;
    }
  }
  return runs;
}

Report run_sweep_parallel(const Options& opt, Tracer& tracer, HostSpeed& host) {
  Report rep;
  double setup_s = 0;
  const SweepInputs in = timed_setups(
      opt,
      [&](bool last) {
        Tracer discard(false);
        return sweep_inputs(opt, last ? tracer : discard);
      },
      &setup_s, &rep.notes);
  rep.notes.push_back("grid: " + std::to_string(in.points.size()) +
                      " points (Denoise + EKF-SLAM) at scale " +
                      number_text(opt.quick ? kQuickScale : kSweepScale) +
                      ", dse::run jobs " + std::to_string(kSweepJobs));

  Tracer off(false);
  std::vector<SweepRun> untraced, traced;
  if (!opt.trace) {
    untraced = sweep_phase(in, opt.seconds, off, host, &rep.outcome);
  } else {
    untraced = sweep_phase(in, opt.seconds / 2, off, host, &rep.outcome);
    traced = sweep_phase(in, opt.seconds / 2, tracer, host, &rep.outcome);
  }
  const double rss = peak_rss_mib();
  const std::vector<SweepRun>& main = opt.trace ? traced : untraced;
  if (main.empty() || main[0].digests.size() != in.points.size()) {
    throw std::runtime_error("no complete sweep");
  }

  // The cheapest point of each benchmark (24 islands, last in the grid).
  const std::size_t half = in.points.size() / 2;
  const std::vector<Point> vpoints = {in.points[half - 1], in.points.back()};
  const std::uint64_t violations = verify_pass(
      vpoints, {main[0].digests[half - 1], main[0].digests.back()}, &rep.outcome);
  rep.notes.push_back("verify: 2 points re-run with the checker armed, " +
                      std::to_string(violations) + " invariant violations");
  for (const Point& p : in.points) rep.pin_keys.push_back(p.key);
  rep.pin_digests = main[0].digests;

  // Each point's time is the fast tenth of its repeats over the sweeps.
  std::vector<double> sweep_s, all_point_s;
  std::vector<std::vector<double>> point_reps, encode_reps;
  for (const SweepRun& sr : main) {
    sweep_s.push_back(sr.wall_s);
    all_point_s.insert(all_point_s.end(), sr.point_s.begin(), sr.point_s.end());
    point_reps.push_back(sr.point_s);
    encode_reps.push_back(sr.encode_s);
  }
  const std::vector<double> point_s = fast_per_point(point_reps);
  const std::vector<double> encode_s = fast_per_point(encode_reps);
  auto& m = rep.metrics;
  if (!opt.trace) {
    m["setup_s"] = setup_s;
    m["sweep_s"] = fast(sweep_s);
    m["point_s_p50"] = quantile(point_s, 0.50);
    m["point_s_p75"] = quantile(point_s, 0.75);
    m["sim_cycles_per_s"] = main[0].makespan_sum / sum(point_s);
    m["peak_rss_mb"] = rss;
    m["cold_ms_p50"] = quantile(point_s, 0.50) * 1e3;
    m["cold_ms_p90"] = quantile(point_s, 0.90) * 1e3;
    m["warm_ms_p50"] = quantile(encode_s, 0.50) * 1e3;
    m["warm_ms_p90"] = quantile(encode_s, 0.90) * 1e3;
    m["served_req_per_s"] = static_cast<double>(in.points.size()) / fast(sweep_s);
  } else {
    // Exact counts and the host-time split need the System, so the grid
    // is replayed serially on core::System; its digests must equal
    // dse::run's.
    const Pass replay = run_pass(in.points, tracer, 0, &rep.outcome);
    if (replay.digests != main[0].digests) {
      rep.outcome.fail("digests differ between System and dse::run");
    }
    // A worker destroys each System after its wall_seconds end, inside
    // dse::run. Charge the replay's teardown of the same point to core, so
    // that dse self time is the executor's own.
    for (const SweepRun& sr : traced) {
      for (std::size_t i = 0;
           i < sr.point_s.size() && i < replay.teardown_ms.size(); ++i) {
        const double end = sr.start + sr.point_s[i];
        tracer.add("System::~System (replay)", "core", i, sr.dse_span, end,
                   end + replay.teardown_ms[i] / 1e3, kSweepJobs);
      }
    }
    put_count_metrics(replay, &m);
    put_common_layer_metrics(tracer, in.make_s, &m);
    rep.notes.push_back(gap_note(replay));
    // Event-kind host time as dse::run reports it (SweepResult::event_kinds).
    put_kind_ms(main[0].kind_seconds, &m);
    m["dse.parallel_efficiency"] = sum(all_point_s) / (sum(sweep_s) * kSweepJobs);
    m["warm_ms_p99"] = quantile(encode_s, 0.99) * 1e3;
    std::vector<double> u;
    for (const SweepRun& sr : untraced) u.push_back(sr.wall_s);
    m["trace.overhead_pct"] = (fast(sweep_s) / fast(u) - 1) * 100;
  }
  std::string walls;
  for (const double w : sweep_s) walls += " " + number_text(w);
  rep.notes.push_back("sweep wall s:" + walls);
  rep.notes.push_back("samples: " + std::to_string(main.size()) + " sweeps of " +
                      std::to_string(in.points.size()) +
                      " points; each point's time is the fast tenth of its " +
                      std::to_string(main.size()) + " repeats");
  return rep;
}

// ============================================================= serve_mixed

/// A point a client may request, with its wire JSON.
struct ServePoint {
  Point point;
  std::string workload;
  std::string json;
};

struct ServeInputs {
  double scale = kPointScale;
  WorkloadSet workloads;
  std::map<std::string, std::vector<ServePoint>> warm;  // per benchmark
  std::vector<ServePoint> cold;    // first-seen points, in stream order
  std::vector<std::string> searches;  // search request bodies
  double make_s = 0;
};

std::string point_json(const dse::PointSpec& s) {
  std::ostringstream os;
  os << "{\"islands\":" << s.islands << ",\"net\":\"" << s.net
     << "\",\"rings\":" << s.rings << ",\"width\":" << s.link_bytes
     << ",\"ports\":" << s.ports << ",\"sharing\":" << (s.sharing ? "true" : "false")
     << ",\"mono\":" << (s.mono ? "true" : "false") << ",\"policy\":\""
     << s.policy << "\"}";
  return os.str();
}

/// Seeded pool: 4 warm points per benchmark (simulated by the untimed
/// warm-up, cached after that), a stratified stream of first-seen points (each block of 12
/// covers every island count x network on one benchmark, the benchmarks
/// in turn), and two small searches. `cold_capacity` bounds the stream.
ServeInputs serve_inputs(const Options& opt, std::size_t cold_capacity,
                         Tracer& tracer) {
  ServeInputs in;
  in.scale = opt.quick ? kQuickScale : kPointScale;
  const std::int64_t root = tracer.open("setup", "bench", 0, -1);
  const auto& names = workloads::benchmark_names();
  in.workloads = make_workloads(names, in.scale, tracer, root, &in.make_s);
  Rng rng(opt.seed);
  std::set<std::uint64_t> used;
  const KnobDeck warm_deck(names.size() * kWarmPerWorkload, rng);
  for (std::size_t b = 0; b < names.size(); ++b) {
    for (std::size_t j = 0; j < kWarmPerWorkload; ++j) {
      dse::PointSpec s;
      s.islands = kIslandCounts[j % kIslandCounts.size()];
      s.net = kNets[(j + b) % kNets.size()];
      warm_deck.apply(b * kWarmPerWorkload + j, &s);
      ServePoint sp{make_point(s, in.workloads.at(names[b])), names[b], point_json(s)};
      if (used.insert(sp.point.key).second) in.warm[names[b]].push_back(std::move(sp));
    }
  }
  for (std::size_t i = 0; i < 2; ++i) {
    std::ostringstream os;
    os << "\"workload\":\"" << names[rng.below(names.size())]
       << "\",\"scale\":" << number_text(in.scale)
       << ",\"objective\":\"perf\",\"budget\":4,\"seed\":" << (opt.seed * 2 + i)
       << ",\"space\":{\"islands\":[3,24],\"nets\":[\"ring\",\"proxy\"],"
          "\"rings\":[1,2],\"widths\":[32],\"ports\":[1],\"sharing\":[false],"
          "\"mono\":[false],\"policies\":[\"fifo\"]}";
    in.searches.push_back(os.str());
  }
  const std::size_t block = kIslandCounts.size() * kNets.size();
  for (std::size_t blk = 0; in.cold.size() < cold_capacity; ++blk) {
    const std::string& name = names[blk % names.size()];
    std::vector<std::size_t> order(block);
    for (std::size_t i = 0; i < block; ++i) order[i] = i;
    rng.shuffle(order);
    const KnobDeck deck(block, rng);
    for (std::size_t j = 0; j < block; ++j) {
      dse::PointSpec s;
      s.islands = kIslandCounts[order[j] / kNets.size()];
      s.net = kNets[order[j] % kNets.size()];
      deck.apply(j, &s);
      ServePoint sp{make_point(s, in.workloads.at(name)), name, point_json(s)};
      if (used.insert(sp.point.key).second) in.cold.push_back(std::move(sp));
    }
  }
  tracer.close(root);
  return in;
}

/// One planned request of a client's seeded stream.
struct Planned {
  std::string frame;
  bool search = false;
  std::size_t search_index = 0;
  std::vector<std::uint64_t> keys;  // sweep points, in request order
};

/// A sweep request for `points`, all of `workload`.
Planned sweep_request(const ServeInputs& in, const std::string& client,
                      const std::string& workload,
                      const std::vector<const ServePoint*>& points) {
  Planned p;
  std::string body;
  for (const ServePoint* sp : points) {
    body += (body.empty() ? "" : ",") + sp->json;
    p.keys.push_back(sp->point.key);
  }
  p.frame = "{\"type\":\"sweep\",\"client\":\"" + client +
            "\",\"workload\":\"" + workload + "\",\"scale\":" +
            number_text(in.scale) + ",\"points\":[" + body + "]}";
  return p;
}

/// A client's request stream: deterministic for (seed, client), generated
/// as it is consumed. Cold points come from the shared first-seen stream,
/// client c taking elements c, c + clients, ...
class RequestStream {
 public:
  RequestStream(const ServeInputs& in, unsigned client, std::uint64_t seed)
      : in_(in), client_(client), rng_(seed * 7919 + client + 1), cold_next_(client) {}

  Planned next() {
    const std::size_t i = issued_++;
    const double u = rng_.unit();
    Planned p;
    if (i == kSearchAt) {
      p.search = true;
      p.search_index = client_ % in_.searches.size();
      p.frame = "{\"type\":\"search\",\"client\":\"c" + std::to_string(client_) +
                "\"," + in_.searches[p.search_index] + "}";
      return p;
    }
    const auto& names = workloads::benchmark_names();
    std::vector<const ServePoint*> points;
    std::string workload;
    if (u < kColdShare && cold_next_ < in_.cold.size()) {
      const ServePoint& cold = in_.cold[cold_next_];
      cold_next_ += kServeClients;
      workload = cold.workload;
      points.push_back(&cold);
      add_warm(workload, rng_.below(kWarmPerWorkload), &points);
    } else {
      workload = names[rng_.below(names.size())];
      add_warm(workload, 1 + rng_.below(kWarmPerWorkload), &points);
    }
    return sweep_request(in_, "c" + std::to_string(client_), workload, points);
  }

 private:
  void add_warm(const std::string& workload, std::size_t n,
                std::vector<const ServePoint*>* out) {
    const std::vector<ServePoint>& pool = in_.warm.at(workload);
    std::vector<std::size_t> idx(pool.size());
    for (std::size_t k = 0; k < idx.size(); ++k) idx[k] = k;
    rng_.shuffle(idx);
    for (std::size_t k = 0; k < std::min(n, idx.size()); ++k) {
      out->push_back(&pool[idx[k]]);
    }
  }

  const ServeInputs& in_;
  unsigned client_;
  Rng rng_;
  std::size_t issued_ = 0;
  std::size_t cold_next_;
};

enum class ReqClass { kCold, kWarm, kCoalesced, kError };

struct ReqRecord {
  double start = 0;
  double end = 0;
  ReqClass cls = ReqClass::kError;
  std::uint64_t trace_id = 0;
  bool search = false;
  double search_wall_s = 0;
  std::vector<double> point_s;  // server wall seconds of simulated points
  double makespan = 0;          // their simulated cycles
  std::size_t window = 0;
};

/// End of the JSON object starting at s[pos] == '{' (string-aware), or npos.
std::size_t object_end(const std::string& s, std::size_t pos) {
  int depth = 0;
  bool in_string = false;
  for (std::size_t i = pos; i < s.size(); ++i) {
    const char c = s[i];
    if (in_string) {
      if (c == '\\') {
        ++i;
      } else if (c == '"') {
        in_string = false;
      }
    } else if (c == '"') {
      in_string = true;
    } else if (c == '{') {
      ++depth;
    } else if (c == '}' && --depth == 0) {
      return i + 1;
    }
  }
  return std::string::npos;
}

/// Scalar value text of the next `"name":` at or after *pos; advances *pos.
bool scalar_field(const std::string& s, const std::string& name,
                  std::size_t* pos, std::string* value) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t at = s.find(tag, *pos);
  if (at == std::string::npos) return false;
  const std::size_t start = at + tag.size();
  const std::size_t end = s.find_first_of(",}]", start);
  if (end == std::string::npos) return false;
  *value = s.substr(start, end - start);
  *pos = end;
  return true;
}

/// Object text of the next `"name":{...}` at or after *pos; advances *pos.
bool object_field(const std::string& s, const std::string& name,
                  std::size_t* pos, std::string* value) {
  const std::string tag = "\"" + name + "\":";
  const std::size_t at = s.find(tag, *pos);
  if (at == std::string::npos) return false;
  const std::size_t start = at + tag.size();
  const std::size_t end = object_end(s, start);
  if (end == std::string::npos) return false;
  *value = s.substr(start, end - start);
  *pos = end;
  return true;
}

/// What the clients observed, merged under a lock.
struct ServeBook {
  std::mutex mu;
  std::map<std::uint64_t, std::uint64_t> digest_by_key;
  std::map<std::size_t, std::uint64_t> digest_by_search;
  std::vector<ReqRecord> records;
  std::uint64_t rejected = 0;
  Outcome outcome;

  /// False when `digest` differs from an earlier one for `key`.
  template <typename K>
  static bool agree(std::map<K, std::uint64_t>* book, K key, std::uint64_t digest) {
    const auto [it, fresh] = book->emplace(key, digest);
    return fresh || it->second == digest;
  }
};

/// Classify one response and check it against the book.
ReqRecord absorb(const Planned& req, const std::string& resp, ServeBook* book,
                 Outcome* outcome) {
  ReqRecord rec;
  std::size_t pos = 0;
  std::string v;
  if (resp.rfind("{\"type\":\"error\"", 0) == 0) {
    std::string code;
    scalar_field(resp, "code", &pos, &code);
    std::lock_guard<std::mutex> lock(book->mu);
    if (code == "\"overloaded\"" || code == "\"draining\"") ++book->rejected;
    outcome->fail("error response: " + resp.substr(0, 200));
    return rec;
  }
  if (scalar_field(resp, "trace_id", &pos, &v)) {
    rec.trace_id = std::strtoull(v.c_str(), nullptr, 10);
  }
  if (req.search) {
    std::string simulated, coalesced, wall, result;
    if (!scalar_field(resp, "simulated", &pos, &simulated) ||
        !scalar_field(resp, "coalesced", &pos, &coalesced) ||
        !scalar_field(resp, "wall_seconds", &pos, &wall) ||
        !object_field(resp, "result", &pos, &result)) {
      outcome->fail("malformed search response");
      return rec;
    }
    rec.search = true;
    rec.search_wall_s = std::strtod(wall.c_str(), nullptr);
    rec.cls = simulated != "0" ? ReqClass::kCold
              : coalesced != "0" ? ReqClass::kCoalesced
                                 : ReqClass::kWarm;
    std::lock_guard<std::mutex> lock(book->mu);
    if (!ServeBook::agree(&book->digest_by_search, req.search_index,
                          core::fnv1a64(result))) {
      outcome->fail("search result changed between repeats");
    }
    return rec;
  }
  bool simulated = false;
  bool all_cached = true;
  std::vector<std::uint64_t> digests;
  for (const std::uint64_t key : req.keys) {
    std::string from_cache, coalesced, wall, entry;
    if (!scalar_field(resp, "from_cache", &pos, &from_cache) ||
        !scalar_field(resp, "coalesced", &pos, &coalesced) ||
        !scalar_field(resp, "wall_seconds", &pos, &wall) ||
        !object_field(resp, "entry", &pos, &entry)) {
      outcome->fail("malformed sweep response");
      return rec;
    }
    digests.push_back(core::fnv1a64(entry));
    if (from_cache != "true") all_cached = false;
    if (from_cache != "true" && coalesced != "true") {
      simulated = true;
      dse::ResultCache::Entry e;
      if (!dse::ResultCache::from_json(entry, key, dse::kSimVersionSalt, &e)) {
        outcome->fail("served entry does not decode");
        return rec;
      }
      rec.point_s.push_back(std::strtod(wall.c_str(), nullptr));
      rec.makespan += static_cast<double>(e.result.makespan);
    }
  }
  rec.cls = simulated ? ReqClass::kCold
            : all_cached ? ReqClass::kWarm
                         : ReqClass::kCoalesced;
  std::lock_guard<std::mutex> lock(book->mu);
  for (std::size_t i = 0; i < req.keys.size(); ++i) {
    if (!ServeBook::agree(&book->digest_by_key, req.keys[i], digests[i])) {
      outcome->fail("served entry changed between requests: key " + hex64(req.keys[i]));
    }
  }
  return rec;
}

/// One closed-loop client in one window: send, wait for the reply, repeat
/// until the deadline. `stream` carries on from the previous window.
void client_loop(RequestStream& stream, const std::string& socket,
                 std::size_t window, double deadline, ServeBook* book) {
  Outcome outcome;
  std::vector<ReqRecord> records;
  const int fd = serve::protocol::connect_unix(socket);
  if (fd < 0) {
    ++outcome.attempted;
    outcome.fail("client cannot connect");
  }
  while (fd >= 0 && now_s() < deadline) {
    const Planned req = stream.next();
    std::string resp;
    ++outcome.attempted;
    const double t0 = now_s();
    const bool sent = serve::protocol::write_frame(fd, req.frame);
    const bool got = sent && serve::protocol::read_frame(fd, &resp) ==
                                 serve::protocol::ReadStatus::kOk;
    const double t1 = now_s();
    if (!got) {
      outcome.fail("transport error");
      break;
    }
    ReqRecord rec = absorb(req, resp, book, &outcome);
    rec.start = t0;
    rec.end = t1;
    rec.window = window;
    records.push_back(rec);
  }
  if (fd >= 0) ::close(fd);
  std::lock_guard<std::mutex> lock(book->mu);
  book->outcome.merge(outcome);
  book->records.insert(book->records.end(), records.begin(), records.end());
}

/// A running in-process server with its accept loop.
class LiveServer {
 public:
  LiveServer(const std::string& socket, const std::string& log_path)
      : socket_(socket) {
    serve::ServerOptions so;
    so.socket_path = socket;
    so.jobs = kServeJobs;
    so.handlers = kServeHandlers;
    so.log_path = log_path;
    server_ = std::make_unique<serve::Server>(so);
    server_->start();
    std::string error;
    if (!server_->listen(&error)) throw std::runtime_error("listen: " + error);
    accept_ = std::thread([this] { server_->serve(stop_); });
  }
  ~LiveServer() {
    stop_.store(1, std::memory_order_release);
    // Wake the accept loop's poll so shutdown does not wait out its timeout.
    const int fd = serve::protocol::connect_unix(socket_);
    accept_.join();
    if (fd >= 0) ::close(fd);
  }
  LiveServer(const LiveServer&) = delete;
  LiveServer& operator=(const LiveServer&) = delete;

 private:
  std::string socket_;
  std::unique_ptr<serve::Server> server_;
  std::atomic<int> stop_{0};
  std::thread accept_;
};

struct ServeSession {
  double start = 0;
  double end = 0;
  double wall_s = 0;                // the windows' total
  std::vector<double> window_s;
  std::uint64_t completed = 0;
  std::vector<ReqRecord> records;
  std::uint64_t rejected = 0;
  std::map<std::uint64_t, std::uint64_t> digest_by_key;
  std::map<std::string, std::uint64_t> server_counters;
};

/// Read the server's counters through the stats endpoint.
std::map<std::string, std::uint64_t> stats_counters(const std::string& socket,
                                                    Outcome* outcome) {
  std::map<std::string, std::uint64_t> out;
  const int fd = serve::protocol::connect_unix(socket);
  std::string resp;
  obs::JsonValue root;
  ++outcome->attempted;
  if (fd < 0 || !serve::protocol::write_frame(fd, "{\"type\":\"stats\"}") ||
      serve::protocol::read_frame(fd, &resp) != serve::protocol::ReadStatus::kOk ||
      !obs::parse_json(resp, &root)) {
    outcome->fail("stats request failed");
  } else if (const obs::JsonValue* metrics = root.find("metrics")) {
    if (const obs::JsonValue* counters = metrics->find("counters")) {
      for (const auto& [name, v] : counters->members) out[name] = v.as_u64();
    }
  }
  if (fd >= 0) ::close(fd);
  return out;
}

/// Untimed: one request per benchmark with its whole warm pool, so that
/// the timed session starts with the pool cached. The responses are checked
/// like any other.
void warm_pool(const ServeInputs& in, const std::string& socket, ServeBook* book) {
  Outcome outcome;
  const int fd = serve::protocol::connect_unix(socket);
  for (const auto& [workload, pool] : in.warm) {
    std::vector<const ServePoint*> points;
    for (const ServePoint& sp : pool) points.push_back(&sp);
    const Planned req = sweep_request(in, "warmup", workload, points);
    std::string resp;
    ++outcome.attempted;
    if (fd < 0 || !serve::protocol::write_frame(fd, req.frame) ||
        serve::protocol::read_frame(fd, &resp) != serve::protocol::ReadStatus::kOk) {
      outcome.fail("warm-up transport error");
      break;
    }
    absorb(req, resp, book, &outcome);
  }
  if (fd >= 0) ::close(fd);
  std::lock_guard<std::mutex> lock(book->mu);
  book->outcome.merge(outcome);
}

/// The pool warm-up, then `clients` closed-loop clients for `seconds`
/// against `server`'s socket, in kServeWindows windows with a host-speed
/// sample after each (the server idle).
ServeSession serve_session(const ServeInputs& in, const std::string& socket,
                           std::uint64_t seed, double seconds, HostSpeed& host,
                           Outcome* outcome) {
  ServeBook book;
  warm_pool(in, socket, &book);
  std::vector<RequestStream> streams;
  for (unsigned c = 0; c < kServeClients; ++c) streams.emplace_back(in, c, seed);
  ServeSession s;
  s.start = now_s();
  for (std::size_t w = 0; w < kServeWindows; ++w) {
    const double t0 = now_s();
    const double deadline = t0 + seconds / kServeWindows;
    std::vector<std::thread> clients;
    for (RequestStream& stream : streams) {
      clients.emplace_back(client_loop, std::ref(stream), std::cref(socket), w,
                           deadline, &book);
    }
    for (auto& t : clients) t.join();
    s.window_s.push_back(now_s() - t0);
    s.wall_s += s.window_s.back();
    host.sample();
  }
  s.end = now_s();
  s.records = std::move(book.records);
  for (const ReqRecord& r : s.records) {
    if (r.cls != ReqClass::kError) ++s.completed;
  }
  s.rejected = book.rejected;
  s.digest_by_key = std::move(book.digest_by_key);
  outcome->merge(book.outcome);
  const auto counters = stats_counters(socket, outcome);
  s.server_counters.insert(counters.begin(), counters.end());
  return s;
}

std::vector<double> latencies(const ServeSession& s, ReqClass cls) {
  std::vector<double> out;
  for (const ReqRecord& r : s.records) {
    if (r.cls == cls) out.push_back(r.end - r.start);
  }
  return out;
}

/// Simulated points' server wall seconds, over the whole session.
std::vector<double> simulated_point_s(const ServeSession& s) {
  std::vector<double> out;
  for (const ReqRecord& r : s.records) {
    out.insert(out.end(), r.point_s.begin(), r.point_s.end());
  }
  return out;
}

/// Each window's figures (a window without samples of a kind has no entry
/// in that vector).
struct ServeWindows {
  std::vector<double> cold_p50, cold_p90, warm_p50, warm_p90;
  std::vector<double> point_p50, point_p75, cycles_per_s, req_per_s;

  explicit ServeWindows(const ServeSession& s) {
    std::vector<std::vector<double>> cold(kServeWindows), warm(kServeWindows),
        point(kServeWindows);
    std::vector<double> makespan(kServeWindows, 0), done(kServeWindows, 0);
    for (const ReqRecord& r : s.records) {
      const std::size_t w = r.window;
      if (r.cls == ReqClass::kCold) cold[w].push_back(r.end - r.start);
      if (r.cls == ReqClass::kWarm) warm[w].push_back(r.end - r.start);
      if (r.cls != ReqClass::kError) ++done[w];
      point[w].insert(point[w].end(), r.point_s.begin(), r.point_s.end());
      makespan[w] += r.makespan;
    }
    for (std::size_t w = 0; w < kServeWindows; ++w) {
      if (!cold[w].empty()) {
        cold_p50.push_back(quantile(cold[w], 0.50));
        cold_p90.push_back(quantile(cold[w], 0.90));
      }
      if (!warm[w].empty()) {
        warm_p50.push_back(quantile(warm[w], 0.50));
        warm_p90.push_back(quantile(warm[w], 0.90));
      }
      if (!point[w].empty()) {
        point_p50.push_back(quantile(point[w], 0.50));
        point_p75.push_back(quantile(point[w], 0.75));
        cycles_per_s.push_back(makespan[w] / sum(point[w]));
      }
      req_per_s.push_back(done[w] / s.window_s[w]);
    }
  }
};

/// The fast tenth of per-window rates (higher is faster).
double fast_rate(const std::vector<double>& v) { return quantile(v, 1 - kFastQ); }

/// One line of the server's JSONL request log.
struct LogLine {
  std::uint64_t total_ns = 0;
  std::map<std::string, std::uint64_t> phases_ns;
};

std::map<std::uint64_t, LogLine> read_request_log(const std::string& path) {
  std::map<std::uint64_t, LogLine> out;
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    obs::JsonValue v;
    if (!obs::parse_json(line, &v)) continue;
    const obs::JsonValue* id = v.find("trace_id");
    const obs::JsonValue* total = v.find("total_ns");
    const obs::JsonValue* phases = v.find("phases_ns");
    if (id == nullptr || total == nullptr || phases == nullptr) continue;
    LogLine l;
    l.total_ns = total->as_u64();
    for (const auto& [name, ns] : phases->members) l.phases_ns[name] = ns.as_u64();
    out[id->as_u64()] = std::move(l);
  }
  return out;
}

const char* phase_layer(const std::string& phase) {
  if (phase == "simulate") return "core";
  if (phase == "queued" || phase == "serialize") return "serve";
  return "dse";  // cache_lookup, coalesce_wait, search rounds
}

/// serve.* phase p50s by class, joined from the request log by trace_id,
/// plus the request and phase spans.
void put_serve_layer_metrics(const ServeSession& s,
                             const std::map<std::uint64_t, LogLine>& log,
                             Tracer& tracer, std::map<std::string, double>* m) {
  const std::int64_t root = tracer.add("session", "bench", 0, -1, s.start, s.end);
  std::map<std::string, std::vector<double>> samples;
  std::vector<double> search_overhead;
  for (const ReqRecord& r : s.records) {
    const auto it = log.find(r.trace_id);
    if (it == log.end() || r.trace_id == 0) continue;
    const LogLine& line = it->second;
    const std::int64_t span = tracer.add(r.search ? "search" : "sweep", "serve",
                                         r.trace_id, root, r.start, r.end,
                                         kServeClients);
    double at = r.start;
    for (const auto& [phase, ns] : line.phases_ns) {
      if (ns == 0) continue;
      tracer.add(phase, phase_layer(phase), r.trace_id, span, at, at + ns * 1e-9);
      at += ns * 1e-9;
    }
    if (r.search && r.cls == ReqClass::kCold) {
      search_overhead.push_back(line.total_ns * 1e-6 - r.search_wall_s * 1e3);
    }
    if (r.cls != ReqClass::kCold && r.cls != ReqClass::kWarm) continue;
    const std::string cls = r.cls == ReqClass::kCold ? "cold" : "warm";
    for (const char* phase :
         {"queued", "cache_lookup", "simulate", "coalesce_wait", "serialize"}) {
      const auto p = line.phases_ns.find(phase);
      samples[std::string("serve.") + phase + "_ms." + cls].push_back(
          p == line.phases_ns.end() ? 0 : p->second * 1e-6);
    }
    samples["serve.wire_ms." + cls].push_back((r.end - r.start) * 1e3 -
                                              line.total_ns * 1e-6);
  }
  for (const auto& [name, v] : samples) (*m)[name] = median(v);
  (*m)["dse.search_overhead_ms"] = median(search_overhead);
}

Report run_serve_mixed(const Options& opt, Tracer& tracer, HostSpeed& host) {
  Report rep;
  const std::string tag = std::to_string(::getpid());
  const std::string socket = opt.out_dir + "/serve-" + tag + ".sock";
  const std::string log_path = opt.out_dir + "/serve-" + tag + ".log";
  // Cold points a run may consume: more than two clients can simulate.
  const std::size_t cold_capacity =
      static_cast<std::size_t>(opt.seconds * 40) + 64;

  struct Setup {
    ServeInputs in;
    std::unique_ptr<LiveServer> server;
  };
  double setup_s = 0;
  Setup setup = timed_setups(
      opt,
      [&](bool last) {
        Tracer discard(false);
        Tracer& t = last ? tracer : discard;
        Setup s{serve_inputs(opt, cold_capacity, t), nullptr};
        const double t0 = now_s();
        s.server = std::make_unique<LiveServer>(socket, "");
        t.add("Server start+listen", "serve", 0, -1, t0, now_s());
        return s;
      },
      &setup_s, &rep.notes);
  const ServeInputs& in = setup.in;
  std::unique_ptr<LiveServer>& server = setup.server;
  rep.notes.push_back(
      "pool: " + std::to_string(in.warm.size() * kWarmPerWorkload) +
      " warm points, " + std::to_string(in.cold.size()) +
      " first-seen points, 2 searches, scale " + number_text(in.scale) +
      "; server handlers " + std::to_string(kServeHandlers) + " x jobs " +
      std::to_string(kServeJobs) + ", " + std::to_string(kServeClients) +
      " closed-loop clients");

  ServeSession untraced, traced;
  std::map<std::uint64_t, LogLine> log;
  if (!opt.trace) {
    untraced = serve_session(in, socket, opt.seed, opt.seconds, host, &rep.outcome);
    server.reset();
  } else {
    untraced =
        serve_session(in, socket, opt.seed, opt.seconds / 2, host, &rep.outcome);
    server.reset();
    // A fresh server with the JSONL request log on, so the traced half
    // starts from the same cold cache.
    std::remove(log_path.c_str());
    server = std::make_unique<LiveServer>(socket, log_path);
    traced = serve_session(in, socket, opt.seed, opt.seconds / 2, host, &rep.outcome);
    server.reset();
    log = read_request_log(log_path);
    std::remove(log_path.c_str());
  }
  const double rss = peak_rss_mib();
  const ServeSession& main = opt.trace ? traced : untraced;

  // Served digests for the pinned warm pool (computed locally for any
  // point the run did not reach), sorted by key.
  std::vector<Point> pool;
  for (const auto& [name, points] : in.warm) {
    for (const ServePoint& sp : points) pool.push_back(sp.point);
  }
  std::sort(pool.begin(), pool.end(),
            [](const Point& a, const Point& b) { return a.key < b.key; });
  std::vector<Point> missing;
  for (const Point& p : pool) {
    if (main.digest_by_key.count(p.key) == 0) missing.push_back(p);
  }
  std::map<std::uint64_t, std::uint64_t> local;
  if (!missing.empty()) {
    const std::vector<std::uint64_t> d = dse_digests(missing, kServeJobs);
    for (std::size_t i = 0; i < missing.size(); ++i) local[missing[i].key] = d[i];
    rep.notes.push_back(std::to_string(missing.size()) +
                        " warm-pool points were not served; digested locally");
  }
  for (const Point& p : pool) rep.pin_keys.push_back(p.key);
  for (const Point& p : pool) {
    const auto it = main.digest_by_key.find(p.key);
    rep.pin_digests.push_back(it != main.digest_by_key.end() ? it->second
                                                             : local.at(p.key));
  }

  // Served entries must equal a local dse::run / System run of the same
  // point, with the checker armed.
  const std::vector<Point> vpoints = {in.warm.begin()->second.front().point,
                                      in.cold.front().point};
  std::vector<std::uint64_t> expected;
  for (const Point& p : vpoints) {
    const auto it = main.digest_by_key.find(p.key);
    expected.push_back(it == main.digest_by_key.end() ? 0 : it->second);
  }
  const std::uint64_t violations = verify_pass(vpoints, expected, &rep.outcome);
  rep.notes.push_back("verify: 2 served points re-run locally with the checker armed, " +
                      std::to_string(violations) + " invariant violations");

  const std::vector<double> cold = latencies(main, ReqClass::kCold);
  const std::vector<double> warm = latencies(main, ReqClass::kWarm);
  const std::vector<double> point_s = simulated_point_s(main);
  const ServeWindows win(main);
  const double req_per_s = fast_rate(win.req_per_s);
  auto& m = rep.metrics;
  if (!opt.trace) {
    m["setup_s"] = setup_s;
    m["sweep_s"] = 100.0 / req_per_s;
    m["point_s_p50"] = fast(win.point_p50);
    m["point_s_p75"] = fast(win.point_p75);
    m["sim_cycles_per_s"] = fast_rate(win.cycles_per_s);
    m["peak_rss_mb"] = rss;
    m["cold_ms_p50"] = fast(win.cold_p50) * 1e3;
    m["cold_ms_p90"] = fast(win.cold_p90) * 1e3;
    m["warm_ms_p50"] = fast(win.warm_p50) * 1e3;
    m["warm_ms_p90"] = fast(win.warm_p90) * 1e3;
    m["served_req_per_s"] = req_per_s;
  } else {
    // Exact counts: the warm pool plus the first 8 first-seen points,
    // replayed on core::System; served digests must match.
    std::vector<Point> count_set;
    for (const auto& [name, points] : in.warm) {
      for (const ServePoint& sp : points) count_set.push_back(sp.point);
    }
    for (std::size_t i = 0; i < std::min<std::size_t>(8, in.cold.size()); ++i) {
      count_set.push_back(in.cold[i].point);
    }
    const Pass replay = run_pass(count_set, tracer, 0, &rep.outcome);
    for (std::size_t i = 0; i < count_set.size(); ++i) {
      const auto it = main.digest_by_key.find(count_set[i].key);
      if (it != main.digest_by_key.end() && it->second != replay.digests[i]) {
        rep.outcome.fail("served entry differs from a local run: " + count_set[i].label);
      }
    }
    put_count_metrics(replay, &m);
    rep.notes.push_back(gap_note(replay));
    put_serve_layer_metrics(main, log, tracer, &m);
    put_common_layer_metrics(tracer, in.make_s, &m);
    auto counter = [&](const char* name) {
      const auto it = main.server_counters.find(name);
      return it == main.server_counters.end() ? 0.0 : static_cast<double>(it->second);
    };
    m["dse.cache_hits"] = counter("serve.cache.hits");
    m["dse.cache_misses"] = counter("serve.cache.misses");
    m["dse.coalesced"] = counter("serve.coalescer.coalesced");
    m["serve.rejected"] = counter("serve.server.rejected_overload") +
                          counter("serve.server.rejected_draining") +
                          counter("serve.server.rejected_sessions");
    m["dse.parallel_efficiency"] =
        sum(point_s) / (main.wall_s * kServeHandlers * kServeJobs);
    m["warm_ms_p99"] = quantile(warm, 0.99) * 1e3;
    const double u = fast_rate(ServeWindows(untraced).req_per_s);
    m["trace.overhead_pct"] = (u / req_per_s - 1) * 100;
  }
  rep.notes.push_back("samples: " + std::to_string(main.records.size()) +
                      " requests (" + std::to_string(cold.size()) + " cold, " +
                      std::to_string(warm.size()) + " warm), " +
                      std::to_string(point_s.size()) + " simulated points, " +
                      std::to_string(main.rejected) + " rejected, in " +
                      std::to_string(kServeWindows) +
                      " windows; each figure is the fast tenth of its windows'");
  return rep;
}

// ==================================================================== main

void usage() {
  std::cerr << "usage: ara_perfbench --workload point_serial|sweep_parallel|"
               "serve_mixed --seed N --seconds S --trace 0|1\n"
               "         [--quick] [--digest-only] [--out-dir DIR] "
               "[--commit SHA] [--pins FILE]\n";
}

bool parse_options(int argc, char** argv, Options* opt) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--quick") {
      opt->quick = true;
    } else if (a == "--digest-only") {
      opt->digest_only = true;
    } else if (a == "--workload" && value(&v)) {
      opt->workload = v;
    } else if (a == "--seed" && value(&v)) {
      opt->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && value(&v)) {
      opt->seconds = std::strtod(v.c_str(), nullptr);
    } else if (a == "--trace" && value(&v)) {
      if (v != "0" && v != "1") return false;
      opt->trace = v == "1";
    } else if (a == "--out-dir" && value(&v)) {
      opt->out_dir = v;
    } else if (a == "--commit" && value(&v)) {
      opt->commit = v;
    } else if (a == "--pins" && value(&v)) {
      opt->pins = v;
    } else {
      return false;
    }
  }
  return (opt->workload == "point_serial" || opt->workload == "sweep_parallel" ||
          opt->workload == "serve_mixed") &&
         opt->seconds > 0;
}

/// Host-speed scaling of the end-to-end metrics: times are multiplied by
/// `scale`, rates divided by it, and memory is left as measured. The
/// measured values go to the notes.
void scale_end_to_end(double scale, Report* rep) {
  for (auto& [name, v] : rep->metrics) {
    if (name == "peak_rss_mb") continue;
    rep->notes.push_back("measured " + name + " = " + number_text(v));
    const bool rate = name == "sim_cycles_per_s" || name == "served_req_per_s";
    v = rate ? v / scale : v * scale;
  }
}

/// The last output line: outcome plus every computed metric by name.
/// run.py picks the BENCHMARK.json metrics of the mode and adds units.
void emit(const Report& rep) {
  std::ostringstream os;
  os << "{\"correct\": " << (rep.outcome.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << rep.outcome.attempted
     << ", \"failed\": " << rep.outcome.failed << ", \"values\": {";
  bool first = true;
  for (const auto& [name, v] : rep.metrics) {
    std::cout << "# metric " << name << " = " << number_text(v) << "\n";
    os << (first ? "" : ", ") << "\"" << name << "\": " << number_text(v);
    first = false;
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

int run(const Options& opt) {
  std::cout << "# perfbench workload=" << opt.workload << " seed=" << opt.seed
            << " seconds=" << number_text(opt.seconds) << " trace=" << opt.trace
            << (opt.quick ? " quick" : "") << "\n"
            << "# env hw_threads=" << std::thread::hardware_concurrency()
            << " build_type=" << ARA_PERFBENCH_BUILD_TYPE
            << " compiler=\"" << ARA_PERFBENCH_COMPILER << "\""
            << " salt=" << dse::kSimVersionSalt << " commit=" << opt.commit
            << "\n";

  Tracer tracer(opt.trace);
  HostSpeed host;
  host.sample();
  Report rep;
  if (opt.workload == "point_serial") {
    rep = run_point_serial(opt, tracer, host);
  } else if (opt.workload == "sweep_parallel") {
    rep = run_sweep_parallel(opt, tracer, host);
  } else {
    rep = run_serve_mixed(opt, tracer, host);
  }
  host.sample();
  rep.notes.push_back(host.note());
  if (!opt.trace) scale_end_to_end(host.scale(), &rep);
  for (const std::string& n : rep.notes) std::cout << "# " << n << "\n";
  for (auto& [name, v] : rep.metrics) {
    if (!std::isfinite(v)) {
      rep.outcome.fail("metric " + name + " is not finite");
      v = 0;
    }
  }

  const std::uint64_t combined = combine(rep.pin_keys, rep.pin_digests);
  const std::string pin = pin_status(opt.pins, opt.workload, opt.seed, opt.quick, combined);
  ++rep.outcome.attempted;
  if (pin.rfind("MISMATCH", 0) == 0) rep.outcome.fail("combined digest " + pin);
  std::cout << "# digest workload=" << opt.workload << " seed=" << opt.seed
            << " salt=" << dse::kSimVersionSalt << " combined=" << hex64(combined)
            << " pin=" << pin << "\n";
  for (const std::string& e : rep.outcome.errors) std::cout << "# FAILED " << e << "\n";
  const double error_rate = static_cast<double>(rep.outcome.failed) /
                            static_cast<double>(rep.outcome.attempted);
  std::cout << "# error_rate " << number_text(error_rate) << " ("
            << rep.outcome.failed << "/" << rep.outcome.attempted << ")\n";
  if (opt.trace) {
    rep.metrics["error_rate"] = error_rate;
    const std::string spans = opt.out_dir + "/trace-" + opt.workload + ".json";
    tracer.write_json(spans);
    std::cout << "# spans " << spans << "\n";
  }
  emit(rep);
  return 0;
}

/// Digest-only mode: the combined digest of the workload's pinned point
/// set through dse::run on every hardware thread, without timing.
int digest_only(const Options& opt) {
  Tracer off(false);
  std::vector<Point> points;
  WorkloadSet keep;
  if (opt.workload == "point_serial") {
    SerialInputs in = serial_inputs(opt, off);
    keep = std::move(in.workloads);
    points = std::move(in.points);
  } else if (opt.workload == "sweep_parallel") {
    SweepInputs in = sweep_inputs(opt, off);
    keep = std::move(in.workloads);
    points = std::move(in.points);
  } else {
    ServeInputs in = serve_inputs(opt, 0, off);
    for (const auto& [name, pts] : in.warm) {
      for (const ServePoint& sp : pts) points.push_back(sp.point);
    }
    std::sort(points.begin(), points.end(),
              [](const Point& a, const Point& b) { return a.key < b.key; });
    keep = std::move(in.workloads);
  }
  std::vector<std::uint64_t> keys;
  for (const Point& p : points) keys.push_back(p.key);
  std::cout << dse::kSimVersionSalt << " "
            << hex64(combine(keys, dse_digests(points, 0))) << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);  // a dropped connection is an error, not a kill
  Options opt;
  if (!parse_options(argc, argv, &opt)) {
    usage();
    return 2;
  }
  // Hermetic timing: an exported ARA_CHECK must not arm the checker.
  check::set_enabled(false);
  try {
    return opt.digest_only ? digest_only(opt) : run(opt);
  } catch (const std::exception& e) {
    std::cerr << "ara_perfbench: " << e.what() << "\n";
    return 1;
  }
}
