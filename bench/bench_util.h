// Shared helpers for the figure/table reproduction benches.
//
// Every bench binary prints the paper artifact it regenerates (same rows /
// series the paper reports, normalized the same way) and then runs a small
// google-benchmark suite measuring the simulator machinery behind it.
// ARA_BENCH_SCALE (env) scales workload invocation counts; default 0.5
// keeps full-suite runtime moderate while leaving steady-state behaviour
// unchanged. The shared flags — `--jobs N` (sweep workers), `--metrics F`
// (stat-registry export) and `--cache DIR` (on-disk result memoization),
// each with an ARA_* env fallback — are parsed once by parse_cli() via
// common::CliOptions and stripped before google-benchmark sees argv.
#pragma once

#include <benchmark/benchmark.h>

#include <array>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "check/check.h"
#include "common/cli_options.h"
#include "dse/parallel_sweep.h"
#include "dse/result_cache.h"
#include "dse/sweep.h"
#include "obs/metrics_export.h"
#include "sim/event_queue.h"

namespace ara::benchutil {

inline double bench_scale() {
  if (const char* s = std::getenv("ARA_BENCH_SCALE")) {
    const double v = std::atof(s);
    if (v > 0) return v;
  }
  return 0.5;
}

namespace detail {
inline std::optional<dse::ResultCache>& cache_storage() {
  static std::optional<dse::ResultCache> cache;
  return cache;
}
}  // namespace detail

/// The process-wide ResultCache behind --cache / ARA_CACHE; null until
/// parse_cli sees the flag (memoization off).
inline dse::ResultCache* sweep_cache() {
  auto& c = detail::cache_storage();
  return c.has_value() ? &*c : nullptr;
}

/// Parse and strip the shared bench flags (--jobs / --metrics /
/// --cache / --check, with ARA_* env fallbacks) out of argv —
/// google-benchmark rejects flags it does not know. A --cache directory
/// activates sweep_cache(); --check arms the invariant checker on every
/// simulated System. Exits 2 on a malformed value.
inline common::CliOptions parse_cli(int& argc, char** argv) {
  auto opts = common::CliOptions::parse(
      argc, argv,
      common::CliOptions::kJobs | common::CliOptions::kMetrics |
          common::CliOptions::kCache | common::CliOptions::kCheck);
  if (!opts.ok()) {
    std::cerr << "error: " << opts.error << "\n";
    std::exit(2);
  }
  if (!opts.cache_dir.empty()) {
    detail::cache_storage().emplace(opts.cache_dir);
  }
  if (opts.check) check::set_enabled(true);
  return opts;
}

/// The worker count a SweepRequest with `jobs` actually runs with.
inline unsigned resolved_jobs(unsigned jobs) {
  if (jobs != 0) return jobs;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

/// Process-wide sink behind the --metrics flag: figure code records labeled
/// stat-registry snapshots as it runs design points, and main() exports the
/// collection once as labeled JSON ({"points":[{"label":..,"metrics":..}]}).
class MetricsSink {
 public:
  static MetricsSink& instance() {
    static MetricsSink sink;
    return sink;
  }

  void record(std::string label, obs::MetricsSnapshot snapshot) {
    points_.emplace_back(std::move(label), std::move(snapshot));
  }

  /// Record every point of a sweep; labels and results are parallel (points
  /// beyond the label list get positional names).
  void record_sweep(const std::vector<std::string>& labels,
                    const std::vector<dse::SweepResult>& results) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      record(i < labels.size() ? labels[i] : "point " + std::to_string(i),
             results[i].metrics);
    }
  }

  /// Write everything recorded so far to `path`. No-op when `path` is empty
  /// (the flag was not given); an empty sink still writes valid JSON.
  void export_to(const std::string& path) const {
    if (path.empty()) return;
    std::vector<std::pair<std::string, const obs::MetricsSnapshot*>> pts;
    pts.reserve(points_.size());
    for (const auto& p : points_) pts.emplace_back(p.first, &p.second);
    std::ofstream os(path);
    if (!os) {
      std::cerr << "[metrics] cannot write " << path << "\n";
      return;
    }
    obs::MetricsExporter::write_labeled_json(os, pts);
    std::cout << "[metrics] " << pts.size() << " point snapshot(s) -> "
              << path << "\n";
  }

 private:
  std::vector<std::pair<std::string, obs::MetricsSnapshot>> points_;
};

/// Single-point dse::run that records the point's registry snapshot into
/// the MetricsSink under `label` and memoizes through sweep_cache() when
/// --cache is active.
inline core::RunResult metered_point(const std::string& label,
                                     const core::ArchConfig& config,
                                     const workloads::Workload& workload) {
  auto results =
      dse::run(dse::SweepRequest{}
                   .add(config, workload)
                   .with_cache(sweep_cache()));
  MetricsSink::instance().record(label, std::move(results.front().metrics));
  return std::move(results.front().result);
}

/// Simple wall-clock stopwatch for sweep observability.
class WallTimer {
 public:
  double seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_ =
      std::chrono::steady_clock::now();
};

/// One-line observability summary for a parallel sweep: how many points, the
/// wall-clock of the whole sweep vs the summed per-point wall time. Their
/// ratio is the average number of points in flight (effective parallelism);
/// it matches the realized speedup when workers get dedicated cores, and
/// overstates it on an oversubscribed machine.
inline void print_sweep_stats(const std::vector<dse::SweepResult>& results,
                              double sweep_wall_s, unsigned jobs) {
  double point_s = 0;
  std::uint64_t events = 0;
  std::size_t cached = 0;
  for (const auto& r : results) {
    point_s += r.wall_seconds;
    events += r.events;
    if (r.from_cache) ++cached;
  }
  std::cout << "[sweep] " << results.size() << " points, " << events
            << " events, jobs=" << jobs << ": " << sweep_wall_s
            << " s wall vs " << point_s << " s summed point time ("
            << (sweep_wall_s > 0 ? point_s / sweep_wall_s : 0)
            << "x effective parallelism)\n";
  if (cached > 0) {
    std::cout << "[sweep] " << cached << "/" << results.size()
              << " points served from the result cache\n";
  }

  // Simulator self-profile, summed over every point: dispatch counts per
  // event kind (deterministic) and host wall-clock attribution (measured
  // per event by the simulators, which run with self-profiling on).
  std::array<sim::EventKindStats, sim::kNumEventKinds> kinds{};
  for (const auto& r : results) {
    for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
      kinds[k].count += r.event_kinds[k].count;
      kinds[k].seconds += r.event_kinds[k].seconds;
    }
  }
  std::cout << "[sweep] event profile:";
  for (std::size_t k = 0; k < sim::kNumEventKinds; ++k) {
    if (kinds[k].count == 0) continue;
    std::cout << " " << sim::event_kind_name(static_cast<sim::EventKind>(k))
              << "=" << kinds[k].count << "/"
              << static_cast<long>(kinds[k].seconds * 1e3) << "ms";
  }
  std::cout << "\n";
}

inline double norm(double value, double base) {
  return base == 0 ? 0.0 : value / base;
}

inline void print_header(const std::string& artifact,
                         const std::string& paper_summary) {
  std::cout << "==============================================================\n"
            << "Reproduction of " << artifact << "\n"
            << "Paper reports: " << paper_summary << "\n"
            << "==============================================================\n";
}

/// Print + run the registered google-benchmark microbenchmarks.
inline int run_micro(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

}  // namespace ara::benchutil
