// Figure 7: performance of SPM<->DMA ring networks vs the proxy-crossbar
// baseline, for all seven benchmarks at 3 islands (40 ABBs/island) and
// 24 islands (5 ABBs/island). Normalized per island count to the proxy
// crossbar.
//
// Paper shape: most ring configurations outperform the crossbar; the
// impact shrinks as islands increase; the crossbar is worst for the
// chaining-heavy benchmarks (Segmentation, Robot Localization, EKF-SLAM,
// peaking around 2.2-2.6X at 3 islands).
//
// The 2 x 7 x 5 = 70 design points run on the parallel sweep executor
// (`--jobs N`, default hardware concurrency).
#include <iostream>
#include <vector>

#include "bench_util.h"
#include "core/system.h"
#include "dse/parallel_sweep.h"
#include "dse/sweep.h"
#include "dse/table.h"
#include "workloads/registry.h"

namespace {

void fig07(unsigned jobs) {
  using namespace ara;
  benchutil::print_header(
      "Figure 7 (ring vs proxy crossbar; 3 and 24 islands)",
      "rings win, most for chaining-heavy benchmarks at 3 islands "
      "(up to ~2.6X); impact shrinks at 24 islands");

  const double scale = benchutil::bench_scale();
  const auto& names = workloads::benchmark_names();
  const std::vector<std::uint32_t> island_counts = {3, 24};

  std::vector<workloads::Workload> wls;
  wls.reserve(names.size());
  for (const auto& name : names) {
    wls.push_back(workloads::make_benchmark(name, scale));
  }

  // island-count-major, benchmark-, then network-point-minor.
  std::vector<dse::SweepJob> sweep_jobs;
  std::vector<std::string> labels;
  for (std::uint32_t islands : island_counts) {
    const auto points = dse::paper_network_configs(islands);
    for (const auto& wl : wls) {
      for (const auto& p : points) {
        sweep_jobs.push_back({p.config, &wl});
        labels.push_back(wl.name + ", " + p.label + ", " +
                         std::to_string(islands) + " islands");
      }
    }
  }

  dse::SweepRequest request;
  request.sweep = std::move(sweep_jobs);
  request.jobs = jobs;
  request.cache = benchutil::sweep_cache();
  const benchutil::WallTimer timer;
  const auto results = dse::run(request);
  const double wall_s = timer.seconds();

  std::size_t idx = 0;
  for (std::uint32_t islands : island_counts) {
    std::cout << "\n--- " << islands << " islands ("
              << 120 / islands << " ABBs/island) ---\n";
    const auto points = dse::paper_network_configs(islands);
    std::vector<std::string> headers = {"benchmark"};
    for (const auto& p : points) headers.push_back(p.label);
    headers.push_back("chain degree");
    dse::Table t(std::move(headers));

    for (std::size_t b = 0; b < names.size(); ++b) {
      std::vector<std::string> row = {names[b]};
      double base = 0;
      for (std::size_t i = 0; i < points.size(); ++i, ++idx) {
        const auto& r = results[idx].result;
        if (i == 0) base = r.performance();
        row.push_back(
            dse::Table::num(benchutil::norm(r.performance(), base), 3));
      }
      row.push_back(dse::Table::num(wls[b].dfg.chaining_degree(), 2));
      t.add_row(std::move(row));
    }
    t.print(std::cout);
  }
  benchutil::print_sweep_stats(results, wall_s,
                               benchutil::resolved_jobs(jobs));
  benchutil::MetricsSink::instance().record_sweep(labels, results);
}

void micro_run_denoise_small(benchmark::State& state) {
  auto wl = ara::workloads::make_benchmark("Denoise", 0.05);
  for (auto _ : state) {
    ara::core::System system(ara::core::ArchConfig::best_config());
    benchmark::DoNotOptimize(system.run(wl).makespan);
  }
}
BENCHMARK(micro_run_denoise_small)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  const auto cli = ara::benchutil::parse_cli(argc, argv);
  fig07(cli.jobs);
  ara::benchutil::MetricsSink::instance().export_to(cli.metrics_file);
  std::cout << "\n";
  return ara::benchutil::run_micro(argc, argv);
}
