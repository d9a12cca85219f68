// Autotuning-search benchmark: dse::search head-to-head against the
// exhaustive grid sweep it replaces. For each evaluation budget the
// report records how much simulation the budgeted search spent and
// whether it reached the grid-optimal design point (and if not, how
// close its best got), plus a warm-cache rerun showing a repeated search
// against grid-warmed state simulating nothing.
//
// Results go to stdout and to a JSON report (BENCH_search.json by
// default; strict RFC 8259, validated in ctest by ara_json_check via
// tests/bench_search_smoke.cmake).
//
// Usage: bench_search [--scale F] [--space small|full] [--out FILE]
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "dse/result_cache.h"
#include "dse/search.h"
#include "obs/json_io.h"

namespace {

using ara::dse::Objective;
using ara::dse::ResultCache;
using ara::dse::SearchRequest;
using ara::dse::SearchResult;
using ara::dse::SearchSpace;
using ara::dse::SearchSpec;

double objective_metric(const ara::dse::SearchCandidate& c, Objective o) {
  switch (o) {
    case Objective::kPerf: return c.performance;
    case Objective::kPerfPerEnergy: return c.perf_per_energy;
    case Objective::kPerfPerArea: return c.perf_per_area;
  }
  return c.performance;
}

struct BudgetRow {
  std::uint64_t budget = 0;
  std::uint64_t evaluated = 0;
  std::uint64_t simulated = 0;
  bool found_optimal = false;
  double gap = 0;  // best_metric / grid_best_metric, 1.0 = optimal
  std::string best;
};

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_search.json";
  std::string space_name = "small";
  double scale = 0.05;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--out") {
      out_path = next();
    } else if (arg == "--space") {
      space_name = next();
      if (space_name != "small" && space_name != "full") {
        std::cerr << "--space: expected small or full\n";
        return 2;
      }
    } else if (arg == "--scale") {
      scale = std::atof(next().c_str());
      if (!(scale > 0)) {
        std::cerr << "--scale: expected a positive number\n";
        return 2;
      }
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }

  SearchSpec spec;
  spec.workload = "Denoise";
  spec.scale = scale;
  spec.objective = Objective::kPerf;
  std::vector<std::uint64_t> budgets;
  if (space_name == "small") {
    // 18 points: enough structure for halving/refinement to matter while
    // the exhaustive reference stays cheap (the ctest smoke runs this).
    spec.space.islands = {3, 6, 12};
    spec.space.rings = {1, 2, 3};
    spec.space.widths = {16, 32};
    spec.space.ports = {1};
    spec.space.sharing = {false};
    budgets = {4, 8, 12};
  } else {
    // The paper's full sweep axes (SearchSpace defaults): 96 points.
    budgets = {8, 16, 24, 32};
  }
  const std::uint64_t space_size = spec.space.size();

  // Exhaustive grid reference: budget == space size puts dse::search in
  // grid mode, so the same evaluation pipeline produces the exact
  // frontier. Its cache doubles as the warm state for the rerun row.
  ResultCache grid_cache;
  SearchRequest grid_request;
  grid_request.spec = spec;
  grid_request.spec.budget = space_size;
  grid_request.cache = &grid_cache;
  const SearchResult grid = ara::dse::search(grid_request);
  const double grid_best = objective_metric(grid.best, spec.objective);
  std::cout << "grid: " << grid.simulated << " simulations over "
            << space_size << " points, best " << grid.best.spec.label()
            << "\n";

  std::vector<BudgetRow> rows;
  for (const std::uint64_t budget : budgets) {
    ResultCache cache;  // cold per budget: simulated == real search cost
    SearchRequest request;
    request.spec = spec;
    request.spec.budget = budget;
    request.cache = &cache;
    const SearchResult r = ara::dse::search(request);
    BudgetRow row;
    row.budget = budget;
    row.evaluated = r.evaluated;
    row.simulated = r.simulated;
    row.best = r.best.spec.label();
    row.found_optimal = row.best == grid.best.spec.label();
    const double best = objective_metric(r.best, spec.objective);
    row.gap = grid_best > 0 ? best / grid_best : 0;
    rows.push_back(row);
    std::cout << "budget " << budget << ": " << row.simulated
              << " simulations, best " << row.best
              << (row.found_optimal
                      ? " (grid optimal)"
                      : " (" + std::to_string(row.gap) + " of optimal)")
              << "\n";
  }

  // Warm rerun against the grid-warmed cache: the whole search is served
  // from memoized results (grid mode again, so every evaluation is a
  // full-fidelity point the cache already holds).
  SearchRequest warm_request;
  warm_request.spec = spec;
  warm_request.spec.budget = space_size;
  warm_request.cache = &grid_cache;
  const SearchResult warm = ara::dse::search(warm_request);
  std::cout << "warm rerun at budget " << warm.budget << ": "
            << warm.simulated << " simulations, " << warm.cache_hits
            << " cache hits\n";

  using ara::obs::json_put;
  std::string os = "{\"bench\":\"search\",\"workload\":\"Denoise\"";
  json_put(os, ",\"scale\":", scale, 17);
  json_put(os, ",\"space\":", space_name);
  json_put(os, ",\"space_size\":", space_size);
  json_put(os, ",\"grid\":{\"simulations\":", grid.simulated);
  json_put(os, ",\"best\":", grid.best.spec.label());
  json_put(os, ",\"metric\":", grid_best, 17);
  os += "},\"budgets\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BudgetRow& row = rows[i];
    if (i > 0) os += ',';
    json_put(os, "{\"budget\":", row.budget);
    json_put(os, ",\"evaluated\":", row.evaluated);
    json_put(os, ",\"simulated\":", row.simulated);
    os += row.found_optimal ? ",\"found_optimal\":true"
                            : ",\"found_optimal\":false";
    json_put(os, ",\"gap\":", row.gap, 17);
    json_put(os, ",\"best\":", row.best);
    os += '}';
  }
  json_put(os, "],\"warm_rerun\":{\"budget\":", warm.budget);
  json_put(os, ",\"simulated\":", warm.simulated);
  json_put(os, ",\"cache_hits\":", warm.cache_hits);
  os += "}}\n";

  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "cannot write " << out_path << "\n";
    return 1;
  }
  out << os;
  std::cout << "report -> " << out_path << "\n";
  return 0;
}
