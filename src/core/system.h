// System: assembles one simulated accelerator-rich chip — mesh NoC, shared
// L2 banks, memory controllers, ABB islands, the GAM/ABC — places the
// components on the 8x8 mesh (Fig. 4 style floorplan), and drives workload
// runs to completion.
//
// A System instance is single-use per experiment: construct, run one
// workload, read the RunResult. (Stats accumulate monotonically; running a
// second workload on the same instance measures the combination.)
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "abc/abc.h"
#include "abc/gam.h"
#include "core/arch_config.h"
#include "core/run_result.h"
#include "island/island.h"
#include "mem/memory_system.h"
#include "noc/mesh.h"
#include "sim/event_queue.h"
#include "sim/stats.h"
#include "sim/trace.h"
#include "workloads/workload.h"

namespace ara::check {
class InvariantChecker;
}  // namespace ara::check

namespace ara::core {

class System {
 public:
  explicit System(const ArchConfig& config);
  ~System();

  /// Execute `workload` to completion; returns the measured results.
  RunResult run(const workloads::Workload& workload);

  /// --- component access (tests, benches) ---
  const ArchConfig& config() const { return config_; }
  sim::Simulator& simulator() { return sim_; }
  noc::Mesh& mesh() { return *mesh_; }
  mem::MemorySystem& memory() { return *memory_; }
  island::Island& island(IslandId i) { return *islands_[i]; }
  std::size_t island_count() const { return islands_.size(); }
  abc::Abc& composer() { return *abc_; }
  abc::Gam& gam() { return *gam_; }
  NodeId core_node(std::uint32_t core) const { return core_nodes_[core]; }
  NodeId island_node(IslandId i) const { return island_nodes_[i]; }
  NodeId gam_node() const { return gam_node_; }

  /// Per-kind ABB slot layout used for island `i` (for tests).
  const std::vector<abb::AbbKind>& island_abbs(IslandId i) const {
    return island_abbs_[i];
  }

  /// Total island area of this design point (available pre-run).
  double islands_area_mm2() const;

  /// Task-level trace (empty unless config.trace_enabled).
  const sim::TraceCollector& trace() const { return trace_; }
  /// Write the collected trace as Chrome trace-event JSON.
  void write_trace(std::ostream& os) const { trace_.write_json(os); }

  /// Every subsystem's stats, namespaced "<subsystem>.<id>.<stat>". Live
  /// histograms (latencies) fill during run(); component totals are rolled
  /// up when run() returns. Contents are fully deterministic.
  sim::StatRegistry& stats() { return stats_; }
  const sim::StatRegistry& stats() const { return stats_; }

  /// Runtime invariant checker (ara::check). Attached automatically at
  /// construction when check::enabled() (ARA_CHECK / --check); every run()
  /// is then bracketed by conservation-law and allocation audits, with live
  /// samples riding the simulator's observer hook. Zero cost when off.
  void enable_invariant_checker();
  check::InvariantChecker* checker() { return checker_.get(); }

 private:
  void place_components();
  void build_islands();
  /// Wire set_stats/set_trace into every component + trace metadata.
  void setup_observability();
  /// Record one round of counter-track samples and reschedule while other
  /// events remain (so the event queue still drains at the end of a run).
  void sample_trace_counters();
  /// End-of-run roll-up of component totals into stats_.
  void snapshot_stats(Tick makespan);

  ArchConfig config_;
  sim::Simulator sim_;
  sim::StatRegistry stats_;
  std::unique_ptr<noc::Mesh> mesh_;
  std::unique_ptr<mem::MemorySystem> memory_;
  std::vector<std::unique_ptr<island::Island>> islands_;
  std::vector<island::Island*> island_ptrs_;
  std::unique_ptr<abc::Abc> abc_;
  std::unique_ptr<abc::Gam> gam_;
  std::unique_ptr<check::InvariantChecker> checker_;
  sim::TraceCollector trace_;

  std::vector<NodeId> l2_nodes_;
  std::vector<NodeId> mc_nodes_;
  std::vector<NodeId> island_nodes_;
  std::vector<NodeId> core_nodes_;
  NodeId gam_node_ = 0;
  std::vector<std::vector<abb::AbbKind>> island_abbs_;
};

}  // namespace ara::core
