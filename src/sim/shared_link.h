// SharedLink: the contention primitive used for every bandwidth-limited
// resource in the simulator (NoC links, ring segments, crossbar ports,
// SPM ports, memory-controller channels).
//
// A link has a bandwidth (bytes per cycle) and a pipeline latency. A
// payload occupies the link for ceil(bytes / bandwidth) cycles starting at
// the earliest gap at or after its ready time, and arrives at the far side
// pipeline_latency cycles after its last byte leaves.
//
// Reservations are interval-based with gap filling: because the simulator
// computes transfer paths as reservation chains (a payload reserves its
// whole route when issued, possibly far in the future), a naive
// single-watermark link would let a future response block an earlier
// request that shares one hop — serializing the entire system. Gap filling
// restores service-in-ready-order behaviour at each link.
//
// The busy intervals live in one sorted vector. A reservation ready at or
// after the start of the last interval skips the binary search; that is
// 41% of reservations on the perfbench workloads and 56-58% in the
// Fig. 6-9 sweeps, and the shortcut saves 7-15% of a design point
// (EXPERIMENTS.md, performance ledger). A reservation that touches a
// neighbouring interval extends it in place; the rest are inserted, and
// they land near the tail (a mid-store insert moved 45-100 intervals on
// average, in stores of up to 40,045), so an insert does not cost more as
// the store grows. Once more than kCompactThreshold intervals
// are live, everything that ended over kCompactHorizon (~2M) cycles before
// the latest start tick collapses into one blocker interval. This assumes
// no reservation chain reaches that far back; one that did would queue
// behind the blocker instead of filling the gap it replaced.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/types.h"

namespace ara::sim {

class SharedLink {
 public:
  /// `bytes_per_cycle` must be > 0. `name` keys this link's stats.
  SharedLink(std::string name, double bytes_per_cycle, Tick pipeline_latency);

  /// Reserve the link for `bytes` starting no earlier than `ready_at`.
  /// Returns the tick at which the payload has fully arrived at the far side.
  Tick submit(Tick ready_at, Bytes bytes);

  Tick pipeline_latency() const { return latency_; }
  double bytes_per_cycle() const { return bytes_per_cycle_; }
  const std::string& name() const { return name_; }

  /// Total bytes accepted so far.
  Bytes total_bytes() const { return total_bytes_; }

  /// Cycles during which the link was transmitting.
  Tick busy_cycles() const { return busy_cycles_; }

  /// Fraction of `elapsed` cycles the link spent transmitting.
  double utilization(Tick elapsed) const {
    return elapsed == 0 ? 0.0
                        : static_cast<double>(busy_cycles_) /
                              static_cast<double>(elapsed);
  }

  /// Number of submit() calls (≈ packets/chunks).
  std::uint64_t transfers() const { return transfers_; }

  /// Number of live busy intervals in the flat store. Touching
  /// reservations merge, so this counts gaps, not transfers. Compaction
  /// bounds it only once intervals have ended over the compaction horizon
  /// before the latest start tick; until then it grows with the run.
  std::size_t reservation_intervals() const { return busy_.size(); }

 private:
  /// Busy half-open interval [start, end).
  struct Interval {
    Tick start;
    Tick end;
  };

  void compact();

  std::string name_;
  double bytes_per_cycle_;
  Tick latency_;
  /// Non-overlapping busy intervals, sorted by start tick.
  std::vector<Interval> busy_;
  Tick busy_cycles_ = 0;
  Bytes total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
  Tick high_watermark_ = 0;
};

}  // namespace ara::sim
