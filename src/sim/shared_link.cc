#include "sim/shared_link.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "common/config_error.h"

namespace ara::sim {

namespace {
/// Reservations older than this relative to the highest start tick seen are
/// merged into one blocker interval; simulator chains never reach that far
/// back, so gap filling is unaffected in practice.
constexpr Tick kCompactHorizon = 1u << 21;  // ~2M cycles
constexpr std::size_t kCompactThreshold = 4096;
}  // namespace

SharedLink::SharedLink(std::string name, double bytes_per_cycle,
                       Tick pipeline_latency)
    : name_(std::move(name)),
      bytes_per_cycle_(bytes_per_cycle),
      latency_(pipeline_latency) {
  config_check(bytes_per_cycle > 0.0,
               "SharedLink '" + name_ + "' needs positive bandwidth");
}

Tick SharedLink::submit(Tick ready_at, Bytes bytes) {
  if (bytes == 0) return ready_at + latency_;
  auto occupancy = static_cast<Tick>(
      std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
  if (occupancy == 0) occupancy = 1;

  // `it` = first interval starting after ready_at. A payload ready at or
  // after the last interval's start needs no search (see the header).
  auto it = busy_.end();
  if (!busy_.empty() && ready_at < busy_.back().start) {
    it = std::upper_bound(
        busy_.begin(), busy_.end(), ready_at,
        [](Tick t, const Interval& interval) { return t < interval.start; });
  }

  // Find the earliest gap of `occupancy` cycles at or after ready_at.
  Tick start = ready_at;
  if (it != busy_.begin() && std::prev(it)->end > start) {
    start = std::prev(it)->end;  // inside an interval
  }
  while (it != busy_.end()) {
    if (start + occupancy <= it->start) break;  // fits in the gap
    start = it->end;
    ++it;
  }
  const Tick end = start + occupancy;

  // Record [start, end) just before `it`: extend a neighbour it touches,
  // insert only when it touches neither.
  const bool joins_prev = it != busy_.begin() && std::prev(it)->end == start;
  const bool joins_next = it != busy_.end() && it->start == end;
  if (joins_prev && joins_next) {
    std::prev(it)->end = it->end;
    busy_.erase(it);
  } else if (joins_prev) {
    std::prev(it)->end = end;
  } else if (joins_next) {
    it->start = start;
  } else {
    busy_.insert(it, Interval{start, end});
  }

  busy_cycles_ += occupancy;
  total_bytes_ += bytes;
  ++transfers_;
  if (start > high_watermark_) high_watermark_ = start;
  // compact()'s precondition, tested here: a large store almost never
  // holds an interval that ended a horizon ago, so the call is skipped.
  if (busy_.size() > kCompactThreshold &&
      high_watermark_ >= kCompactHorizon &&
      busy_.front().end <= high_watermark_ - kCompactHorizon) {
    compact();
  }
  return end + latency_;
}

void SharedLink::compact() {
  const Tick cutoff = high_watermark_ - kCompactHorizon;
  // Replace the prefix of intervals ending by `cutoff` with one blocker
  // interval from the first expired start to the cutoff (or to the first
  // live interval, if that starts earlier). Intervals are sorted and
  // disjoint, so the blocker is never empty; it is not merged with the
  // live interval it may touch.
  auto expired_end = std::next(busy_.begin());  // the front has expired
  while (expired_end != busy_.end() && expired_end->end <= cutoff) {
    ++expired_end;
  }
  const Tick blocker_start = busy_.front().start;
  const Tick blocker_end = expired_end == busy_.end()
                               ? cutoff
                               : std::min(cutoff, expired_end->start);
  --expired_end;
  *expired_end = Interval{blocker_start, blocker_end};
  busy_.erase(busy_.begin(), expired_end);
}

}  // namespace ara::sim
