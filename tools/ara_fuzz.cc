// ara_fuzz: deterministic config/workload fuzzer for the simulator.
//
// For every seed in [--seed-base, --seed-base + --seeds):
//  1. kernel replica check — a randomized schedule (including events that
//     schedule follow-up events) is dispatched through the production
//     calendar-queue Simulator and through a legacy std::function +
//     priority_queue replica; their (id, tick) dispatch checksums must
//     match exactly;
//  2. link-layer differential — random reservation scripts (zero-byte
//     payloads, fractional bandwidth, ready ticks that jump backwards into
//     gaps) are driven through sim::SharedLink and through a std::map
//     replica of its previous interval store, comparing every returned
//     tick and the link's counters. One script per seed grows past the
//     compaction threshold with start ticks beyond the compaction horizon,
//     so compaction runs on every invocation;
//  3. design-point cross-check — check::generate_point samples a valid
//     random ArchConfig + Workload and check::cross_check runs it with
//     runtime invariants enabled at jobs 1/2/8 plus a cached-vs-fresh
//     ResultCache pass, requiring bit-identical results throughout.
//
// A failing seed is greedily minimized (halving invocation count, DFG
// size, then island count while the failure reproduces) and written as a
// repro file under --repro-dir. Exit status 1 when any seed fails.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <iterator>
#include <map>
#include <queue>
#include <sstream>
#include <string>
#include <vector>

#include "check/check.h"
#include "check/fuzz.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/shared_link.h"

namespace {

using ara::Bytes;
using ara::Tick;

/// The pre-PR3 event kernel: heap-allocated std::function callbacks on a
/// (tick, seq) priority queue. Semantically the reference implementation of
/// the dispatch-order contract; kept here (not in the library) because its
/// only job is to disagree with the calendar queue when one of them breaks.
class LegacyKernel {
 public:
  Tick now() const { return now_; }

  void schedule_at(Tick at, std::function<void()> fn) {
    queue_.push(Entry{at, next_seq_++, std::move(fn)});
  }

  void run() {
    while (!queue_.empty()) {
      Entry e = queue_.top();
      queue_.pop();
      now_ = e.at;
      ++processed_;
      e.fn();
    }
  }

  std::uint64_t events_processed() const { return processed_; }

 private:
  struct Entry {
    Tick at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t processed_ = 0;
};

/// FNV-1a over the (event id, dispatch tick) sequence of a randomized
/// schedule. Both kernels run the identical script: `initial` root events
/// at random ticks (some far enough out to exercise the calendar queue's
/// overflow heap), and every event deterministically decides — from its id
/// alone — whether to schedule up to two follow-ups relative to now().
template <class Kernel>
std::uint64_t dispatch_checksum(std::uint64_t seed, int initial) {
  Kernel kernel;
  std::uint64_t h = 1469598103934665603ull;
  auto mix = [&h](std::uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };

  std::function<void(std::uint64_t, int)> arm = [&](std::uint64_t id,
                                                    int depth) {
    mix(id);
    mix(kernel.now());
    if (depth >= 3) return;
    const std::uint64_t r = id * 0x9e3779b97f4a7c15ull;
    if ((r >> 8) % 10 < 4) {
      const Tick delay = 1 + static_cast<Tick>((r >> 16) % 6000);
      const std::uint64_t child = id * 31 + 7;
      kernel.schedule_at(kernel.now() + delay,
                         [&, child, depth] { arm(child, depth + 1); });
    }
    if ((r >> 40) % 10 < 2) {
      const std::uint64_t child = id * 37 + 11;
      kernel.schedule_at(kernel.now(),  // same-tick: seq order must hold
                         [&, child, depth] { arm(child, depth + 1); });
    }
  };

  ara::sim::Rng rng(seed);
  for (int i = 0; i < initial; ++i) {
    const std::uint64_t id = static_cast<std::uint64_t>(i) + 1;
    // Mostly near-future (wheel), with a tail beyond the 4096-tick window
    // (overflow heap) — the migration boundary is where order bugs live.
    const Tick at = rng.next_bool(0.85) ? rng.next_below(3000)
                                        : 3000 + rng.next_below(40000);
    kernel.schedule_at(at, [&, id] { arm(id, 0); });
  }
  kernel.run();
  mix(kernel.events_processed());
  return h;
}

/// SharedLink's earlier interval store: one std::map node per busy
/// interval, keyed by start tick. The reference for the link-layer
/// differential; same occupancy arithmetic, gap-fill walk and compaction
/// rule as the production link, kept here (not in the library) because its
/// only job is to disagree with the flat store when one of them breaks.
class LegacyLink {
 public:
  LegacyLink(double bytes_per_cycle, Tick latency)
      : bytes_per_cycle_(bytes_per_cycle), latency_(latency) {}

  Tick submit(Tick ready_at, Bytes bytes) {
    if (bytes == 0) return ready_at + latency_;
    auto occupancy = static_cast<Tick>(
        std::ceil(static_cast<double>(bytes) / bytes_per_cycle_));
    if (occupancy == 0) occupancy = 1;

    Tick start = ready_at;
    auto it = busy_.upper_bound(ready_at);
    if (it != busy_.begin()) {
      auto prev = std::prev(it);
      if (prev->second > start) start = prev->second;
    }
    while (it != busy_.end()) {
      if (start + occupancy <= it->first) break;
      start = it->second;
      ++it;
    }
    const Tick end = start + occupancy;

    auto inserted = busy_.emplace(start, end).first;
    if (inserted != busy_.begin()) {
      auto prev = std::prev(inserted);
      if (prev->second == start) {
        prev->second = end;
        busy_.erase(inserted);
        inserted = prev;
      }
    }
    auto next = std::next(inserted);
    if (next != busy_.end() && next->first == inserted->second) {
      inserted->second = next->second;
      busy_.erase(next);
    }

    busy_cycles_ += occupancy;
    total_bytes_ += bytes;
    ++transfers_;
    if (start > high_watermark_) high_watermark_ = start;
    if (busy_.size() > kCompactThreshold) compact();
    return end + latency_;
  }

  Tick busy_cycles() const { return busy_cycles_; }
  Bytes total_bytes() const { return total_bytes_; }
  std::uint64_t transfers() const { return transfers_; }
  std::size_t reservation_intervals() const { return busy_.size(); }
  /// compact() calls that replaced at least one expired interval.
  std::uint64_t compactions() const { return compactions_; }

 private:
  static constexpr Tick kCompactHorizon = 1u << 21;
  static constexpr std::size_t kCompactThreshold = 4096;

  void compact() {
    if (high_watermark_ < kCompactHorizon) return;
    const Tick cutoff = high_watermark_ - kCompactHorizon;
    auto it = busy_.begin();
    Tick blocker_start = ara::kTickMax;
    while (it != busy_.end() && it->second <= cutoff) {
      blocker_start = std::min(blocker_start, it->first);
      it = busy_.erase(it);
    }
    if (blocker_start != ara::kTickMax) {
      ++compactions_;
      Tick blocker_end = cutoff;
      if (!busy_.empty()) {
        blocker_end = std::min(blocker_end, busy_.begin()->first);
      }
      if (blocker_end > blocker_start) {
        busy_.emplace(blocker_start, blocker_end);
      }
    }
  }

  double bytes_per_cycle_;
  Tick latency_;
  std::map<Tick, Tick> busy_;
  Tick busy_cycles_ = 0;
  Bytes total_bytes_ = 0;
  std::uint64_t transfers_ = 0;
  Tick high_watermark_ = 0;
  std::uint64_t compactions_ = 0;
};

/// Drive one seeded reservation script through sim::SharedLink and
/// LegacyLink in lockstep. Returns "" when every returned tick and every
/// counter agreed, else the first divergence. A `long_run` script keeps
/// gaps between most payloads and advances ~500 ticks per payload over
/// 12,000 payloads, so the store passes 4096 live intervals with start
/// ticks beyond 2^21 and compaction runs; its backward jumps may land
/// behind the compaction blocker.
std::string link_differential(std::uint64_t seed, bool long_run,
                              std::uint64_t* compactions) {
  ara::sim::Rng rng(seed * 0x2545f4914f6cdd1dull + (long_run ? 1 : 0));
  // Fractional bandwidths from 0.1 to 64 bytes/cycle.
  const double bytes_per_cycle =
      long_run ? 8.5
               : static_cast<double>(1 + rng.next_below(640)) / 10.0;
  const Tick latency = rng.next_below(8);
  const int payloads = long_run ? 12000 : 2000;
  const Tick step = long_run ? 1000 : 1 + rng.next_below(400);
  const Tick back = long_run ? Tick{1} << 22 : 1 + rng.next_below(20000);

  ara::sim::SharedLink link("fuzz", bytes_per_cycle, latency);
  LegacyLink legacy(bytes_per_cycle, latency);
  Tick cursor = 0;
  for (int i = 0; i < payloads; ++i) {
    cursor += rng.next_below(step);
    Tick ready = cursor;
    if (rng.next_bool(long_run ? 0.1 : 0.25)) {
      const Tick jump = rng.next_below(back);
      ready = jump < cursor ? cursor - jump : 0;  // back into the gaps
    }
    const Bytes bytes = rng.next_bool(0.05) ? 0 : 1 + rng.next_below(256);
    const Tick got = link.submit(ready, bytes);
    const Tick want = legacy.submit(ready, bytes);
    if (got != want || link.busy_cycles() != legacy.busy_cycles() ||
        link.total_bytes() != legacy.total_bytes() ||
        link.transfers() != legacy.transfers() ||
        link.reservation_intervals() != legacy.reservation_intervals()) {
      std::ostringstream os;
      os << (long_run ? "long" : "short") << " script, payload " << i
         << " (ready " << ready << ", " << bytes << " B at "
         << bytes_per_cycle << " B/cycle): tick " << got << " vs " << want
         << ", busy " << link.busy_cycles() << " vs "
         << legacy.busy_cycles() << ", intervals "
         << link.reservation_intervals() << " vs "
         << legacy.reservation_intervals();
      return os.str();
    }
  }
  *compactions += legacy.compactions();
  if (long_run && legacy.compactions() == 0) {
    return "long script never compacted (generator no longer reaches the "
           "compaction threshold)";
  }
  return "";
}

struct Options {
  std::uint64_t seeds = 32;
  std::uint64_t seed_base = 1;
  std::string repro_dir = "fuzz_repros";
  int kernel_events = 1500;
  bool verbose = false;
};

bool parse_u64(const char* s, std::uint64_t* out) {
  if (s == nullptr || *s == '\0' || *s < '0' || *s > '9') return false;
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return end != nullptr && *end == '\0';
}

int usage(int code) {
  std::cout
      << "usage: ara_fuzz [options]\n"
         "  --seeds N       seeds to fuzz (default 32)\n"
         "  --seed-base N   first seed (default 1)\n"
         "  --repro-dir D   directory for failing-seed repro files\n"
         "                  (default fuzz_repros)\n"
         "  --verbose       per-seed progress\n";
  return code;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--help" || arg == "-h") return usage(0);
    if (arg == "--verbose") {
      opt.verbose = true;
    } else if (arg == "--seeds") {
      if (!parse_u64(value(), &opt.seeds)) return usage(2);
    } else if (arg == "--seed-base") {
      if (!parse_u64(value(), &opt.seed_base)) return usage(2);
    } else if (arg == "--repro-dir") {
      const char* v = value();
      if (v == nullptr) return usage(2);
      opt.repro_dir = v;
    } else {
      std::cerr << "ara_fuzz: unknown flag '" << arg << "'\n";
      return usage(2);
    }
  }

  namespace check = ara::check;
  std::uint64_t kernel_failures = 0;
  std::uint64_t point_failures = 0;
  std::uint64_t link_failures = 0;
  std::uint64_t link_compactions = 0;

  for (std::uint64_t s = opt.seed_base; s < opt.seed_base + opt.seeds; ++s) {
    const check::FuzzLimits full{};
    check::FuzzPoint point = check::generate_point(s, full);

    // Layer 1: dispatch-order differential against the legacy kernel.
    const std::uint64_t new_sum =
        dispatch_checksum<ara::sim::Simulator>(s, opt.kernel_events);
    const std::uint64_t old_sum =
        dispatch_checksum<LegacyKernel>(s, opt.kernel_events);
    if (new_sum != old_sum) {
      ++kernel_failures;
      std::cerr << "seed " << s << ": KERNEL DIVERGENCE — calendar queue "
                << std::hex << new_sum << " vs legacy replica " << old_sum
                << std::dec << "\n";
    }

    // Layer 2: link-layer differential against the std::map store.
    for (const bool long_run : {false, true}) {
      const std::string diverged =
          link_differential(s, long_run, &link_compactions);
      if (!diverged.empty()) {
        ++link_failures;
        std::cerr << "seed " << s << ": LINK DIVERGENCE — " << diverged
                  << "\n";
      }
    }

    // Layer 3: full-system differential with invariants on.
    std::string failure = check::cross_check(point);
    if (failure.empty()) {
      if (opt.verbose) {
        std::cout << "seed " << s << ": ok (" << point.config.num_islands
                  << " islands, " << point.workload.dfg.size() << " tasks, "
                  << point.workload.invocations << " invocations)\n";
      }
      continue;
    }

    // Greedy minimization: keep halving one limit at a time while the
    // failure still reproduces; the repro file records the smallest point.
    ++point_failures;
    check::FuzzLimits lim = full;
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      for (int knob = 0; knob < 3; ++knob) {
        check::FuzzLimits trial = lim;
        std::uint32_t* field =
            knob == 0 ? &trial.max_invocations
                      : (knob == 1 ? &trial.max_tasks : &trial.max_islands);
        const std::uint32_t floor = knob == 1 ? 3u : (knob == 0 ? 2u : 1u);
        if (*field / 2 < floor || *field / 2 == *field) continue;
        *field /= 2;
        check::FuzzPoint smaller = check::generate_point(s, trial);
        const std::string msg = check::cross_check(smaller);
        if (!msg.empty()) {
          lim = trial;
          point = std::move(smaller);
          failure = msg;
          shrunk = true;
        }
      }
    }

    std::error_code ec;
    std::filesystem::create_directories(opt.repro_dir, ec);
    const std::string path =
        opt.repro_dir + "/fuzz-" + std::to_string(s) + ".txt";
    std::ofstream repro(path);
    repro << check::repro_text(point, lim, failure);
    std::cerr << "seed " << s << ": FAIL — " << failure << "\n"
              << "  minimized to " << point.config.num_islands
              << " islands / " << point.workload.dfg.size() << " tasks / "
              << point.workload.invocations << " invocations; repro: "
              << path << "\n";
  }

  std::cout << "ara_fuzz: " << opt.seeds << " seeds, "
            << (opt.seeds - point_failures) << " clean, " << point_failures
            << " point failures, " << kernel_failures
            << " kernel divergences, " << link_failures
            << " link divergences (" << link_compactions
            << " compactions exercised)\n";
  return (point_failures + kernel_failures + link_failures) == 0 ? 0 : 1;
}
