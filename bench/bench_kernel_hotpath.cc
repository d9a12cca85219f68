// Event-kernel hot-path benchmark: the overhauled Simulator (slab entries,
// small-buffer callbacks, two-level calendar queue) head-to-head against a
// faithful replica of the previous kernel (std::function entries in one
// (tick, seq) priority_queue), on the schedule patterns the full-system
// simulations actually produce.
//
// Both kernels execute the exact same event sequences — a checksum over
// every dispatch asserts it — so the wall-clock ratio is a pure kernel
// speedup, jobs=1, no simulation semantics involved. Results go to stdout
// and to a JSON report (BENCH_kernel.json by default; strict RFC 8259,
// validated in ctest by ara_json_check).
//
// Usage: bench_kernel_hotpath [--events N] [--repeats R] [--out FILE]
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <queue>
#include <string>
#include <vector>

#include "obs/json_io.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace {

using ara::Tick;

// ---------------------------------------------------------------------------
// Replica of the pre-overhaul kernel: one std::priority_queue of value
// entries holding std::function callbacks. Kept interface-compatible with
// ara::sim::Simulator for the templated drivers below.
class LegacySimulator {
 public:
  using EventFn = std::function<void()>;

  Tick now() const { return now_; }

  void schedule_at(Tick at, EventFn fn) {
    queue_.push(Entry{at, next_seq_++, std::move(fn)});
  }
  void schedule_in(Tick delay, EventFn fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  bool step() {
    if (queue_.empty()) return false;
    Entry entry = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    now_ = entry.at;
    ++events_processed_;
    entry.fn();
    return true;
  }

  void run() {
    while (step()) {
    }
  }

  std::uint64_t events_processed() const { return events_processed_; }

 private:
  struct Entry {
    Tick at;
    std::uint64_t seq;
    EventFn fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  Tick now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t events_processed_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
};

// ---------------------------------------------------------------------------
// Schedule patterns. Each is a template so the identical code (and the
// identical lambda capture sizes) runs on both kernels; `checksum` folds in
// every dispatch so the compiler can't elide work and so we can assert both
// kernels saw the same sequence.

struct Mix {
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;

  void touch(Tick now, std::uint64_t payload) {
    ++events;
    checksum = checksum * 1099511628211ULL + (now + payload + 1);
  }
};

/// What a real scheduler's continuation captures: `this` plus a few scalars
/// (task id, chunk index, size). 32 bytes — past std::function's inline
/// buffer (16 on common ABIs, so the legacy kernel heap-allocates it),
/// comfortably inside EventCallback's 56-byte budget.
struct Capture {
  std::uint64_t a = 0, b = 0, c = 0;
  std::uint64_t sum() const { return a + b + c; }
};

/// DMA-chunk / pipeline-stage pattern: many concurrent chains, each event
/// rescheduling its successor a few ticks out. This is the kernel's common
/// case — near-future appends, popped in FIFO bucket order.
template <typename Sim>
void near_chain(Sim& sim, Mix& mix, std::uint64_t budget) {
  constexpr int kChains = 64;
  struct Chain {
    Sim* sim;
    Mix* mix;
    std::uint64_t* remaining;
    ara::sim::Rng rng{0};
  };
  std::vector<Chain> chains(kChains, Chain{&sim, &mix, &budget});
  for (int c = 0; c < kChains; ++c) {
    chains[c].rng = ara::sim::Rng(1000 + c);
    Chain* chain = &chains[c];
    auto step = [chain](auto&& self, Capture cap) -> void {
      chain->mix->touch(chain->sim->now(), cap.sum());
      if (*chain->remaining == 0) return;
      --*chain->remaining;
      cap.b += 1;
      chain->sim->schedule_in(1 + chain->rng.next_below(8),
                              [self, cap]() mutable { self(self, cap); });
    };
    const Capture cap{static_cast<std::uint64_t>(c), 0, 42};
    sim.schedule_at(static_cast<Tick>(c % 8),
                    [step, cap]() mutable { step(step, cap); });
  }
  sim.run();
}

/// GAM-burst pattern: admission events fan out same-tick work (slot grants,
/// task starts) that must run in schedule order within the tick.
template <typename Sim>
void same_tick_fanout(Sim& sim, Mix& mix, std::uint64_t budget) {
  struct Driver {
    Sim* sim;
    Mix* mix;
    std::uint64_t remaining;
  };
  Driver driver{&sim, &mix, budget};
  Driver* d = &driver;
  auto burst = [d](auto&& self) -> void {
    constexpr std::uint64_t kFan = 8;
    const std::uint64_t n = std::min<std::uint64_t>(kFan, d->remaining);
    d->remaining -= n;
    for (std::uint64_t i = 0; i < n; ++i) {
      const Capture cap{i, n, 7};
      d->sim->schedule_in(
          0, [d, cap] { d->mix->touch(d->sim->now(), cap.sum()); });
    }
    if (d->remaining > 0) {
      d->sim->schedule_in(3, [self]() mutable { self(self); });
    }
  };
  sim.schedule_at(0, [burst]() mutable { burst(burst); });
  sim.run();
}

/// Mixed-horizon pattern: mostly near-future work with a fraction of long
/// sleeps (trace samplers, idle-stretch interrupts) that land beyond the
/// calendar window and must migrate back in order.
template <typename Sim>
void mixed_horizon(Sim& sim, Mix& mix, std::uint64_t budget) {
  struct Driver {
    Sim* sim;
    Mix* mix;
    std::uint64_t remaining;
    ara::sim::Rng rng{7};
  };
  Driver driver{&sim, &mix, budget, ara::sim::Rng(7)};
  Driver* d = &driver;
  auto step = [d](auto&& self, Capture cap) -> void {
    d->mix->touch(d->sim->now(), cap.sum());
    if (d->remaining == 0) return;
    --d->remaining;
    cap.a += 1;
    const Tick delay = d->rng.next_below(16) == 0
                           ? 4096 + d->rng.next_below(8192)  // long sleep
                           : 1 + d->rng.next_below(32);      // near future
    d->sim->schedule_in(delay,
                        [self, cap]() mutable { self(self, cap); });
  };
  for (int i = 0; i < 16; ++i) {
    const Capture cap{static_cast<std::uint64_t>(i), 9, 1};
    sim.schedule_at(static_cast<Tick>(i),
                    [step, cap]() mutable { step(step, cap); });
  }
  sim.run();
}

// ---------------------------------------------------------------------------

struct Timing {
  double seconds = 0;  // best of the repeats
  std::uint64_t events = 0;
  std::uint64_t checksum = 0;
};

template <typename Sim, typename Pattern>
Timing time_pattern(Pattern pattern, std::uint64_t budget, int repeats) {
  Timing best;
  best.seconds = 1e300;
  for (int r = 0; r < repeats; ++r) {
    Sim sim;
    Mix mix;
    const auto t0 = std::chrono::steady_clock::now();
    pattern(sim, mix, budget);
    const double s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (s < best.seconds) best.seconds = s;
    best.events = mix.events;
    best.checksum = mix.checksum;
  }
  return best;
}

struct Scenario {
  const char* name;
  Timing legacy;
  Timing kernel;
  double speedup() const {
    return kernel.seconds > 0 ? legacy.seconds / kernel.seconds : 0;
  }
};

void write_report(const std::string& path, const std::vector<Scenario>& rows,
                  double legacy_total, double kernel_total,
                  std::uint64_t heap_callbacks) {
  std::ofstream os(path);
  if (!os) {
    std::cerr << "error: cannot write " << path << "\n";
    std::exit(1);
  }
  using ara::obs::json_put;
  std::string out = "{\"bench\":\"kernel_hotpath\",\"jobs\":1,\"scenarios\":[";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    if (i > 0) out += ',';
    json_put(out, "{\"name\":", r.name);
    json_put(out, ",\"events\":", r.kernel.events);
    json_put(out, ",\"legacy_s\":", r.legacy.seconds, 9);
    json_put(out, ",\"kernel_s\":", r.kernel.seconds, 9);
    json_put(out, ",\"speedup\":", r.speedup(), 6);
    out += ",\"checksum_match\":";
    out += r.legacy.checksum == r.kernel.checksum ? "true}" : "false}";
  }
  json_put(out, "],\"total\":{\"legacy_s\":", legacy_total, 9);
  json_put(out, ",\"kernel_s\":", kernel_total, 9);
  json_put(out, ",\"speedup\":",
           kernel_total > 0 ? legacy_total / kernel_total : 0, 6);
  json_put(out, "},\"heap_callbacks\":", heap_callbacks);
  out += "}\n";
  os << out;
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t events = 400000;
  int repeats = 5;
  std::string out = "BENCH_kernel.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        std::cerr << "missing value for " << arg << "\n";
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--events") {
      events = std::strtoull(next().c_str(), nullptr, 10);
    } else if (arg == "--repeats") {
      repeats = std::atoi(next().c_str());
    } else if (arg == "--out") {
      out = next();
    } else if (arg == "--help" || arg == "-h") {
      std::cout << "bench_kernel_hotpath [--events N] [--repeats R] "
                   "[--out FILE]\n";
      return 0;
    } else {
      std::cerr << "unknown option '" << arg << "'\n";
      return 2;
    }
  }
  if (events == 0 || repeats <= 0) {
    std::cerr << "--events and --repeats must be positive\n";
    return 2;
  }

  std::cout << "event-kernel hot path: overhauled Simulator vs legacy "
               "replica (std::function + priority_queue), jobs=1, "
            << events << " events/scenario, best of " << repeats
            << " repeats\n\n";

  std::vector<Scenario> rows;
  auto run_scenario = [&](const char* name, auto pattern) {
    Scenario s;
    s.name = name;
    s.legacy = time_pattern<LegacySimulator>(pattern, events, repeats);
    s.kernel = time_pattern<ara::sim::Simulator>(pattern, events, repeats);
    if (s.legacy.checksum != s.kernel.checksum ||
        s.legacy.events != s.kernel.events) {
      std::cerr << "FATAL: kernels diverged on '" << name
                << "' (events " << s.legacy.events << " vs "
                << s.kernel.events << ")\n";
      std::exit(1);
    }
    std::cout << "  " << name << ": legacy " << s.legacy.seconds * 1e3
              << " ms, kernel " << s.kernel.seconds * 1e3 << " ms  ->  "
              << s.speedup() << "x  (" << s.kernel.events
              << " events, checksums match)\n";
    rows.push_back(s);
  };

  run_scenario("near_chain", [](auto& sim, Mix& mix, std::uint64_t budget) {
    near_chain(sim, mix, budget);
  });
  run_scenario("same_tick_fanout",
               [](auto& sim, Mix& mix, std::uint64_t budget) {
                 same_tick_fanout(sim, mix, budget);
               });
  run_scenario("mixed_horizon", [](auto& sim, Mix& mix, std::uint64_t budget) {
    mixed_horizon(sim, mix, budget);
  });

  double legacy_total = 0, kernel_total = 0;
  for (const auto& r : rows) {
    legacy_total += r.legacy.seconds;
    kernel_total += r.kernel.seconds;
  }
  const double speedup =
      kernel_total > 0 ? legacy_total / kernel_total : 0;

  // Callback-inlining telemetry: re-run one pattern on an instrumented
  // simulator and report how many captures spilled to the heap.
  ara::sim::Simulator probe;
  Mix probe_mix;
  near_chain(probe, probe_mix, std::min<std::uint64_t>(events, 10000));
  const std::uint64_t heap_callbacks = probe.heap_callbacks();

  std::cout << "\n  total: legacy " << legacy_total * 1e3 << " ms, kernel "
            << kernel_total * 1e3 << " ms  ->  " << speedup
            << "x speedup (target >= 1.3x)\n"
            << "  heap-spilled callbacks in near_chain probe: "
            << heap_callbacks << "\n";

  write_report(out, rows, legacy_total, kernel_total, heap_callbacks);
  std::cout << "  report -> " << out << "\n";
  return 0;
}
