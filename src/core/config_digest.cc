#include "core/config_digest.h"

#include <charconv>

#include "island/island_config.h"

namespace ara::core {

namespace {

// Appended straight to one string with std::to_chars. (The JSON writers
// in obs/json_io.h use the same calls; core sits below obs.)

template <class Int>
void append_int(std::string& out, Int v) {
  char buf[24];
  const std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

void key_eq(std::string& out, const char* key) {
  out += key;
  out += '=';
}

/// 17 significant digits round-trip any IEEE-754 double exactly; the bytes
/// are printf's "%.17g".
void put(std::string& out, const char* key, double v) {
  key_eq(out, key);
  char buf[32];
  const std::to_chars_result r = std::to_chars(
      buf, buf + sizeof buf, v, std::chars_format::general, 17);
  out.append(buf, r.ptr);
  out += '\n';
}

void put(std::string& out, const char* key, std::uint64_t v) {
  key_eq(out, key);
  append_int(out, v);
  out += '\n';
}

void put(std::string& out, const char* key, bool v) {
  key_eq(out, key);
  out += v ? "1\n" : "0\n";
}

void put(std::string& out, const char* key, const std::string& v) {
  key_eq(out, key);
  out += v;
  out += '\n';
}

}  // namespace

std::uint64_t fnv1a64(std::string_view text) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : text) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string canonical_text(const ArchConfig& c) {
  std::string out = "[arch]\n";
  put(out, "num_islands", std::uint64_t{c.num_islands});
  put(out, "total_abbs", std::uint64_t{c.total_abbs});
  put(out, "mode", std::uint64_t(c.mode));
  put(out, "force_per_task", c.force_per_task);
  put(out, "mono_instances", std::uint64_t{c.mono_instances});
  put(out, "num_cores", std::uint64_t{c.num_cores});
  put(out, "max_jobs_in_flight", std::uint64_t{c.max_jobs_in_flight});
  put(out, "gam_policy", std::uint64_t(c.gam_policy));
  put(out, "trace_enabled", c.trace_enabled);
  put(out, "trace_capacity", std::uint64_t{c.trace_capacity});
  put(out, "trace_sample_interval", c.trace_sample_interval);
  put(out, "gam_request_latency", c.gam_request_latency);
  put(out, "interrupt_overhead", c.interrupt_overhead);

  const auto& isl = c.island;
  out += "[island]\n";
  put(out, "net.topology", std::uint64_t(isl.net.topology));
  put(out, "net.num_rings", std::uint64_t{isl.net.num_rings});
  put(out, "net.link_bytes", isl.net.link_bytes);
  put(out, "net.ring_hop_latency", isl.net.ring_hop_latency);
  put(out, "net.xbar_base_latency", isl.net.xbar_base_latency);
  put(out, "spm_sharing", isl.spm_sharing);
  put(out, "spm_port_multiplier", std::uint64_t{isl.spm_port_multiplier});
  put(out, "base_conflict_rate", isl.base_conflict_rate);
  put(out, "dma_bytes_per_cycle", isl.dma_bytes_per_cycle);
  put(out, "dma_chunk_bytes", isl.dma_chunk_bytes);
  put(out, "fabric_blocks", std::uint64_t{isl.fabric_blocks});
  put(out, "tlb_enabled", isl.tlb_enabled);
  put(out, "tlb.entries", std::uint64_t{isl.tlb.entries});
  put(out, "tlb.page_bytes", isl.tlb.page_bytes);
  put(out, "tlb.walk_latency", isl.tlb.walk_latency);

  out += "[mesh]\n";
  put(out, "width", std::uint64_t{c.mesh.width});
  put(out, "height", std::uint64_t{c.mesh.height});
  put(out, "link_bytes_per_cycle", c.mesh.link_bytes_per_cycle);
  put(out, "router_latency", c.mesh.router_latency);
  put(out, "local_port_bytes_per_cycle", c.mesh.local_port_bytes_per_cycle);
  put(out, "flit_bytes", c.mesh.flit_bytes);
  put(out, "chunk_bytes", c.mesh.chunk_bytes);

  const auto& m = c.mem;
  out += "[mem]\n";
  put(out, "num_memory_controllers", std::uint64_t{m.num_memory_controllers});
  put(out, "num_l2_banks", std::uint64_t{m.num_l2_banks});
  put(out, "mc.bandwidth_bytes_per_cycle", m.mc.bandwidth_bytes_per_cycle);
  put(out, "mc.avg_latency", m.mc.avg_latency);
  put(out, "l2.capacity", m.l2.capacity);
  put(out, "l2.associativity", std::uint64_t{m.l2.associativity});
  put(out, "l2.block_bytes", m.l2.block_bytes);
  put(out, "l2.port_bytes_per_cycle", m.l2.port_bytes_per_cycle);
  put(out, "l2.hit_latency", m.l2.hit_latency);
  put(out, "control_bytes", m.control_bytes);
  put(out, "mc_interleave", m.mc_interleave);
  put(out, "l2_bypass", m.l2_bypass);
  put(out, "bin_pinning", m.bin_pinning);
  put(out, "bin.max_pinned_fraction", m.bin.max_pinned_fraction);
  return out;
}

std::string canonical_text(const workloads::Workload& w) {
  std::string out = "[workload]\n";
  put(out, "name", w.name);
  put(out, "invocations", std::uint64_t{w.invocations});
  put(out, "concurrency", std::uint64_t{w.concurrency});
  put(out, "buffer_rotation", std::uint64_t{w.buffer_rotation});
  put(out, "cmp_cycles_per_invocation", w.cmp_cycles_per_invocation);
  put(out, "cmp_parallel_eff", w.cmp_parallel_eff);

  const auto& dfg = w.dfg;
  out += "[dfg]\n";
  put(out, "name", dfg.name());
  put(out, "nodes", std::uint64_t{dfg.size()});
  for (std::size_t i = 0; i < dfg.size(); ++i) {
    const auto& n = dfg.node(static_cast<TaskId>(i));
    out += "node.";
    append_int(out, i);
    out += '=';
    append_int(out, int(n.kind));
    out += ',';
    append_int(out, n.elements);
    out += ',';
    append_int(out, n.mem_in_bytes);
    out += ',';
    append_int(out, n.mem_out_bytes);
    out += ',';
    append_int(out, n.chain_in_bytes);
    out += n.needs_fabric ? ",1,preds:" : ",0,preds:";
    for (std::size_t p = 0; p < n.preds.size(); ++p) {
      if (p > 0) out += '+';
      append_int(out, n.preds[p]);
    }
    out += '\n';
  }
  return out;
}

}  // namespace ara::core
