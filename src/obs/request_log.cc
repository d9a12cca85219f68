#include "obs/request_log.h"

#include <cstdio>

#include "obs/json_io.h"

namespace ara::obs {

namespace {

/// Durations are emitted twice: exact integer nanoseconds (so downstream
/// checks like "phases sum to within the total" are exact arithmetic, not
/// float comparisons) and a display-precision total in milliseconds.
constexpr int kMsDigits = 12;

}  // namespace

std::string RequestLog::format_line(const RequestTrace& trace,
                                    std::uint64_t slow_ms) {
  std::string out;
  json_put(out, "{\"trace_id\":", trace.id);
  json_put(out, ",\"client\":", trace.client);
  json_put(out, ",\"workload\":", trace.workload);
  json_put(out, ",\"points\":", trace.points);
  json_put(out, ",\"total_ns\":", trace.total_ns);
  json_put(out, ",\"total_ms\":", static_cast<double>(trace.total_ns) / 1e6,
           kMsDigits);
  out += ",\"phases_ns\":{";
  for (std::size_t p = 0; p < kNumPhases; ++p) {
    if (p > 0) out += ',';
    out += '"';
    out += phase_name(static_cast<Phase>(p));
    out += "\":";
    json_uint(out, trace.phase_ns[p]);
  }
  json_put(out, "},\"outcomes\":{\"hit\":", trace.hits);
  json_put(out, ",\"alias\":", trace.aliases);
  json_put(out, ",\"follower\":", trace.followers);
  json_put(out, ",\"miss\":", trace.misses);
  json_put(out, ",\"failed\":", trace.failed);
  json_put(out, "},\"error\":", trace.error);
  out += ",\"slow\":";
  out += slow_ms > 0 && trace.total_ns >= slow_ms * 1000000ull ? "true"
                                                                : "false";
  out += '}';
  return out;
}

RequestLog::RequestLog(Options opts) : opts_(std::move(opts)) {
  common::MutexLock lock(mu_);
  // Append mode: a restarted daemon continues the same log; ate gives the
  // current size so rotation accounting stays correct across restarts.
  out_.open(opts_.path, std::ios::app | std::ios::ate);
  if (out_) {
    const std::ofstream::pos_type at = out_.tellp();
    bytes_ = at > 0 ? static_cast<std::uint64_t>(at) : 0;
  }
}

bool RequestLog::ok() const {
  common::MutexLock lock(mu_);
  return static_cast<bool>(out_);
}

bool RequestLog::append(const RequestTrace& trace) {
  const std::string line = format_line(trace, opts_.slow_ms);
  common::MutexLock lock(mu_);
  if (!out_) return false;
  if (bytes_ > 0 && bytes_ + line.size() + 1 > opts_.max_bytes) {
    out_.close();
    const std::string old = opts_.path + ".1";
    std::remove(old.c_str());
    std::rename(opts_.path.c_str(), old.c_str());
    out_.open(opts_.path, std::ios::trunc);
    bytes_ = 0;
    ++rotations_;
    if (!out_) return false;
  }
  out_ << line << "\n";
  out_.flush();  // every line must be complete on disk for live tailing
  if (!out_) return false;
  bytes_ += line.size() + 1;
  ++lines_;
  return true;
}

std::uint64_t RequestLog::lines() const {
  common::MutexLock lock(mu_);
  return lines_;
}

std::uint64_t RequestLog::rotations() const {
  common::MutexLock lock(mu_);
  return rotations_;
}

}  // namespace ara::obs
