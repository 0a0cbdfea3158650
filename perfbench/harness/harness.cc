#include "harness.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace perfbench {
namespace {

// Traced run: drain completed traces every this many ops.
constexpr std::uint64_t kDrainEvery = 256;
// Traced run: host spans kept for the trace file (the rest are counted).
constexpr std::size_t kMaxHostSpans = 200000;

// Periodic control-plane traffic that runs whether or not ops do.
bool is_background_root(std::string_view root) {
  for (std::string_view name : {"rpc.heartbeat", "rpc.query_free",
                                "rpc.announce_leader", "rpc.query_candidates"})
    if (root == name) return true;
  return false;
}

// Span-tracer subsystem -> benchmark layer name.
std::string_view layer_of(std::string_view subsystem) {
  if (subsystem == "remote") return "core";  // remote RPC dispatch
  if (subsystem == "disk") return "storage";
  return subsystem;
}

}  // namespace

std::string_view site_name(Site site) noexcept {
  switch (site) {
    case Site::kConstruct: return "DmSystem::DmSystem";
    case Site::kStart: return "DmSystem::start";
    case Site::kCreateServer: return "DmSystem::create_server";
    case Site::kTouch: return "SwapManager::touch";
    case Site::kGet: return "KvStore::get";
    case Site::kSet: return "KvStore::set";
    case Site::kRemove: return "Ldmc::remove_sync";
    case Site::kCrash: return "DmSystem::crash_node";
    case Site::kRecover: return "DmSystem::recover_node";
    case Site::kCount: break;
  }
  return "?";
}

Probe::Probe(bool host_spans, std::uint64_t expected_ops)
    : record_host_spans_(host_spans) {
  latency_.reserve(expected_ops);
}

void Probe::attach_tracer(dm::obs::SpanTracer* tracer,
                          std::vector<std::string> op_roots) {
  tracer_ = tracer;
  op_roots_ = std::move(op_roots);
}

dm::sim::SpanSink* Probe::spans() const noexcept { return tracer_; }

void Probe::record_call(Site site, std::uint64_t begin, std::uint64_t dur,
                        AllocCount allocs) {
  UncountedScope uncounted;
  SiteStats& stats = sites_[static_cast<std::size_t>(site)];
  stats.host_ns.push_back(static_cast<std::uint32_t>(
      std::min<std::uint64_t>(dur, std::numeric_limits<std::uint32_t>::max())));
  stats.allocs.allocs += allocs.allocs;
  stats.allocs.bytes += allocs.bytes;
  if (!record_host_spans_) return;
  if (host_spans_.size() < kMaxHostSpans)
    host_spans_.push_back({site, begin, dur});
  else
    ++spans_dropped_;
}

void Probe::begin_window() {
  ops_ = 0;
  failed_ = 0;
  failures_.clear();
  latency_.clear();
  lateness_.clear();
  for (auto& v : site_latency_) v.clear();
  for (auto& s : sites_) {
    s.host_ns.clear();
    s.allocs = {};
  }
}

void Probe::op_done(Site site, SimTime vt_latency, const dm::Status& status) {
  UncountedScope uncounted;
  ++ops_;
  latency_.push_back(vt_latency);
  site_latency_[static_cast<std::size_t>(site)].push_back(vt_latency);
  if (!status.ok()) {
    ++failed_;
    ++failures_[status.to_string()];
  }
  if (tracer_ != nullptr && ops_ % kDrainEvery == 0) drain_tracer();
}

void Probe::tally(std::string_view where, const dm::Status& status) {
  UncountedScope uncounted;
  ++failures_[std::string(where) + ": " + status.to_string()];
}

void Probe::op_lateness(SimTime lateness) {
  UncountedScope uncounted;
  lateness_.push_back(lateness);
}

void Probe::end_window() {
  if (tracer_ != nullptr) drain_tracer();
}

void Probe::drain_tracer() {
  if (sample_json_.empty()) sample_json_ = tracer_->chrome_trace_json();
  for (const auto& done : tracer_->drain_completed()) {
    const bool counted =
        op_roots_.empty()
            ? !is_background_root(done.root_name)
            : std::find(op_roots_.begin(), op_roots_.end(), done.root_name) !=
                  op_roots_.end();
    if (!counted) continue;
    ++traced_.traces;
    const bool fault = done.root_name == "swap.fault";
    if (fault) ++traced_.fault_traces;
    for (const auto& [subsystem, ns] : done.breakdown.by_subsystem) {
      traced_.by_layer[std::string(layer_of(subsystem))] += ns;
      if (fault) traced_.fault_components_ns += ns;
    }
  }
}

namespace {
std::uint64_t g_failed_checks = 0;
constexpr std::uint64_t kPrintedChecks = 10;
}  // namespace

void fail_check(const std::string& what) {
  if (++g_failed_checks > kPrintedChecks) return;
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench: output check failed: %s\n", what.c_str());
}

std::uint64_t failed_checks() noexcept { return g_failed_checks; }

}  // namespace perfbench
