// perfbench harness: the workload interface and the per-run probe.
//
// A workload builds its cluster through core::DmSystem, creates its servers
// or tenants, and drives ops through the public layer APIs (SwapManager,
// KvStore, ScenarioEngine). Every call it makes into a layer goes through
// Probe::call, which times it on the host clock, counts the allocations it
// made, and — in the traced run — records a host-time span. Every op ends in
// Probe::op_done with its virtual-time latency and Status.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "obs/span.h"
#include "probes.h"
#include "sim/span_sink.h"

namespace perfbench {

using dm::SimTime;

// Workload inputs: everything a workload draws comes from `seed`; `scale`
// is the --seconds run length, turned into a fixed op count (or scenario
// duration) so one (seed, scale) pair always replays the same ops.
struct Params {
  std::uint64_t seed = 1;
  int scale = 1;
};

// The calls into a layer the benchmark times.
enum class Site {
  kConstruct,     // DmSystem constructor
  kStart,         // DmSystem::start
  kCreateServer,  // DmSystem::create_server
  kTouch,         // SwapManager::touch
  kGet,           // KvStore::get
  kSet,           // KvStore::set
  kRemove,        // Ldmc::remove_sync
  kCrash,         // DmSystem::crash_node
  kRecover,       // DmSystem::recover_node
  kCount,
};
std::string_view site_name(Site site) noexcept;

// Host time and allocations of every call made at one site.
struct SiteStats {
  std::vector<std::uint32_t> host_ns;  // one sample per call, saturating
  AllocCount allocs;                   // summed over the calls
};

// A benchmark-side host-time span (traced run only).
struct HostSpan {
  Site site;
  std::uint64_t begin_ns = 0;
  std::uint64_t dur_ns = 0;
};

// Critical-path self time of the traced run, by layer, summed over the
// traces that stand for op work (see Workload::op_roots).
struct TracedTotals {
  std::map<std::string, SimTime> by_layer;
  SimTime fault_components_ns = 0;  // "swap.fault"-rooted traces only
  std::uint64_t fault_traces = 0;
  std::uint64_t traces = 0;
};

class Probe {
 public:
  // `host_spans` records a host-time span per call (traced run). The
  // probe's own bookkeeping is never counted as the program's allocations.
  Probe(bool host_spans, std::uint64_t expected_ops);

  // Traced run: the virtual-time span tracer, drained every few ops so
  // memory stays bounded; only traces rooted at `op_roots` count as op work.
  void attach_tracer(dm::obs::SpanTracer* tracer,
                     std::vector<std::string> op_roots);

  // Times one call into a layer.
  template <class Fn>
  decltype(auto) call(Site site, Fn&& fn) {
    struct Record {
      Probe& probe;
      Site site;
      AllocCount allocs = alloc_count();
      std::uint64_t begin = host_ns();
      ~Record() {
        probe.record_call(site, begin, host_ns() - begin,
                          alloc_count() - allocs);
      }
    } record{*this, site};
    return fn();
  }

  // One workload op ended (successfully or not) after `vt_latency` of
  // virtual time; `site` is the call that carried it.
  void op_done(Site site, SimTime vt_latency, const dm::Status& status);
  // A failed call outside the ops (e.g. a retiring tenant's removes):
  // tallied by text under `where`, not counted as a failed op.
  void tally(std::string_view where, const dm::Status& status);
  // Open-loop workloads: how late the op was issued against its due time.
  void op_lateness(SimTime lateness);

  // Marks the start of the timed window: statistics so far belong to
  // set-up and are discarded.
  void begin_window();
  // Ends the window: drains the tracer.
  void end_window();

  dm::sim::SpanSink* spans() const noexcept;

  std::uint64_t ops() const noexcept { return ops_; }
  std::uint64_t failed() const noexcept { return failed_; }
  const std::map<std::string, std::uint64_t>& failures() const noexcept {
    return failures_;
  }
  const std::vector<SimTime>& latencies() const noexcept { return latency_; }
  const std::vector<SimTime>& latencies(Site s) const noexcept {
    return site_latency_[static_cast<std::size_t>(s)];
  }
  const std::vector<SimTime>& lateness() const noexcept { return lateness_; }
  const SiteStats& site(Site s) const noexcept {
    return sites_[static_cast<std::size_t>(s)];
  }
  const TracedTotals& traced() const noexcept { return traced_; }
  // Chrome/Perfetto JSON of the traces completed by the first drain: a
  // bounded sample of the traced window's virtual-time spans.
  const std::string& sample_trace_json() const noexcept { return sample_json_; }
  const std::vector<HostSpan>& host_spans() const noexcept { return host_spans_; }
  std::uint64_t host_spans_dropped() const noexcept { return spans_dropped_; }

 private:
  static constexpr std::size_t kSites = static_cast<std::size_t>(Site::kCount);

  void record_call(Site site, std::uint64_t begin, std::uint64_t dur,
                   AllocCount allocs);
  void drain_tracer();

  bool record_host_spans_;
  dm::obs::SpanTracer* tracer_ = nullptr;
  std::vector<std::string> op_roots_;
  std::uint64_t ops_ = 0;
  std::uint64_t failed_ = 0;
  std::map<std::string, std::uint64_t> failures_;
  std::vector<SimTime> latency_;
  std::vector<SimTime> site_latency_[kSites];
  std::vector<SimTime> lateness_;
  SiteStats sites_[kSites];
  TracedTotals traced_;
  std::string sample_json_;
  std::vector<HostSpan> host_spans_;
  std::uint64_t spans_dropped_ = 0;
};

// One benchmark workload. The harness constructs the DmSystem from
// system_config(), starts it, then calls prepare() (untimed servers,
// tenants, warm-up pass or preload) and run() (the timed ops).
class Workload {
 public:
  virtual ~Workload() = default;

  virtual dm::core::DmSystem::Config system_config() const = 0;
  virtual void prepare(dm::core::DmSystem& system, Probe& probe) = 0;
  virtual void run(dm::core::DmSystem& system, Probe& probe) = 0;
  // Folds the workload's own registries (swap managers, KV store) into
  // `out`, keyed by their unprefixed metric names.
  virtual void collect(dm::MetricsRegistry& out) const = 0;
  // Ops run() will issue, for sizing the probe's buffers.
  virtual std::uint64_t expected_ops() const = 0;
  // Root span names of the traces that stand for op work in the traced
  // run; empty counts every trace except background control traffic
  // (heartbeats, leader announcements, candidate queries).
  virtual std::vector<std::string> op_roots() const { return {}; }
};

std::unique_ptr<Workload> make_swap_scan(const Params& params);
std::unique_ptr<Workload> make_kv_zipf_rw(const Params& params);
std::unique_ptr<Workload> make_cluster_churn(const Params& params);

// An output check failed: counts it and prints what differs to stderr (the
// first few only). The run goes on, and its result line reports
// "correct": false.
void fail_check(const std::string& what);
// Output checks failed so far in this process.
std::uint64_t failed_checks() noexcept;

}  // namespace perfbench
