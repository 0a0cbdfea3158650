// dm_perfbench — one benchmark run of one workload.
//
//   dm_perfbench --workload <swap_scan|kv_zipf_rw|cluster_churn> --seed <n>
//                --seconds <n> --trace <0|1> [--trace-dir <dir>]
//
// A run sets the workload up several times (set-up time is the median),
// then runs its timed window once on the last set-up with tracing off. With
// --trace 1 it then sets up once more, attaches the span tracer and
// benchmark-side host spans, replays the same ops, and writes both span
// sets as Perfetto-loadable JSON into --trace-dir.
//
// Output: host metrics, a deterministic section (byte-identical for a given
// seed and --seconds), and a last line holding one JSON object with every
// metric. Any byte read back that differs from what was written, and any
// failed self-check of the traced run, makes the result line report
// "correct": false.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "core/dm_system.h"
#include "harness.h"
#include "obs/span.h"
#include "probes.h"
#include "report.h"

namespace perfbench {
namespace {

using dm::core::DmSystem;
using Factory = std::unique_ptr<Workload> (*)(const Params&);

// Set-ups per run; set-up metrics report their median.
constexpr int kSetups = 5;

const std::map<std::string_view, Factory>& workloads() {
  static const std::map<std::string_view, Factory> table = {
      {"swap_scan", &make_swap_scan},
      {"kv_zipf_rw", &make_kv_zipf_rw},
      {"cluster_churn", &make_cluster_churn},
  };
  return table;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  int seconds = 0;
  bool trace = false;
  std::string trace_dir = ".";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "dm_perfbench: %s\nusage: dm_perfbench --workload <name> "
               "--seed <n> --seconds <n> --trace <0|1> [--trace-dir <dir>]\n"
               "workloads:",
               why);
  for (const auto& [name, factory] : workloads())
    std::fprintf(stderr, " %.*s", static_cast<int>(name.size()), name.data());
  std::fprintf(stderr, "\n");
  std::exit(64);
}

Args parse(int argc, char** argv) {
  Args args;
  bool have[4] = {false, false, false, false};
  for (int i = 1; i < argc; ++i) {
    const std::string_view flag = argv[i];
    if (i + 1 >= argc) usage("missing flag value");
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
      have[0] = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      if (*end != '\0') usage("--seed takes an unsigned integer");
      have[1] = true;
    } else if (flag == "--seconds") {
      const long seconds = std::strtol(value, &end, 10);
      if (*end != '\0' || seconds < 1 || seconds > 3600)
        usage("--seconds takes an integer in [1, 3600]");
      args.seconds = static_cast<int>(seconds);
      have[2] = true;
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0)
        usage("--trace takes 0 or 1");
      args.trace = value[0] == '1';
      have[3] = true;
    } else if (flag == "--trace-dir") {
      args.trace_dir = value;
    } else {
      usage("unknown flag");
    }
  }
  for (bool h : have)
    if (!h) usage("missing a required flag");
  if (workloads().count(args.workload) == 0) usage("unknown workload");
  return args;
}

// A set-up cluster with its workload state. Members are destroyed in
// reverse order, so the tenants go before the cluster they live on.
struct Instance {
  std::unique_ptr<DmSystem> system;
  std::unique_ptr<Workload> workload;
  std::unique_ptr<Probe> probe;
};

struct SetupTimes {
  double construct_s = 0, start_s = 0, warmup_s = 0, total_s = 0;
  AllocCount allocs;
};

std::unique_ptr<Instance> build(Factory factory, const Params& params,
                                bool host_spans, SetupTimes& times) {
  auto inst = std::make_unique<Instance>();
  inst->workload = factory(params);
  inst->probe =
      std::make_unique<Probe>(host_spans, inst->workload->expected_ops());
  const DmSystem::Config config = inst->workload->system_config();
  const AllocCount a0 = alloc_count();
  const double c0 = program_cpu_seconds();
  inst->system = inst->probe->call(
      Site::kConstruct, [&] { return std::make_unique<DmSystem>(config); });
  const double c1 = program_cpu_seconds();
  inst->probe->call(Site::kStart, [&] { inst->system->start(); });
  const double c2 = program_cpu_seconds();
  inst->workload->prepare(*inst->system, *inst->probe);
  const double c3 = program_cpu_seconds();
  times = {c1 - c0, c2 - c1, c3 - c2, c3 - c0, alloc_count() - a0};
  return inst;
}

struct Window {
  double cpu_s = 0;      // the program's CPU time
  double harness_s = 0;  // the benchmark's own input generation and checks
  AllocCount allocs;
  Delta delta;
};

Window run_window(Instance& inst) {
  const Snapshot before = take_snapshot(*inst.system, *inst.workload);
  inst.probe->begin_window();
  const AllocCount a0 = alloc_count();
  const double c0 = program_cpu_seconds();
  const double h0 = harness_cpu_seconds();
  inst.workload->run(*inst.system, *inst.probe);
  inst.probe->end_window();
  const double c1 = program_cpu_seconds();
  const double h1 = harness_cpu_seconds();
  const AllocCount a1 = alloc_count();
  return {c1 - c0, h1 - h0, a1 - a0,
          Delta(before, take_snapshot(*inst.system, *inst.workload))};
}

double us(double ns) { return ns / 1000.0; }
double per(double num, double den) { return den > 0 ? num / den : 0.0; }

void write_file(const std::string& path, const std::string& body) {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "dm_perfbench: cannot write %s\n", path.c_str());
    std::exit(1);
  }
  std::fputs(body.c_str(), f);
  std::fclose(f);
}

// Benchmark-side host spans as a Chrome/Perfetto trace.
std::string host_trace_json(const Probe& probe) {
  std::string out = "{\n  \"displayTimeUnit\": \"ns\",\n  \"traceEvents\": [";
  const auto& spans = probe.host_spans();
  const std::uint64_t origin = spans.empty() ? 0 : spans.front().begin_ns;
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const HostSpan& s = spans[i];
    const std::string_view name = site_name(s.site);
    std::snprintf(buf, sizeof(buf),
                  "%s\n    {\"name\": \"%.*s\", \"cat\": \"host\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 0, \"tid\": 0}",
                  i == 0 ? "" : ",", static_cast<int>(name.size()), name.data(),
                  static_cast<double>(s.begin_ns - origin) / 1000.0,
                  static_cast<double>(s.dur_ns) / 1000.0);
    out += buf;
  }
  out += "\n  ],\n  \"otherData\": {\"dropped_spans\": " +
         std::to_string(probe.host_spans_dropped()) + "}\n}\n";
  return out;
}

int run(const Args& args) {
  pin_malloc_thresholds();
  const Factory factory = workloads().at(args.workload);
  const Params params{args.seed, args.seconds};

  std::vector<SetupTimes> setups;
  std::unique_ptr<Instance> inst;
  double setup_rss_mib = 0;
  for (int i = 0; i < kSetups; ++i) {
    inst.reset();
    SetupTimes times;
    inst = build(factory, params, /*host_spans=*/false, times);
    setups.push_back(times);
    if (i == 0) setup_rss_mib = peak_rss_mib();
  }
  const Window w = run_window(*inst);
  const Probe& probe = *inst->probe;
  const std::uint64_t attempted = probe.ops();
  const std::uint64_t failed = probe.failed();
  const double peak_rss = peak_rss_mib();
  const auto ops = static_cast<double>(probe.ops());
  const double host_rate = per(ops, w.cpu_s);

  Report r;
  auto setup_median = [&](double SetupTimes::*field) {
    std::vector<double> v;
    for (const SetupTimes& t : setups) v.push_back(t.*field);
    return median(v);
  };
  const auto& lat = probe.latencies();
  r.note("workload " + args.workload + " seed " + std::to_string(args.seed) +
         " seconds " + std::to_string(args.seconds));
  r.note("ops " + std::to_string(probe.ops()) + " failed " +
         std::to_string(probe.failed()) + " latency samples " +
         std::to_string(lat.size()));
  for (const auto& [text, n] : probe.failures())
    r.note("failure x" + std::to_string(n) + ": " + text);

  // End-to-end.
  r.add("setup_s", setup_median(&SetupTimes::total_s), "s", Kind::kHost);
  r.add("host_ops_per_s", host_rate, "ops/s", Kind::kHost);
  r.add("host_allocs_per_op", per(w.allocs.allocs, ops), "allocs/op",
        Kind::kDeterministic);
  r.add("host_alloc_bytes_per_op", per(w.allocs.bytes, ops), "B/op",
        Kind::kDeterministic);
  r.add("peak_rss_mib", peak_rss, "MiB", Kind::kHost);
  // Throughput over the virtual time the ops took. For the closed-loop
  // workloads that is the whole window; for the open-loop script it leaves
  // out the idle gaps the script itself sets.
  r.add("vt_ops_per_s", per(ops, sum(lat) / dm::kSecond), "ops/s",
        Kind::kDeterministic);
  r.add("vt_op_tail_us", us(tail_mean(lat, 0.01)), "us", Kind::kDeterministic);
  r.add("vt_op_p50_us", us(percentile(lat, 0.50)), "us", Kind::kDeterministic);
  r.add("vt_op_p99_us", us(percentile(lat, 0.99)), "us", Kind::kDeterministic);
  r.add("failed_op_ratio", per(probe.failed(), ops), "ratio",
        Kind::kDeterministic);

  // Per layer: counters and histograms differenced across the window.
  const Delta& d = w.delta;
  const auto n = [&](std::string_view name) {
    return static_cast<double>(d.count(name));
  };
  const auto p99_us = [&](std::string_view prefix) {
    return us(static_cast<double>(d.histogram(prefix).p99()));
  };
  const auto per_op = [&](double v) { return per(v, ops); };
  r.add("sim.events_per_op", per_op(d.events()), "events/op",
        Kind::kDeterministic);
  r.add("sim.host_ns_per_event", per(w.cpu_s * 1e9, d.events()), "ns",
        Kind::kHost);
  r.add("harness.cpu_share", per(w.harness_s, w.cpu_s + w.harness_s), "ratio",
        Kind::kHost);
  r.add("net.fabric_messages_per_op", per_op(n("fabric.messages")), "msgs/op",
        Kind::kDeterministic);
  r.add("net.fabric_bytes_per_op", per_op(n("fabric.bytes_transferred")),
        "B/op", Kind::kDeterministic);
  r.add("net.rpc_calls_per_op", per_op(n("rpc.calls")), "calls/op",
        Kind::kDeterministic);
  r.add("net.rpc_rtt_p99_us", p99_us("rpc.rtt."), "us", Kind::kDeterministic);
  r.add("net.fabric_read_p99_us", p99_us("fabric.read_ns"), "us",
        Kind::kDeterministic);
  r.add("net.fabric_write_p99_us", p99_us("fabric.write_ns"), "us",
        Kind::kDeterministic);
  const double ldms_puts = n("ldms.put_shm") + n("ldms.put_remote") +
                           n("ldms.put_disk") + n("ldms.put_nvm");
  r.add("mem.shm_put_share", per(n("ldms.put_shm"), ldms_puts), "ratio",
        Kind::kDeterministic);
  r.add("mem.shm_get_share",
        per(static_cast<double>(d.histogram("ldms.get_ns.shm").count()),
            static_cast<double>(d.histogram("ldms.get_ns.").count())),
        "ratio", Kind::kDeterministic);
  r.add("mem.shm_evictions_per_op", per_op(n("shm.evictions")), "evictions/op",
        Kind::kDeterministic);
  r.add("mem.rbuf_allocs_per_op", per_op(n("rbuf.allocs")), "allocs/op",
        Kind::kDeterministic);
  r.add("storage.disk_ops_per_op", per_op(n("disk.reads") + n("disk.writes")),
        "ops/op", Kind::kDeterministic);
  r.add("core.remote_puts_per_op", per_op(n("ldms.put_remote")), "puts/op",
        Kind::kDeterministic);
  r.add("core.disk_overflow_share",
        per(n("ldms.remote_overflow_to_disk"),
            n("ldms.remote_overflow_to_disk") + n("ldms.put_remote")),
        "ratio", Kind::kDeterministic);
  r.add("core.ldms_get_p99_us", p99_us("ldms.get_ns."), "us",
        Kind::kDeterministic);
  r.add("core.ldms_put_p99_us", p99_us("ldms.put_ns."), "us",
        Kind::kDeterministic);
  r.add("core.migrated_entries", n("ldms.migrated_entries"), "count",
        Kind::kDeterministic);
  r.add("core.migrate_failed",
        n("ldms.migrate_put_failed") + n("ldms.migrate_read_failed"), "count",
        Kind::kDeterministic);
  r.add("core.repaired_entries", n("ldms.repaired_entries"), "count",
        Kind::kDeterministic);
  r.add("swap.faults_per_op", per_op(n("swap.faults")), "faults/op",
        Kind::kDeterministic);
  r.add("swap.fault_p99_us", p99_us("swap.fault_ns."), "us",
        Kind::kDeterministic);
  r.add("swap.pbs_batch_in_share",
        per(n("swap.pbs_batch_ins"),
            n("swap.pbs_batch_ins") + n("swap.single_page_ins")),
        "ratio", Kind::kDeterministic);
  const SiteStats& touch = probe.site(Site::kTouch);
  r.add("swap.host_ns_per_touch_p50", percentile(touch.host_ns, 0.50), "ns",
        Kind::kHost);
  r.add("swap.host_ns_per_touch_p99", percentile(touch.host_ns, 0.99), "ns",
        Kind::kHost);
  r.add("swap.allocs_per_touch",
        per(touch.allocs.allocs, static_cast<double>(touch.host_ns.size())),
        "allocs/op", Kind::kDeterministic);
  r.add("compress.ratio",
        per(n("swap.compressed_bytes"), n("swap.logical_bytes")), "ratio",
        Kind::kDeterministic);
  r.add("ec.encodes_per_op", per_op(n("ec.encodes")), "encodes/op",
        Kind::kDeterministic);
  r.add("ec.degraded_reads", n("ec.degraded_reads"), "count",
        Kind::kDeterministic);
  r.add("ec.shards_repaired", n("ec.shards_repaired"), "count",
        Kind::kDeterministic);
  r.add("ec.encode_p99_us", p99_us("ec.encode_ns"), "us", Kind::kDeterministic);
  r.add("cluster.placement_decisions_per_op", per_op(n("placement.decisions")),
        "decisions/op", Kind::kDeterministic);
  r.add("cluster.placement_failures", n("placement.failures"), "count",
        Kind::kDeterministic);
  r.add("cluster.rebalance_moves", n("placement.rebalance_moves"), "count",
        Kind::kDeterministic);
  r.add("cluster.harvest_offload_requests", n("harvest.offload_requests"),
        "count", Kind::kDeterministic);
  r.add("cluster.migrate_p99_us", p99_us("cluster.migrate_ns"), "us",
        Kind::kDeterministic);
  const SiteStats& get = probe.site(Site::kGet);
  const SiteStats& set = probe.site(Site::kSet);
  const auto gets = static_cast<double>(get.host_ns.size());
  r.add("kvstore.hot_hit_ratio", per(n("kv.hot_hits"), gets), "ratio",
        Kind::kDeterministic);
  r.add("kvstore.dm_hit_ratio", per(n("kv.dm_hits"), gets), "ratio",
        Kind::kDeterministic);
  r.add("kvstore.host_ns_per_get_p50", percentile(get.host_ns, 0.50), "ns",
        Kind::kHost);
  r.add("kvstore.host_ns_per_get_p99", percentile(get.host_ns, 0.99), "ns",
        Kind::kHost);
  r.add("kvstore.host_ns_per_set_p50", percentile(set.host_ns, 0.50), "ns",
        Kind::kHost);
  r.add("kvstore.host_ns_per_set_p99", percentile(set.host_ns, 0.99), "ns",
        Kind::kHost);
  r.add("kvstore.vt_get_p99_us", us(percentile(probe.latencies(Site::kGet), 0.99)),
        "us", Kind::kDeterministic);
  r.add("kvstore.vt_set_p99_us", us(percentile(probe.latencies(Site::kSet), 0.99)),
        "us", Kind::kDeterministic);
  r.add("workloads.lateness_p99_us", us(percentile(probe.lateness(), 0.99)),
        "us", Kind::kDeterministic);
  r.add("setup.construct_s", setup_median(&SetupTimes::construct_s), "s",
        Kind::kHost);
  r.add("setup.start_s", setup_median(&SetupTimes::start_s), "s", Kind::kHost);
  r.add("setup.warmup_s", setup_median(&SetupTimes::warmup_s), "s",
        Kind::kHost);
  r.add("setup.allocs", setups.back().allocs.allocs, "count",
        Kind::kDeterministic);
  r.add("setup.rss_mib", setup_rss_mib, "MiB", Kind::kHost);

  if (args.trace) {
    // Traced replay of the same ops on a fresh set-up (`probe` dies here).
    inst.reset();
    SetupTimes times;
    inst = build(factory, params, /*host_spans=*/true, times);
    dm::obs::SpanTracer tracer(inst->system->simulator());
    inst->system->set_span_sink(&tracer);
    inst->probe->attach_tracer(&tracer, inst->workload->op_roots());
    const Window tw = run_window(*inst);
    const Probe& tp = *inst->probe;
    if (tp.ops() != attempted || tw.delta.vt() != w.delta.vt())
      fail_check("traced replay diverged from the untraced run");
    const TracedTotals& traced = tp.traced();
    for (const char* layer :
         {"swap", "compress", "net", "core", "storage", "ec"}) {
      const auto it = traced.by_layer.find(layer);
      r.add(std::string(layer) + ".vt_self_ns_per_op",
            per_op(it == traced.by_layer.end() ? 0.0
                                                : static_cast<double>(it->second)),
            "ns", Kind::kDeterministic);
    }
    r.add("obs.trace_overhead_ratio",
          per(host_rate, per(ops, tw.cpu_s)), "ratio", Kind::kHost);
    r.note("traced traces " + std::to_string(traced.traces) + " fault traces " +
           std::to_string(traced.fault_traces));

    // Accounting check: the fault traces' per-layer components sum to the
    // fault time the swap layer's own histograms measured.
    const auto fault_hist = tw.delta.histogram("swap.fault_ns.");
    if (traced.fault_traces > 0 || fault_hist.count() > 0) {
      const double measured = static_cast<double>(fault_hist.sum());
      const double drift =
          per(std::abs(static_cast<double>(traced.fault_components_ns) - measured),
              measured);
      r.note("fault accounting: " + std::to_string(traced.fault_traces) +
             " traces vs " + std::to_string(fault_hist.count()) +
             " faults, drift " + format_number(drift));
      if (traced.fault_traces != fault_hist.count() || drift > 0.01)
        fail_check("traced fault components drift from swap.fault_ns by " +
                   format_number(drift));
    }

    const std::string stem = args.trace_dir + "/" + args.workload + "-seed" +
                             std::to_string(args.seed);
    write_file(stem + "-host.trace.json", host_trace_json(tp));
    write_file(stem + "-vt.trace.json", tp.sample_trace_json());
    inst.reset();  // before the tracer its layers point at
  }

  r.note("output check failures " + std::to_string(failed_checks()));
  r.print(failed_checks() == 0, attempted, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  return perfbench::run(perfbench::parse(argc, argv));
}
