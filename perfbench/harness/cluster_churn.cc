// cluster_churn — the multi-tenant ScenarioEngine script on 64 nodes.
//
// Tenants arrive and retire, their homes are zipf-skewed across the
// cluster, and the op rate follows a diurnal wave. Each tenant runs
// FastSwap without compression. The cluster places load-aware, regroups,
// stores remote memory as EC(2,1) stripes and runs the repair service. At
// 30% of the script one node that homes no live tenant is crashed, and 2 s
// later it is recovered. The harvester live-migrates remote entries off
// pressured nodes throughout.
//
// Ops are open-loop in virtual time: one op is one tenant page access,
// issued at its scripted due time or as soon after as the previous op lets
// it, and its latency runs from the due time, so a stall delays later ops.
#include <algorithm>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <vector>

#include "cluster/placement.h"
#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "mem/memory_map.h"
#include "sim/scenario.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace perfbench {
namespace {

using namespace dm;
using sim::ScenarioEngine;

constexpr std::uint32_t kNodes = 64;
constexpr std::uint64_t kResidentPages = 48;
// How long the crashed node stays down.
constexpr SimTime kCrashFor = 2 * kSecond;

// Virtual seconds of script per unit of run length.
constexpr SimTime kScriptPerScale = 2 * kSecond;
// Short lives put ~32 arrivals in every script second (≈16 live), so each
// run averages over about a thousand tenants and its figures move little
// from seed to seed.
constexpr std::uint32_t kInitialTenants = 16;
constexpr SimTime kMeanArrivalGap = 31250 * kMicro;
constexpr SimTime kMeanLifetime = 500 * kMilli;

// What the run needs to know of the whole script before it starts.
struct ScriptPlan {
  std::uint64_t accesses = 0;
  std::optional<std::uint32_t> victim;  // node crashed mid-script
};

class ClusterChurn final : public Workload {
 public:
  explicit ClusterChurn(const Params& params)
      : params_(params),
        app_(*workloads::find_app("LogisticRegression")),
        setup_(swap::make_system(swap::SystemKind::kFastSwap, kResidentPages)),
        scenario_(scenario_config(params)),
        plan_(plan_script(scenario_)) {
    setup_.swap.compression = swap::CompressionMode::kOff;
    setup_.service.rdmc.placement = cluster::PlacementPolicyKind::kLoadAware;
    setup_.service.rdmc.ec_k = 2;
    setup_.service.rdmc.ec_r = 1;
    setup_.service.eviction.enabled = true;
  }

  core::DmSystem::Config system_config() const override {
    core::DmSystem::Config config;
    config.node_count = kNodes;
    config.group_size = 16;
    config.node.shm.arena_bytes = 256 * KiB;
    config.node.recv.arena_bytes = 3 * MiB;
    config.node.disk.capacity_bytes = 24 * MiB;
    config.service = setup_.service;
    config.harvest_enabled = true;
    config.harvest_period = 500 * kMilli;
    config.harvest.hot_ratio = 3.0;
    config.harvest.min_pressure = 64;
    config.harvest.migrate_entries_per_action = 8;
    config.harvest.max_actions_per_tick = 2;
    config.harvest.reclaim_free_watermark = 0.45;
    config.regroup_low_watermark = 0.5;
    config.regroup_check_period = 500 * kMilli;
    config.repair.enabled = true;
    return config;
  }

  void prepare(core::DmSystem& system, Probe& probe) override {
    // One idle tenant per node funds every node's donated pool, so the
    // imbalance is purely the script's home skew.
    for (std::size_t n = 0; n < system.node_count(); ++n)
      probe.call(Site::kCreateServer,
                 [&] { return &system.create_server(n, 8 * MiB); });
  }

  void run(core::DmSystem& system, Probe& probe) override {
    auto& sim = system.simulator();
    ScenarioEngine engine(scenario_);
    engine.start(sim.now());
    const SimTime crash_at = sim.now() + crash_offset(scenario_);
    const SimTime recover_at = sim.now() + recover_offset(scenario_);
    bool crashed = false, recovered = false;

    for (;;) {
      const auto op = engine.next();
      if (op.kind == ScenarioEngine::Op::Kind::kDone) break;
      // Fixed-time failure injection, ahead of any op due at or after it.
      if (plan_.victim && !crashed && op.at >= crash_at) {
        if (crash_at > sim.now()) sim.run_until(crash_at);
        probe.call(Site::kCrash, [&] { system.crash_node(*plan_.victim); });
        crashed = true;
      }
      if (plan_.victim && !recovered && op.at >= recover_at) {
        if (recover_at > sim.now()) sim.run_until(recover_at);
        probe.call(Site::kRecover, [&] { system.recover_node(*plan_.victim); });
        recovered = true;
      }
      if (op.at > sim.now()) sim.run_until(op.at);
      switch (op.kind) {
        case ScenarioEngine::Op::Kind::kSpawn:
          spawn(system, probe, op);
          break;
        case ScenarioEngine::Op::Kind::kAccess: {
          Tenant& t = tenants_.at(op.tenant);
          probe.op_lateness(sim.now() - op.at);
          const Status s = probe.call(
              Site::kTouch, [&] { return t.manager->touch(op.index, op.write); });
          probe.op_done(Site::kTouch, sim.now() - op.at, s);
          if (s.ok()) check(t, op.tenant, op.index);
          break;
        }
        case ScenarioEngine::Op::Kind::kRetire:
          retire(probe, op.tenant);
          break;
        case ScenarioEngine::Op::Kind::kDone:
          break;
      }
    }
  }

  void collect(MetricsRegistry& out) const override {
    fold(retired_, 0, out);
    for (const auto& [id, t] : tenants_)
      fold(t.manager->metrics(), t.manager->faults(), out);
  }

  std::uint64_t expected_ops() const override { return plan_.accesses; }
  std::vector<std::string> op_roots() const override { return {"swap.fault"}; }

 private:
  struct Tenant {
    core::Ldmc* client = nullptr;
    swap::PageContentFn content;
    std::unique_ptr<swap::SwapManager> manager;
    std::vector<std::vector<std::byte>> expected;  // per page, lazily
  };

  static ScenarioEngine::Config scenario_config(const Params& params) {
    ScenarioEngine::Config c;
    c.seed = params.seed;
    c.node_count = kNodes;
    c.duration = kScriptPerScale * params.scale;
    // Arrivals keep coming for the whole script (the cap never binds).
    c.initial_tenants = kInitialTenants;
    c.mean_arrival_gap = kMeanArrivalGap;
    c.mean_lifetime = kMeanLifetime;
    c.max_tenants = c.initial_tenants +
                    static_cast<std::uint32_t>(2 * c.duration / c.mean_arrival_gap);
    c.min_working_set = 96;
    c.max_working_set = 384;
    c.node_skew = 0.8;
    c.mean_op_gap = 2 * kMilli;
    return c;
  }

  // The crash window, as offsets from the start of the script.
  static SimTime crash_offset(const ScenarioEngine::Config& c) {
    return c.duration * 3 / 10;
  }
  static SimTime recover_offset(const ScenarioEngine::Config& c) {
    return crash_offset(c) + kCrashFor;
  }

  // The script is a pure function of its config (its ops are timed from
  // start()): read it once ahead to size the run and to pick the crash
  // victim, the highest node no tenant calls home while it is down. The
  // read costs as much as the run's own script walk, so a process reads
  // each script once however often it sets the workload up.
  static const ScriptPlan& plan_script(const ScenarioEngine::Config& c) {
    static std::map<std::pair<std::uint64_t, SimTime>, ScriptPlan> plans;
    auto [it, fresh] = plans.try_emplace({c.seed, c.duration});
    if (!fresh) return it->second;
    ScriptPlan& plan = it->second;
    ScenarioEngine scan(c);
    scan.start(0);
    std::map<ScenarioEngine::TenantId, ScenarioEngine::Op> spawns;
    std::set<std::uint32_t> busy;  // homes of tenants live in the window
    for (auto op = scan.next(); op.kind != ScenarioEngine::Op::Kind::kDone;
         op = scan.next()) {
      if (op.kind == ScenarioEngine::Op::Kind::kAccess) ++plan.accesses;
      if (op.kind == ScenarioEngine::Op::Kind::kSpawn) spawns[op.tenant] = op;
      if (op.kind != ScenarioEngine::Op::Kind::kRetire) continue;
      const auto& spawn = spawns.at(op.tenant);
      if (spawn.at <= recover_offset(c) && op.at >= crash_offset(c))
        busy.insert(spawn.home % kNodes);
    }
    for (std::uint32_t n = kNodes - 1; n > 0 && !plan.victim; --n)
      if (busy.count(n) == 0) plan.victim = n;
    return plan;
  }

  static void fold(const MetricsRegistry& from, std::uint64_t faults,
                   MetricsRegistry& out) {
    for (const auto& [name, value] : from.counters()) out.counter(name) += value;
    for (const auto& [name, histogram] : from.histograms())
      out.histogram(name).merge(histogram);
    out.counter("swap.faults") += faults;
  }

  void spawn(core::DmSystem& system, Probe& probe, const ScenarioEngine::Op& op) {
    Tenant* t = nullptr;
    {
      UncountedScope uncounted;  // the benchmark's own bookkeeping
      t = &tenants_[op.tenant];
      t->expected.resize(op.working_set);
    }
    t->client = probe.call(Site::kCreateServer, [&] {
      return &system.create_server(op.home % system.node_count(), 4 * MiB,
                                   setup_.ldmc);
    });
    t->content = workloads::content_for(app_, mix64(params_.seed) + op.tenant);
    t->manager = std::make_unique<swap::SwapManager>(*t->client, setup_.swap,
                                                     t->content);
    t->manager->set_span_sink(probe.spans());
  }

  // Departing tenant: free every backing entry (sorted, for a deterministic
  // RPC order), then drop its swap state, keeping its metrics.
  void retire(Probe& probe, ScenarioEngine::TenantId id) {
    auto it = tenants_.find(id);
    if (it == tenants_.end()) return;
    Tenant& t = it->second;
    std::vector<mem::EntryId> entries;
    {
      UncountedScope uncounted;
      t.client->map().for_each(
          [&entries](mem::EntryId e, const mem::EntryLocation&) {
            entries.push_back(e);
          });
      std::sort(entries.begin(), entries.end());
    }
    for (mem::EntryId e : entries) {
      const Status s =
          probe.call(Site::kRemove, [&] { return t.client->remove_sync(e); });
      if (!s.ok()) probe.tally("retire remove", s);
    }
    UncountedScope uncounted;
    fold(t.manager->metrics(), t.manager->faults(), retired_);
    tenants_.erase(it);
  }

  // Compares a touched page with its generated content, generated once per
  // page and kept while the tenant lives (the harness's cost, not the
  // program's).
  void check(Tenant& t, ScenarioEngine::TenantId id, std::uint64_t page) {
    HarnessScope harness;
    auto& want = t.expected.at(page);
    if (want.empty()) {
      want.resize(swap::kPageBytes);
      t.content(page, want);
    }
    auto bytes = t.manager->resident_bytes(page);
    if (!bytes.ok() ||
        !std::equal(bytes->begin(), bytes->end(), want.begin(), want.end()))
      fail_check("cluster_churn: tenant " + std::to_string(id) + " page " +
                 std::to_string(page) + " bytes differ from its content");
  }

  Params params_;
  workloads::AppSpec app_;
  swap::SystemSetup setup_;
  ScenarioEngine::Config scenario_;
  const ScriptPlan& plan_;
  std::map<ScenarioEngine::TenantId, Tenant> tenants_;
  MetricsRegistry retired_;  // metrics of tenants already retired
};

}  // namespace

std::unique_ptr<Workload> make_cluster_churn(const Params& params) {
  return std::make_unique<ClusterChurn>(params);
}

}  // namespace perfbench
