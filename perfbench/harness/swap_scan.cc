// swap_scan — FastSwap under a LogisticRegression-class scan (§IV.H, Fig 7).
//
// One virtual server on a 4-node cluster runs the FastSwap preset (4-way
// granularity compression, batch 8, proactive batch swap-in) with a working
// set twice its resident budget — the paper's 50% configuration. The
// server's allocation bounds its share of the node-level shared pool, so
// most overflow lands there and the rest goes to remote memory. The client
// sweeps the working set sequentially, writing 25% of the pages it touches,
// in a closed loop: one op is one page access (compute, then touch).
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "swap/swap_manager.h"
#include "swap/systems.h"
#include "workloads/app_catalog.h"
#include "workloads/driver.h"

namespace perfbench {
namespace {

using namespace dm;

constexpr std::uint64_t kResidentPages = 2048;
constexpr std::uint64_t kPages = 2 * kResidentPages;
constexpr std::uint64_t kServerBytes = 64 * MiB;
constexpr double kWriteFraction = 0.25;
// Timed page accesses per unit of run length.
constexpr std::uint64_t kOpsPerScale = 80000;

class SwapScan final : public Workload {
 public:
  explicit SwapScan(const Params& params)
      : params_(params),
        app_(*workloads::find_app("LogisticRegression")),
        setup_(swap::make_system(swap::SystemKind::kFastSwap, kResidentPages)),
        rng_(mix64(params.seed ^ 0x5ca9ULL)),
        content_(workloads::content_for(app_, params.seed)),
        expected_(kPages * swap::kPageBytes) {
    // Every page's content, generated before set-up is clocked.
    for (std::uint64_t p = 0; p < kPages; ++p)
      content_(p, std::span(expected_).subspan(p * swap::kPageBytes,
                                                swap::kPageBytes));
  }

  core::DmSystem::Config system_config() const override {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 16 * MiB;
    config.node.recv.arena_bytes = 16 * MiB;
    config.node.disk.capacity_bytes = 64 * MiB;
    config.service = setup_.service;
    return config;
  }

  void prepare(core::DmSystem& system, Probe& probe) override {
    client_ = probe.call(Site::kCreateServer, [&] {
      return &system.create_server(0, kServerBytes, setup_.ldmc);
    });
    manager_ = std::make_unique<swap::SwapManager>(*client_, setup_.swap,
                                                   content_);
    // Untimed warm-up: two sweeps, so every page has been created, evicted
    // and backed once before the first timed access.
    for (std::uint64_t i = 0; i < 2 * kPages; ++i) {
      const Status s = probe.call(
          Site::kTouch, [&] { return manager_->touch(i % kPages, false); });
      if (!s.ok()) fail_check("swap_scan warm-up: " + s.to_string());
    }
  }

  void run(core::DmSystem& system, Probe& probe) override {
    manager_->set_span_sink(probe.spans());
    auto& sim = system.simulator();
    const std::uint64_t ops = expected_ops();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t page = cursor_;
      cursor_ = (cursor_ + 1) % kPages;
      const bool write = rng_.bernoulli(kWriteFraction);
      const SimTime start = sim.now();
      sim.run_until(start + app_.cpu_ns_per_access);
      const Status s =
          probe.call(Site::kTouch, [&] { return manager_->touch(page, write); });
      probe.op_done(Site::kTouch, sim.now() - start, s);
      if (s.ok()) check(page);
    }
  }

  void collect(MetricsRegistry& out) const override {
    if (manager_ == nullptr) return;
    for (const auto& [name, value] : manager_->metrics().counters())
      out.counter(name) += value;
    for (const auto& [name, histogram] : manager_->metrics().histograms())
      out.histogram(name).merge(histogram);
    out.counter("swap.faults") += manager_->faults();
  }

  std::uint64_t expected_ops() const override {
    return kOpsPerScale * static_cast<std::uint64_t>(params_.scale);
  }
  std::vector<std::string> op_roots() const override { return {"swap.fault"}; }

 private:
  void check(std::uint64_t page) const {
    HarnessScope harness;
    auto bytes = manager_->resident_bytes(page);
    if (!bytes.ok()) {
      fail_check("swap_scan: page " + std::to_string(page) +
                 " not resident after touch");
      return;
    }
    const std::byte* want = expected_.data() + page * swap::kPageBytes;
    if (bytes->size() != swap::kPageBytes ||
        !std::equal(bytes->begin(), bytes->end(), want))
      fail_check("swap_scan: page " + std::to_string(page) +
                 " bytes differ from its generated content");
  }

  Params params_;
  workloads::AppSpec app_;
  swap::SystemSetup setup_;
  Rng rng_;
  swap::PageContentFn content_;
  std::vector<std::byte> expected_;  // every page's content, back to back
  core::Ldmc* client_ = nullptr;
  std::unique_ptr<swap::SwapManager> manager_;
  std::uint64_t cursor_ = 0;
};

}  // namespace

std::unique_ptr<Workload> make_swap_scan(const Params& params) {
  return std::make_unique<SwapScan>(params);
}

}  // namespace perfbench
