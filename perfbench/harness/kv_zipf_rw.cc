// kv_zipf_rw — a key-value cache over cluster-level remote memory (§II.B).
//
// A KvStore with a small DRAM hot tier overflows through an LDMC routed
// straight to remote memory (shm_fraction = 0), replicated twice across a
// 4-node cluster. Values are 4 KiB at mixed compressibility. Requests draw
// keys from zipf 0.99 and run 70% get / 30% set in a closed loop with one
// client: one op is one request. Every get is compared with the last value
// set for its key.
#include <array>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "harness.h"
#include "kvstore/kv_store.h"
#include "workloads/page_content.h"

namespace perfbench {
namespace {

using namespace dm;

constexpr std::uint64_t kKeys = 2048;
constexpr std::size_t kValueBytes = 4096;
constexpr std::uint64_t kHotBytes = 128 * KiB;
constexpr double kZipfTheta = 0.99;
constexpr double kGetFraction = 0.70;
// Share of random 64-byte runs per value, picked per key.
constexpr std::array<double, 4> kRandomFractions = {0.05, 0.3, 0.6, 0.9};
// Timed requests per unit of run length.
constexpr std::uint64_t kOpsPerScale = 30000;

class KvZipfRw final : public Workload {
 public:
  explicit KvZipfRw(const Params& params)
      : params_(params),
        rng_(mix64(params.seed ^ 0x4b5ULL)),
        zipf_(kKeys, kZipfTheta),
        shadow_(kKeys, std::vector<std::byte>(kValueBytes)),
        version_(kKeys, 0),
        value_(kValueBytes) {}

  core::DmSystem::Config system_config() const override {
    core::DmSystem::Config config;
    config.node_count = 4;
    config.node.shm.arena_bytes = 4 * MiB;
    config.node.recv.arena_bytes = 32 * MiB;
    config.node.disk.capacity_bytes = 16 * MiB;
    config.service.rdmc.replication = 2;
    return config;
  }

  void prepare(core::DmSystem& system, Probe& probe) override {
    core::LdmcOptions ldmc;
    ldmc.shm_fraction = 0.0;  // overflow goes to cluster-level remote memory
    auto* client = probe.call(Site::kCreateServer, [&] {
      return &system.create_server(0, 64 * MiB, ldmc);
    });
    kv::KvStore::Config config;
    config.hot_bytes = kHotBytes;
    store_ = std::make_unique<kv::KvStore>(*client, config);
    // Untimed preload: every key once; all but the hottest few overflow.
    for (std::uint64_t k = 0; k < kKeys; ++k) {
      next_value(k);
      const Status s =
          probe.call(Site::kSet, [&] { return store_->set(key_, value_); });
      if (!s.ok()) fail_check("kv_zipf_rw preload: " + s.to_string());
      remember(k);
    }
  }

  void run(core::DmSystem& system, Probe& probe) override {
    auto& sim = system.simulator();
    const std::uint64_t ops = expected_ops();
    for (std::uint64_t i = 0; i < ops; ++i) {
      const std::uint64_t k = zipf_.next(rng_);
      const bool get = rng_.bernoulli(kGetFraction);
      const SimTime start = sim.now();
      if (get) {
        key(k);
        auto got = probe.call(Site::kGet, [&] { return store_->get(key_); });
        probe.op_done(Site::kGet, sim.now() - start, got.status());
        if (got.ok()) check(k, *got);
      } else {
        next_value(k);
        const Status s =
            probe.call(Site::kSet, [&] { return store_->set(key_, value_); });
        probe.op_done(Site::kSet, sim.now() - start, s);
        if (s.ok()) remember(k);
      }
    }
  }

  void collect(MetricsRegistry& out) const override {
    if (store_ == nullptr) return;
    for (const auto& [name, value] : store_->metrics().counters())
      out.counter(name) += value;
  }

  std::uint64_t expected_ops() const override {
    return kOpsPerScale * static_cast<std::uint64_t>(params_.scale);
  }

 private:
  void key(std::uint64_t k) {
    key_ = "obj:";
    key_ += std::to_string(k);
  }

  // Generates the key's next version into value_ (and its name into key_).
  // Once set, that value is what later gets of the key must return.
  void next_value(std::uint64_t k) {
    HarnessScope harness;
    const double fraction = kRandomFractions[k % kRandomFractions.size()];
    workloads::fill_page(value_, (k << 32) | ++version_[k], fraction,
                         params_.seed);
    key(k);
  }

  // value_ was set for key k: later gets of k must return it.
  void remember(std::uint64_t k) {
    HarnessScope harness;
    shadow_[k] = value_;
  }

  void check(std::uint64_t k, const std::vector<std::byte>& got) const {
    HarnessScope harness;
    if (got != shadow_[k])
      fail_check("kv_zipf_rw: get(" + key_ + ") differs from the last value set");
  }

  Params params_;
  Rng rng_;
  ZipfGenerator zipf_;
  std::vector<std::vector<std::byte>> shadow_;
  std::vector<std::uint64_t> version_;
  std::vector<std::byte> value_;
  std::string key_;
  std::unique_ptr<kv::KvStore> store_;
};

}  // namespace

std::unique_ptr<Workload> make_kv_zipf_rw(const Params& params) {
  return std::make_unique<KvZipfRw>(params);
}

}  // namespace perfbench
