// Ablation (§IV.E) — memory-balancing quality of the four placement
// policies: random, round robin, weighted round robin, power of two
// choices. Reports the per-node load spread after a placement-heavy run.
#include <cstdio>

#include "bench_util.h"
#include "cluster/placement.h"
#include "common/rng.h"

int main() {
  using namespace dm;
  bench::print_header(
      "Ablation: placement policy vs memory balance (§IV.E)",
      "p2c/weighted-rr tighten the load spread vs random");

  constexpr std::size_t kNodes = 16;
  constexpr int kPlacements = 20000;

  std::printf("%-14s %12s %12s %12s %10s\n", "Policy", "min(MB)", "max(MB)",
              "spread", "max/mean");
  for (auto kind : {cluster::PlacementPolicyKind::kRandom,
                    cluster::PlacementPolicyKind::kRoundRobin,
                    cluster::PlacementPolicyKind::kWeightedRoundRobin,
                    cluster::PlacementPolicyKind::kPowerOfTwoChoices}) {
    auto policy = cluster::make_placement_policy(kind);
    Rng rng(29);
    std::vector<cluster::CandidateNode> pool;
    for (std::size_t i = 0; i < kNodes; ++i)
      pool.push_back({static_cast<net::NodeId>(i), 512 * MiB});
    std::vector<std::uint64_t> load(kNodes, 0);
    std::vector<net::NodeId> picked;
    for (int i = 0; i < kPlacements; ++i) {
      // Mixed block sizes, as compression produces.
      const std::uint64_t size = 512ull << rng.next_below(4);
      if (!policy->pick(pool, 1, size, rng, picked).ok()) break;
      const auto n = picked.front();
      load[n] += size;
      pool[n].free_bytes -= size;
    }
    const auto [lo, hi] = std::minmax_element(load.begin(), load.end());
    double mean = 0;
    for (auto l : load) mean += static_cast<double>(l);
    mean /= kNodes;
    std::printf("%-14s %12.2f %12.2f %12.2f %10.3f\n",
                std::string(to_string(kind)).c_str(),
                static_cast<double>(*lo) / (1024 * 1024),
                static_cast<double>(*hi) / (1024 * 1024),
                static_cast<double>(*hi - *lo) / (1024 * 1024),
                static_cast<double>(*hi) / mean);
  }
  return 0;
}
