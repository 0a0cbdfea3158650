// Replica placement / memory balancing policies (paper §IV.E).
//
// "Several algorithms can be employed to minimize memory imbalance across
// nodes in a cluster (or a group), such as random, round robin (RR),
// weighted RR, or power of two choices." All four are implemented behind one
// interface; bench_ablation_placement sweeps them and reports the resulting
// balance (max/mean load and utilization spread).
#pragma once

#include <memory>
#include <string_view>
#include <span>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "common/metrics.h"
#include "common/rng.h"
#include "common/status.h"

namespace dm::cluster {

enum class PlacementPolicyKind {
  kRandom,
  kRoundRobin,
  kWeightedRoundRobin,
  kPowerOfTwoChoices,
  // Load-aware donor selection: power-of-two probing where the duel is
  // decided by free memory discounted by the candidate's advertised
  // pressure (CandidateNode::pressure). With every pressure at zero it
  // degenerates to kPowerOfTwoChoices exactly (same draws from the same
  // rng stream, same winners) — the static behaviour is a special case,
  // not a separate code path.
  kLoadAware,
};

std::string_view to_string(PlacementPolicyKind kind) noexcept;

// The load-aware donor score: free bytes discounted by the host's own
// disaggregated-memory demand. A donor under pressure will soon want its
// DRAM back (harvest/eviction), so placing there trades one migration now
// for another later. Clamped to >= 1 for eligible candidates so a hot donor
// stays pickable when it is the only option.
std::uint64_t load_aware_score(const CandidateNode& candidate) noexcept;

// Candidates that can host `size` bytes, ordered by descending
// load_aware_score with node id breaking ties — the deterministic donor
// ranking underlying kLoadAware (exposed for the harvester and tests).
std::vector<CandidateNode> load_aware_rank(
    std::span<const CandidateNode> candidates, std::uint64_t size);

class PlacementPolicy {
 public:
  virtual ~PlacementPolicy() = default;

  // Picks `count` distinct nodes from `candidates` into `out` (cleared
  // first) to host replicas of an entry of `size` bytes. Candidates with
  // free_bytes < size are skipped. Fails with kResourceExhausted when fewer
  // than `count` eligible nodes exist.
  [[nodiscard]] virtual Status pick(std::span<const CandidateNode> candidates,
                                    std::size_t count, std::uint64_t size,
                                    Rng& rng, std::vector<net::NodeId>& out) = 0;

  // Instrumented pick: same semantics, plus decision accounting into
  // `metrics` (null = record nothing): "placement.decisions" /
  // "placement.failures" counters and "placement.candidates" /
  // "placement.eligible" histograms. Callers on the hot path use this so
  // observability sees every replica-set decision.
  [[nodiscard]] Status pick_recorded(std::span<const CandidateNode> candidates,
                                     std::size_t count, std::uint64_t size,
                                     Rng& rng, MetricsRegistry* metrics,
                                     std::vector<net::NodeId>& out);

 protected:
  // Eligible-candidate scratch, reused across picks.
  std::vector<CandidateNode> pool_;
};

std::unique_ptr<PlacementPolicy> make_placement_policy(
    PlacementPolicyKind kind);

}  // namespace dm::cluster
