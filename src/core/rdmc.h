// Remote Disaggregated Memory Client (paper Fig. 1–2, §IV.B, §IV.D–E).
//
// The RDMC is the per-node service through which local data leaves for
// remote memory. Every remote entry is one stripe of k data units plus r
// redundant units, one unit per node: n-way replication is the (1, n−1)
// stripe, whose units are verbatim copies, and Hydra-style erasure coding
// is any k > 1. A put is the §IV.D transaction over the stripe's units:
//
//   1. pick one distinct target node per unit via the configured placement
//      policy (§IV.E) over the current candidate set,
//   2. reserve a block on each target (control-plane RPC to its RDMS),
//   3. one-sided RDMA WRITE each unit's bytes into its reserved block,
//   4. succeed once at least the floor of units landed, reporting the
//      landed set; below the floor, free whatever was reserved and report
//      failure, leaving the caller's memory map untouched. With the default
//      floor (every unit) that is all-or-nothing.
//
// Reads are one-sided RDMA READs that fail over across holders, so a dead
// holder costs one detection timeout, not data loss.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "cluster/node.h"
#include "cluster/placement.h"
#include "cluster/protocol.h"
#include "common/metrics.h"
#include "common/op_pool.h"
#include "common/status.h"
#include "common/units.h"
#include "mem/memory_map.h"
#include "sim/event_callback.h"

namespace dm::core {

class Rdmc {
 public:
  struct Config {
    // Stripe shape. ec_k == 0 stores n-way replicas: the (1, replication−1)
    // stripe. ec_k > 0 stores ec_k data + ec_r parity units (Hydra-style,
    // §IV.D alternative): ~(ec_k+ec_r)/ec_k memory overhead instead of
    // replication's factor, surviving any ec_r unit losses.
    std::size_t replication = 3;
    std::size_t ec_k = 0;
    std::size_t ec_r = 0;
    // Degraded-mode floor, in units: a put that cannot place every unit
    // (dead targets, exhausted candidates) still succeeds once this many
    // landed, reporting the short set; the repair service tops it up later.
    // 0 = every unit (strict all-or-nothing, the historical §IV.D
    // transaction); otherwise clamped to [k, k + r], since fewer than k
    // units could never be read back.
    std::size_t min_units = 0;
    cluster::PlacementPolicyKind placement =
        cluster::PlacementPolicyKind::kPowerOfTwoChoices;
    SimTime rpc_timeout = 5 * kMilli;

    std::size_t data_units() const noexcept { return ec_k > 0 ? ec_k : 1; }
    std::size_t total_units() const noexcept {
      return ec_k > 0 ? ec_k + ec_r : replication;
    }
    std::size_t floor_units() const noexcept {
      return min_units == 0
                 ? total_units()
                 : std::clamp(min_units, data_units(), total_units());
    }
  };

  // The bytes a put writes. With coded units (k > 1) unit i is units[i];
  // otherwise every unit is `payload` — a (1, r) stripe's copies, or the
  // single unit a migration carries. checksums (fnv1a per coded unit) are
  // committed with the entry so degraded reads can reject a corrupted unit.
  struct Stripe {
    std::vector<std::byte> payload;
    std::vector<std::vector<std::byte>> units;
    std::vector<std::uint64_t> checksums;

    std::span<const std::byte> unit(std::uint32_t index) const noexcept {
      if (units.empty()) return payload;
      return units[index];
    }
  };

  using PutCallback =
      sim::OpCallback<void(StatusOr<std::vector<mem::RemoteReplica>>)>;
  using ReadCallback = sim::OpCallback<void(const Status&)>;
  using FreedCallback = sim::OpCallback<void(const Status&)>;
  // Fills the vector (cleared first) with the candidate remote hosts.
  using CandidatesProvider =
      std::function<void(std::vector<cluster::CandidateNode>&)>;

  Rdmc(cluster::Node& node, Config config);

  // Candidate remote hosts (typically: alive group members, excluding this
  // node, with their advertised free bytes). Bound by NodeService.
  void set_candidates_provider(CandidatesProvider provider) {
    candidates_ = std::move(provider);
  }

  const Config& config() const noexcept { return config_; }

  // Places the given units of `stripe` (indices within the entry's stripe)
  // on distinct nodes, one unit per node. Succeeds once >= min_needed units
  // are written (0 = all of them) — the landed set, with
  // RemoteReplica::shard naming each unit — and rolls everything back below
  // that. When placement comes up short, units are dropped from the *back*
  // of the list down to min_needed, so callers order them data-first /
  // redundancy-last. `stripe` is read until the writes are posted: the
  // caller keeps it alive until `done` fires. `exclude` removes nodes from
  // candidacy (the entry's other holders, or a node being drained); `trace`
  // joins the alloc RPCs and data-plane writes to the caller's causal chain
  // (kNoTrace = start a fresh chain at this node).
  void put(cluster::ServerId server, mem::EntryId entry, const Stripe& stripe,
           std::span<const std::uint32_t> units, std::size_t min_needed,
           PutCallback done, std::span<const net::NodeId> exclude = {},
           net::TraceId trace = net::kNoTrace);

  // Unit indices 0 .. n−1: every unit of an n-unit stripe.
  static std::span<const std::uint32_t> all_units(std::size_t n) noexcept;

  // Reads out.size() bytes at `range_offset` within a unit, failing over
  // across the given holders in order (each must hold the same bytes).
  void read(std::span<const mem::RemoteReplica> replicas,
            std::uint64_t range_offset, std::span<std::byte> out,
            ReadCallback done, net::TraceId trace = net::kNoTrace);

  // Two-sided fallback read: fetches the range over the control channel
  // (kRpcReadBlock, served by the replica host's RDMS) instead of a
  // one-sided RDMA READ. For callers that cannot establish a data channel
  // to the replica host — connection budget exhausted, or a transport
  // without one-sided verbs. Same replica failover order as read().
  void read_twosided(std::span<const mem::RemoteReplica> replicas,
                     std::uint64_t range_offset, std::span<std::byte> out,
                     ReadCallback done, net::TraceId trace = net::kNoTrace);

  // Frees all replica blocks (best effort on dead hosts); `done` fires with
  // OK after every free settles. Blocks that could not be freed (host
  // crashed or unreachable) are added to `unfreed_to`'s
  // "ldms.remove_unfreed_blocks" counter, created only when non-zero.
  void free_replicas(std::span<const mem::RemoteReplica> replicas,
                     FreedCallback done = {},
                     net::TraceId trace = net::kNoTrace,
                     MetricsRegistry* unfreed_to = nullptr);

 private:
  // One put transaction across its alloc RPCs and write fan-out.
  struct PutOp {
    const Stripe* stripe = nullptr;
    std::vector<mem::RemoteReplica> reserved;  // blocks granted, in reply order
    std::vector<mem::RemoteReplica> written;
    std::vector<mem::RemoteReplica> lost;
    std::size_t pending = 0;
    std::size_t min_needed = 0;
    bool failed = false;
    Status first_error;
    SimTime started = 0;
    net::TraceId trace = net::kNoTrace;
    PutCallback done;

    void clear();
  };

  // One read, failing over across `replicas` in order.
  struct ReadOp {
    std::vector<mem::RemoteReplica> replicas;
    std::size_t index = 0;
    std::uint64_t range_offset = 0;
    std::span<std::byte> out;
    SimTime started = 0;
    net::TraceId trace = net::kNoTrace;
    ReadCallback done;

    void clear();
  };

  struct FreeOp {
    std::size_t pending = 0;
    std::size_t unfreed = 0;
    MetricsRegistry* unfreed_to = nullptr;
    FreedCallback done;

    void clear();
  };

  void on_alloc_reply(PutOp* op, net::NodeId target, std::uint32_t unit,
                      StatusOr<std::vector<std::byte>> resp);
  void note_alloc_failure(PutOp* op, const Status& error);
  void post_writes(PutOp* op);
  void on_write_done(PutOp* op, std::size_t index, const Status& status);
  void settle_writes(PutOp* op);
  // Records rdmc.put_ns, recycles the record and reports `result`.
  void finish_put(PutOp* op, StatusOr<std::vector<mem::RemoteReplica>> result);

  ReadOp* start_read(std::span<const mem::RemoteReplica> replicas,
                     std::uint64_t range_offset, std::span<std::byte> out,
                     ReadCallback done, net::TraceId trace);
  void read_from(ReadOp* op);
  void read_twosided_from(ReadOp* op);
  // Records rdmc.read_ns, recycles the record and reports `status`.
  void finish_read(ReadOp* op, const Status& status);

  cluster::Node& node_;
  Config config_;
  std::unique_ptr<cluster::PlacementPolicy> policy_;
  CandidatesProvider candidates_;
  // Placement scratch, reused by every put.
  std::vector<cluster::CandidateNode> candidate_scratch_;
  std::vector<net::NodeId> target_scratch_;
  OpPool<PutOp> puts_;
  OpPool<ReadOp> reads_;
  OpPool<FreeOp> frees_;
  LazyCounter puts_counter_;
  LazyHistogram put_ns_;
  LazyHistogram read_ns_;
};

}  // namespace dm::core
