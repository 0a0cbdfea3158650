// Node-side disaggregated memory orchestration (paper Fig. 1).
//
// NodeService combines the roles the paper draws as separate boxes on each
// node — the Local Disaggregated Memory Server (LDMS), the node manager,
// and ownership of the RDMC/RDMS pair — because they share one state
// machine. Responsibilities:
//
//  * the put path: try the node-coordinated shared memory pool first (DRAM
//    speed), spill the pool's LRU entries to remote memory under pressure,
//    route overflow to remote memory via the RDMC, and fall back to the
//    local swap disk when the cluster has no room (§IV.B);
//  * the get path: serve from whichever tier the entry's committed map
//    location names, failing over across the stripe's units;
//  * eviction notices from remote RDMSes draining a slab (§IV.F): migrate
//    the named entries to new hosts, then free the old blocks;
//  * failure repair (§IV.D): when membership declares a node dead, rebuild
//    the units every local entry's stripe had there;
//  * the eviction monitor (§IV.F policies 1 and 2): watermark-triggered
//    preemptive slab deregistration and ballooning advice for servers that
//    hit disaggregated memory too often.
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <utility>

#include "cluster/node.h"
#include "common/metrics.h"
#include "common/op_pool.h"
#include "common/status.h"
#include "common/units.h"
#include "core/rdmc.h"
#include "core/rdms.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/latency_model.h"
#include "sim/span_sink.h"

namespace dm::core {

class Ldmc;

// Per-virtual-server policy knobs for the LDMC (see ldmc.h for semantics).
// Lives here so NodeService::create_client can accept it while ldmc.h
// depends on this header.
struct LdmcOptions {
  double shm_fraction = 1.0;
  bool allow_remote = true;
  bool allow_disk = true;
  std::size_t map_shards = 16;
  bool verify_checksums = false;  // verify full-entry gets against the map
};

class NodeService {
 public:
  struct EvictionConfig {
    bool enabled = false;
    SimTime period = 500 * kMilli;
    // Policy 1: drain a receive-pool slab when the pool's free fraction
    // drops below this while local servers are going remote.
    double low_free_watermark = 0.15;
    std::uint64_t remote_rate_threshold = 32;  // puts/period to count as hot
    // Policy 2: shrink a hot server's donation by this much per period,
    // giving it back resident DRAM (ballooning).
    bool auto_balloon = false;
    double balloon_step = 0.05;
  };

  struct Config {
    Rdmc::Config rdmc{};
    EvictionConfig eviction{};
    // Migrate shared-pool LRU entries to remote memory when the pool is
    // full, instead of sending the incoming entry remote directly.
    bool spill_shm_lru = true;
    std::size_t max_spill_per_put = 4;
    // §IV.E: consult the group leader for the placement candidate set
    // (refreshed periodically) instead of each node's own heartbeat view.
    // The leader aggregates the group, so placement decisions across nodes
    // draw from one consistent picture.
    bool leader_candidates = false;
    SimTime candidate_refresh_period = 500 * kMilli;
    // Window over which the node's disaggregated-memory pressure (remote
    // puts + non-shm gets) is counted. The last full window's count is
    // what heartbeats advertise and load-aware placement discounts by.
    SimTime pressure_window = 1 * kSecond;
    // Virtual-time CPU cost of the Reed–Solomon codec for coded stripes
    // (rdmc.ec_k > 0, Hydra-style EC). The codec itself is pure computation, so its cost
    // is modeled as latency here: encode on every remote put, decode on
    // degraded reads and shard reconstruction. Defaults approximate a
    // table-driven GF(2^8) software codec on one core.
    sim::CostModel ec_encode_cost{2000, 4.0};
    sim::CostModel ec_decode_cost{3000, 3.0};
  };

  using PutCallback = sim::OpCallback<void(StatusOr<mem::EntryLocation>)>;
  using DoneCallback = sim::OpCallback<void(const Status&)>;

  NodeService(cluster::Node& node, Config config);
  ~NodeService();

  NodeService(const NodeService&) = delete;
  NodeService& operator=(const NodeService&) = delete;

  cluster::Node& node() noexcept { return node_; }
  Rdmc& rdmc() noexcept { return rdmc_; }
  Rdms& rdms() noexcept { return rdms_; }
  MetricsRegistry& metrics() noexcept { return metrics_; }

  // Causal span sink (not owned; null detaches). Traced device-tier I/O
  // gets "disk"/"disk.read|write" and "disk"/"nvm.read|write" spans from
  // post to completion, the disk/NVM components of a fault's critical path.
  void set_span_sink(sim::SpanSink* spans) noexcept { spans_ = spans; }

  // --- client registry -------------------------------------------------------
  Ldmc& create_client(cluster::ServerId server, LdmcOptions options = {});
  Ldmc* client(cluster::ServerId server);
  // Visits every client in server-id order (deterministic; used by the
  // repair scanner and invariant-checking tests).
  void for_each_client(
      const std::function<void(cluster::ServerId, Ldmc&)>& fn);

  // --- LDMS data path (called by Ldmc) ---------------------------------------
  // prefer_shm picks the first tier to try; the fallback chain is
  // shm -> remote -> disk, gated by the allow_* flags. `trace` threads the
  // caller's causal chain through any control/data-plane traffic the
  // operation generates (kNoTrace = start a fresh chain). Completion
  // latency lands in "ldms.put_ns.<tier>" / "ldms.get_ns.<tier>"
  // histograms keyed by the tier that served the request.
  void put_entry(cluster::ServerId server, mem::EntryId entry,
                 std::span<const std::byte> data, bool prefer_shm,
                 bool allow_remote, bool allow_disk, PutCallback done,
                 net::TraceId trace = net::kNoTrace);
  // `location` is read before get_entry returns. With `verify_checksum`
  // set, a successful read whose bytes do not hash to it (fnv1a) fails
  // with kDataLoss.
  void get_entry(cluster::ServerId server, mem::EntryId entry,
                 const mem::EntryLocation& location, std::uint64_t offset,
                 std::span<std::byte> out, DoneCallback done,
                 net::TraceId trace = net::kNoTrace,
                 std::optional<std::uint64_t> verify_checksum = std::nullopt);
  // Releases the storage of an entry the caller already erased from its
  // map (the commit point). Remote blocks whose hosts cannot be reached are
  // counted in "ldms.remove_unfreed_blocks"; the remove still succeeds.
  void remove_entry(cluster::ServerId server, mem::EntryId entry,
                    const mem::EntryLocation& location, DoneCallback done,
                    net::TraceId trace = net::kNoTrace);

  // --- maintenance -----------------------------------------------------------
  // Starts the periodic eviction/ballooning monitor (§IV.F).
  void start_eviction_monitor();
  // Starts the periodic leader candidate-set refresh (no-op unless
  // Config::leader_candidates is set).
  void start_candidate_refresh();
  // One monitor evaluation (exposed for deterministic tests).
  void eviction_tick();

  // Restores one entry to its intended placement (§IV.D hardening): prunes
  // units on dead hosts, rebuilds a short stripe's missing units onto fresh
  // nodes, and re-promotes degraded device-tier entries to remote memory. No-op for healthy entries. Driven by the RepairService;
  // exposed for targeted recovery tests.
  void repair_entry(cluster::ServerId server, mem::EntryId entry,
                    DoneCallback done, net::TraceId trace = net::kNoTrace);

  // A crashed node that reboots loses its DRAM, so every replica the
  // cluster still lists on it is dead even though the host is up again.
  // Drops those units from all local maps and marks the entries degraded
  // for the repair service (called by DmSystem::recover_node before the
  // node rejoins the fabric).
  void invalidate_replicas_on(net::NodeId host);

  std::uint64_t data_loss_entries() const noexcept { return data_loss_; }

  // --- cluster balancing (§I, §IV.F extended) --------------------------------
  // This node's disaggregated-memory demand: the op count of the last full
  // pressure window (lazily rotated against virtual time). Advertised in
  // heartbeats; feeds load-aware placement and the harvester.
  std::uint64_t pressure() const;

  // Runs on a *hot* node: asks the owners of regions hosted here (via
  // kRpcMigrateRegion, in ascending owner order) to live-migrate up to
  // `max_entries` of them to colder donors. Owners reuse the crash-safe
  // copy-then-redirect path (migrate_entry), so every region stays readable
  // throughout and the old copy is freed only after the new location
  // commits. `done` (optional) receives the number of migrations the owners
  // accepted.
  void offload_hot_node(std::size_t max_entries,
                        std::function<void(std::size_t)> done = {});

  // Drains and deregisters this node's least-loaded donated slab (§IV.F
  // policy 1 mechanics, cluster-initiated): hosted regions migrate away,
  // then the DRAM is handed back. Returns false if a drain is already in
  // flight or nothing is registered. Reclaimed DRAM lands in the
  // "harvest.reclaimed_pages" counter when the drain completes.
  bool reclaim_donated_slab();

 private:
  struct DiskExtents {
    std::uint64_t cursor = 0;
    std::map<std::uint32_t, std::vector<std::uint64_t>> free_by_class;
  };

  // Size-class extents on a device tier (kDisk or kNvm).
  [[nodiscard]] StatusOr<std::uint64_t> alloc_extent(mem::Tier tier,
                                                     std::uint32_t size);
  void free_extent(mem::Tier tier, std::uint64_t offset, std::uint32_t size);

  // The remote tier. Every remote entry is one stripe of the configured
  // (k, r) shape — n-way replication is the (1, n−1) stripe — and each
  // lifecycle step below has one path for both; the k > 1 branches cover
  // only codec work and the any-k read.
  //
  // One put_entry across its tiers: the shm attempt with LRU spills, the
  // remote stripe, the device fallback. The record owns the payload copy
  // the shm and remote tiers store and the disk fallback writes.
  struct PutOp {
    cluster::ServerId server = 0;
    mem::EntryId entry = 0;
    Rdmc::Stripe stripe;
    std::size_t spill_budget = 0;
    bool allow_remote = false;
    bool allow_disk = false;
    // Remote memory failed for a reason other than capacity, so a device
    // copy is a degraded placement.
    bool unreachable = false;
    SimTime started = 0;
    net::TraceId trace = net::kNoTrace;
    // The device write in flight.
    mem::Tier tier = mem::Tier::kDisk;
    std::uint64_t at = 0;
    std::uint32_t size = 0;
    sim::AsyncSpan span;
    PutCallback done;

    void clear();
  };

  // One get_entry, from any tier.
  struct GetOp {
    mem::Tier tier = mem::Tier::kSharedMemory;
    std::span<std::byte> out;
    std::optional<std::uint64_t> verify_checksum;
    SimTime started = 0;
    sim::AsyncSpan span;
    DoneCallback done;

    void clear();
  };

  // Tries the shared pool, spilling LRU entries (bounded by the op's
  // budget) before falling through to remote memory or the device tiers.
  void put_shm(PutOp* op);
  void put_shm_fall_through(PutOp* op);
  // Stores op->stripe.payload as a stripe; on failure falls back to the
  // device tiers (when allowed) from the same buffer, flagging the copy
  // degraded unless remote memory was merely full.
  void put_remote(PutOp* op);
  void on_remote_put(PutOp* op,
                     StatusOr<std::vector<mem::RemoteReplica>> landed);
  // Records ldms.put_ns.<tier>, recycles the record and reports `result`.
  void finish_put(PutOp* op, StatusOr<mem::EntryLocation> result);
  // Records ldms.get_ns.<tier>, checks the checksum when asked, recycles
  // the record and reports.
  void finish_get(GetOp* op, Status status);
  // Encodes stripe->payload into the configured stripe (k > 1: coded units,
  // their checksums and the encode's virtual-time cost) and places every
  // unit down to the configured floor. The put, spill and re-promotion
  // paths share it; each turns the landed set into its committed location
  // with adopt_stripe().
  // `stripe` must stay alive until `done` fires.
  void store_remote(cluster::ServerId server, mem::EntryId entry,
                    Rdmc::Stripe& stripe, Rdmc::PutCallback done,
                    net::TraceId trace);
  // Moves `loc` to the remote tier as the stripe stored from `stripe`:
  // shape, unit checksums, landed units, and the degraded flag when short.
  void adopt_stripe(mem::EntryLocation& loc, Rdmc::Stripe& stripe,
                    std::vector<mem::RemoteReplica> landed) const;
  // Bytes one unit of `loc`'s stripe holds.
  static std::size_t unit_size(const mem::EntryLocation& loc);
  // Range read over an EC stripe (k > 1): direct one-sided reads of the
  // covering data units when they all survive; otherwise reconstructs from
  // any k surviving units (the degraded-read path).
  void get_entry_ec(const mem::EntryLocation& location, std::uint64_t offset,
                    std::span<std::byte> out, DoneCallback done,
                    net::TraceId trace);
  void ec_degraded_read(mem::EntryLocation location, std::uint64_t offset,
                        std::span<std::byte> out, DoneCallback done,
                        net::TraceId trace);
  // Decodes an EC payload from fully-read units (checksum-gated), or
  // returns the codec error.
  [[nodiscard]] StatusOr<std::vector<std::byte>> ec_decode_shards(
      const mem::EntryLocation& loc,
      std::vector<std::vector<std::byte>>& shards);
  // The codec for `loc`'s (k, r): the cached one when the shape matches the
  // node config, else a freshly built one in `scratch`.
  [[nodiscard]] StatusOr<const ec::RsCodec*> codec_for(
      const mem::EntryLocation& loc, std::optional<ec::RsCodec>& scratch);
  // Rebuilds the units of `base` (the pruned committed stripe) its dead
  // holders took and places them on fresh nodes, then merges them by unit
  // index into the *current* committed set behind a stale re-check, so a
  // concurrent repair or migration never loses units.
  void repair_stripe(cluster::ServerId server, mem::EntryId entry,
                     mem::EntryLocation base, DoneCallback done,
                     net::TraceId trace);
  // Releases the repair claim on an entry. A repair_entry that arrived
  // while it was held (a later crash may have taken another unit) runs
  // now, against the current committed set.
  void release_repair(cluster::ServerId server, mem::EntryId entry,
                      net::TraceId trace);
  // Device tiers: NVM when present (and then disk when it is full), else
  // disk.
  void put_device(PutOp* op, std::span<const std::byte> data,
                  net::TraceId trace);
  void put_on(PutOp* op, mem::Tier tier, std::span<const std::byte> data,
              net::TraceId trace);
  void on_device_put(PutOp* op, StatusOr<mem::EntryLocation> result);
  // Frees one LRU shared-pool entry by pushing it to remote memory, then
  // continues `op` through after_spill with whether space was reclaimed.
  void spill_one(PutOp* op);
  // Retries op's shm attempt after a spill that made room, else falls
  // through to the next tier.
  void after_spill(PutOp* op, bool progressed);

  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_evict_notice(net::NodeId from,
                                                       net::WireReader& req);
  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_query_candidates(
      net::NodeId from, net::WireReader& req);
  [[nodiscard]] StatusOr<std::vector<std::byte>> handle_migrate_region(
      net::NodeId from, net::WireReader& req);
  // Fills `out` (cleared first) with the alive peers this node's
  // heartbeats know, plus itself when asked.
  void local_candidate_view(bool include_self,
                            std::vector<cluster::CandidateNode>& out) const;
  void refresh_candidates();
  void migrate_entry(cluster::ServerId server, mem::EntryId entry,
                     net::NodeId away_from,
                     net::TraceId trace = net::kNoTrace);
  void repair_after_node_down(net::NodeId dead);
  void note_pressure();

  static std::uint32_t disk_class(std::uint32_t size) noexcept;

  cluster::Node& node_;
  Config config_;
  Rdms rdms_;
  Rdmc rdmc_;
  // Reed–Solomon codec matching Config::rdmc.{ec_k, ec_r}; engaged only
  // for coded stripes (nullopt for copies, or if the shape is invalid).
  std::optional<ec::RsCodec> codec_;
  MetricsRegistry metrics_;
  sim::SpanSink* spans_ = nullptr;
  // Ordered: repair and eviction scans iterate these and issue RPCs, so
  // the walk order must not depend on hash-bucket layout.
  std::map<cluster::ServerId, std::unique_ptr<Ldmc>> clients_;
  DiskExtents disk_extents_;
  DiskExtents nvm_extents_;
  // Per-server disaggregated-memory request counts within the current
  // monitor window (feeds §IV.F policy 2).
  std::map<cluster::ServerId, std::uint64_t> dm_requests_window_;
  std::uint64_t remote_puts_window_ = 0;
  // Pressure accounting: `pressure()` reports the last *full* window so the
  // advertised value is stable within a window (lazy rotation on read and
  // write keeps it a pure function of virtual time + op sequence).
  mutable std::uint64_t pressure_accum_ = 0;
  mutable std::uint64_t pressure_last_ = 0;
  mutable SimTime pressure_window_start_ = 0;
  std::uint64_t data_loss_ = 0;
  bool monitor_running_ = false;
  std::vector<cluster::CandidateNode> candidate_cache_;
  bool candidate_refresh_running_ = false;
  // (server, entry) pairs whose stripe rebuild or re-promotion is in
  // flight. repair_entry on a claimed pair only sets its flag, and the
  // repair reruns once the claim is released.
  std::map<std::pair<cluster::ServerId, mem::EntryId>, bool> repairing_;
  OpPool<PutOp> puts_;
  OpPool<GetOp> gets_;
  // ldms.put_ns.<tier> / ldms.get_ns.<tier>, indexed by mem::Tier; the
  // put row's last slot is "failed".
  std::array<LazyHistogram, 5> put_ns_;
  std::array<LazyHistogram, 4> get_ns_;
};

}  // namespace dm::core
