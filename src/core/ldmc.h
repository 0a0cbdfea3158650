// Local Disaggregated Memory Client (paper Fig. 1, §IV.B).
//
// One LDMC runs inside each virtual server. It is the only interface
// applications (or the transparent layers acting for them — the swap
// frontend, the RDD cache) see: put/get/remove of opaque entries, with the
// location tracked in the server's disaggregated memory map. Where an entry
// physically lands — shared memory, remote replicas, disk — is decided by
// the node-side service; the LDMC only expresses policy knobs:
//
//  * shm_fraction: the fraction of puts that try the node-coordinated
//    shared pool first. 1.0 is the paper's FS-SM configuration, 0.0 is
//    FS-RDMA, intermediate values give the FS-9:1 / 7:3 / 5:5 splits of
//    Fig 8.
//  * allow_remote / allow_disk: the fallback chain gates (baselines switch
//    these off: Linux swap is disk-only; Infiniswap is remote+disk).
#pragma once

#include <span>

#include "common/checksum.h"
#include "common/op_pool.h"
#include "common/status.h"
#include "core/node_service.h"
#include "mem/memory_map.h"

namespace dm::core {

class Ldmc {
 public:
  using Config = LdmcOptions;

  Ldmc(NodeService& service, cluster::ServerId server, Config config);

  cluster::ServerId server() const noexcept { return server_; }
  mem::MemoryMap& map() noexcept { return map_; }
  const Config& config() const noexcept { return config_; }
  NodeService& service() noexcept { return service_; }

  // --- asynchronous API -------------------------------------------------------
  // `done` fires exactly once. `trace` threads the caller's causal chain
  // through every RPC and verb the operation triggers (kNoTrace = the node
  // service starts a fresh chain), so a swap fault's journey is followable
  // in the tracer.
  using DoneCallback = NodeService::DoneCallback;

  void put(mem::EntryId entry, std::span<const std::byte> data,
           DoneCallback done, net::TraceId trace = net::kNoTrace);
  // Full-entry read of stored bytes (out must be >= stored size).
  void get(mem::EntryId entry, std::span<std::byte> out, DoneCallback done,
           net::TraceId trace = net::kNoTrace);
  // Sub-range read at `offset` within the stored bytes.
  void get_range(mem::EntryId entry, std::uint64_t offset,
                 std::span<std::byte> out, DoneCallback done,
                 net::TraceId trace = net::kNoTrace);
  void remove(mem::EntryId entry, DoneCallback done,
              net::TraceId trace = net::kNoTrace);

  // --- synchronous wrappers (drive the simulator until completion) ------------
  // `trace` threads the caller's chain exactly as in the async API, so
  // blocking-style callers (the swap fault path, tools) keep causal spans.
  [[nodiscard]] Status put_sync(mem::EntryId entry, std::span<const std::byte> data,
                                net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status get_sync(mem::EntryId entry, std::span<std::byte> out,
                                net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status get_range_sync(mem::EntryId entry, std::uint64_t offset,
                        std::span<std::byte> out,
                        net::TraceId trace = net::kNoTrace);
  [[nodiscard]] Status remove_sync(mem::EntryId entry,
                                   net::TraceId trace = net::kNoTrace);

  // Drives the simulator until `done()` holds. Unlike run_until_flag this
  // takes an arbitrary predicate, so callers with several operations in
  // flight (the swap layer's write-back staging buffer) can wait for a
  // compound condition. Errors if the event queue runs dry first.
  [[nodiscard]] Status drain_until(const std::function<bool()>& done);

  [[nodiscard]] StatusOr<std::size_t> stored_size(mem::EntryId entry) const;
  bool contains(mem::EntryId entry) const { return map_.contains(entry); }

  // Tier occupancy counters (bench/tests).
  std::uint64_t puts_to_shm() const noexcept { return puts_shm_; }
  std::uint64_t puts_to_remote() const noexcept { return puts_remote_; }
  std::uint64_t puts_to_disk() const noexcept { return puts_disk_; }
  std::uint64_t puts_to_nvm() const noexcept { return puts_nvm_; }

 private:
  friend class NodeService;  // migration/repair rewrite committed locations

  // One put from call to map commit. `payload` holds the bytes only while
  // an overwrite removes the old entry first.
  struct PutOp {
    mem::EntryId entry = 0;
    std::uint64_t checksum = 0;
    std::uint32_t logical = 0;
    net::TraceId trace = net::kNoTrace;
    std::vector<std::byte> payload;
    DoneCallback done;

    void clear() { done.reset(); }
  };

  // Commits the placed location (or reports the failure) and recycles the
  // record.
  void finish_put(PutOp* op, StatusOr<mem::EntryLocation> location);

  Status wait(const bool& flag, const Status& result);

  NodeService& service_;
  cluster::ServerId server_;
  Config config_;
  mem::MemoryMap map_;
  std::uint64_t put_counter_ = 0;
  std::uint64_t puts_shm_ = 0;
  std::uint64_t puts_remote_ = 0;
  std::uint64_t puts_disk_ = 0;
  std::uint64_t puts_nvm_ = 0;
  OpPool<PutOp> puts_;
};

}  // namespace dm::core
