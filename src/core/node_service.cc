#include "core/node_service.h"

#include <algorithm>

#include "common/checksum.h"
#include "common/status.h"
#include "common/units.h"
#include "core/ldmc.h"
#include "core/rdmc.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "storage/block_device.h"

namespace dm::core {

using cluster::kRpcEvictNotice;
using cluster::kRpcMigrateRegion;
using cluster::kRpcQueryCandidates;

NodeService::NodeService(cluster::Node& node, Config config)
    : node_(node), config_(std::move(config)), rdms_(node),
      rdmc_(node, config_.rdmc),
      put_ns_{LazyHistogram(metrics_, "ldms.put_ns.shm"),
              LazyHistogram(metrics_, "ldms.put_ns.remote"),
              LazyHistogram(metrics_, "ldms.put_ns.disk"),
              LazyHistogram(metrics_, "ldms.put_ns.nvm"),
              LazyHistogram(metrics_, "ldms.put_ns.failed")},
      get_ns_{LazyHistogram(metrics_, "ldms.get_ns.shm"),
              LazyHistogram(metrics_, "ldms.get_ns.remote"),
              LazyHistogram(metrics_, "ldms.get_ns.disk"),
              LazyHistogram(metrics_, "ldms.get_ns.nvm")} {
  if (config_.rdmc.ec_k > 0) {
    auto codec = ec::RsCodec::make(config_.rdmc.ec_k, config_.rdmc.ec_r);
    // An invalid (k, r) leaves EC puts failing with FailedPrecondition
    // rather than silently replicating.
    if (codec.ok()) codec_.emplace(*std::move(codec));
  }
  // Candidate set for placement: either this node's own heartbeat view or
  // the leader-aggregated cache (§IV.E), when enabled and populated.
  rdmc_.set_candidates_provider(
      [this](std::vector<cluster::CandidateNode>& out) {
        if (config_.leader_candidates && !candidate_cache_.empty()) {
          out.assign(candidate_cache_.begin(), candidate_cache_.end());
          return;
        }
        local_candidate_view(/*include_self=*/false, out);
      });
  node_.rpc().handle(kRpcQueryCandidates,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_query_candidates(from, r);
                     });
  node_.rpc().handle(kRpcEvictNotice,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_evict_notice(from, r);
                     });
  node_.rpc().handle(kRpcMigrateRegion,
                     [this](net::NodeId from, net::WireReader& r) {
                       return handle_migrate_region(from, r);
                     });
  node_.membership().on_peer_down(
      [this](net::NodeId dead) { repair_after_node_down(dead); });
  // Advertise local DM demand in heartbeats so placement and harvesting on
  // other nodes can steer around hot spots.
  node_.membership().set_pressure_provider([this]() { return pressure(); });
}

NodeService::~NodeService() = default;

Ldmc& NodeService::create_client(cluster::ServerId server,
                                 LdmcOptions options) {
  auto it = clients_.find(server);
  if (it != clients_.end()) return *it->second;
  auto client = std::make_unique<Ldmc>(*this, server, options);
  auto* raw = client.get();
  clients_.emplace(server, std::move(client));
  return *raw;
}

Ldmc* NodeService::client(cluster::ServerId server) {
  auto it = clients_.find(server);
  return it == clients_.end() ? nullptr : it->second.get();
}

void NodeService::for_each_client(
    const std::function<void(cluster::ServerId, Ldmc&)>& fn) {
  for (const auto& [server, client_ptr] : clients_) fn(server, *client_ptr);
}

// ---- put path ---------------------------------------------------------------

void NodeService::PutOp::clear() {
  stripe.units.clear();
  stripe.checksums.clear();
  spill_budget = 0;
  unreachable = false;
  span = {};
  done.reset();
}

void NodeService::GetOp::clear() {
  out = {};
  verify_checksum.reset();
  span = {};
  done.reset();
}

void NodeService::put_entry(cluster::ServerId server, mem::EntryId entry,
                            std::span<const std::byte> data, bool prefer_shm,
                            bool allow_remote, bool allow_disk,
                            PutCallback done, net::TraceId trace) {
  ++dm_requests_window_[server];
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  PutOp* op = puts_.acquire();
  op->server = server;
  op->entry = entry;
  op->allow_remote = allow_remote;
  op->allow_disk = allow_disk;
  // Per-tier put latency, keyed by whichever tier finally accepted the
  // entry (the fallback chain may walk shm -> remote -> disk).
  op->started = node_.simulator().now();
  op->trace = trace;
  op->done = std::move(done);
  if (prefer_shm || allow_remote)
    op->stripe.payload.assign(data.begin(), data.end());

  if (prefer_shm) {
    // Iterative shm attempt with bounded LRU spill (§IV.B: the LDMS asks
    // the node manager for more shared-memory space before going remote).
    op->spill_budget = config_.max_spill_per_put;
    put_shm(op);
    return;
  }
  if (allow_remote) {
    put_remote(op);
  } else if (allow_disk) {
    put_device(op, data, trace);
  } else {
    finish_put(op, ResourceExhaustedError("no tier available for entry"));
  }
}

void NodeService::put_shm(PutOp* op) {
  const auto& payload = op->stripe.payload;
  Status s = node_.shm().put(op->server, op->entry, payload);
  if (s.ok()) {
    const SimTime cost =
        node_.fabric().config().latency.shared_memory.cost(payload.size());
    ++metrics_.counter("ldms.put_shm");
    node_.simulator().schedule_after(
        cost, [this, op, size = static_cast<std::uint32_t>(payload.size())]() {
          mem::EntryLocation loc;
          loc.tier = mem::Tier::kSharedMemory;
          loc.stored_size = size;
          finish_put(op, std::move(loc));
        });
    return;
  }
  const bool can_spill = s.code() == StatusCode::kResourceExhausted &&
                         config_.spill_shm_lru && op->allow_remote &&
                         op->spill_budget > 0;
  if (can_spill) {
    --op->spill_budget;
    spill_one(op);
    return;
  }
  put_shm_fall_through(op);
}

void NodeService::put_shm_fall_through(PutOp* op) {
  if (op->allow_remote) {
    put_remote(op);
  } else if (op->allow_disk) {
    put_device(op, op->stripe.payload, net::kNoTrace);
  } else {
    finish_put(op, ResourceExhaustedError("no tier available for entry"));
  }
}

void NodeService::finish_put(PutOp* op, StatusOr<mem::EntryLocation> result) {
  const std::size_t row =
      result.ok() ? static_cast<std::size_t>(result->tier) : put_ns_.size() - 1;
  put_ns_[row]->record(
      static_cast<std::uint64_t>(node_.simulator().now() - op->started));
  PutCallback done = std::move(op->done);
  puts_.release(op);
  done(std::move(result));
}

void NodeService::put_remote(PutOp* op) {
  ++remote_puts_window_;
  note_pressure();
  // One buffer serves the stripe (every copy, when k = 1) and the disk
  // fallback in on_remote_put.
  store_remote(
      op->server, op->entry, op->stripe,
      [this, op](StatusOr<std::vector<mem::RemoteReplica>> landed) {
        on_remote_put(op, std::move(landed));
      },
      op->trace);
}

void NodeService::on_remote_put(
    PutOp* op, StatusOr<std::vector<mem::RemoteReplica>> landed) {
  if (landed.ok()) {
    mem::EntryLocation loc;
    adopt_stripe(loc, op->stripe, *std::move(landed));
    // Degraded-mode put (§IV.D hardening): not every unit of the stripe
    // landed; flag it for the repair service.
    if (loc.degraded) ++metrics_.counter("ldms.put_remote_degraded");
    ++metrics_.counter("ldms.put_remote");
    finish_put(op, std::move(loc));
    return;
  }
  // Remote tier refused the entry. Capacity exhaustion is a normal
  // overflow; anything else means remote memory is unreachable, so the disk
  // copy is a *degraded* placement the repair service should re-promote
  // once the cluster heals.
  if (!op->allow_disk) {
    finish_put(op, landed.status());
    return;
  }
  op->unreachable = landed.status().code() != StatusCode::kResourceExhausted;
  ++metrics_.counter("ldms.remote_overflow_to_disk");
  put_device(op, op->stripe.payload, op->trace);
}

void NodeService::store_remote(cluster::ServerId server, mem::EntryId entry,
                               Rdmc::Stripe& stripe, Rdmc::PutCallback done,
                               net::TraceId trace) {
  const std::size_t k = config_.rdmc.data_units();
  const std::size_t total = config_.rdmc.total_units();
  if (k == 1) {
    // Every unit is the payload itself: no codec, no encode cost.
    rdmc_.put(server, entry, stripe, Rdmc::all_units(total),
              config_.rdmc.floor_units(), std::move(done), /*exclude=*/{},
              trace);
    return;
  }
  if (!codec_) {
    // An invalid (k, r) fails EC puts rather than silently replicating.
    done(FailedPreconditionError("ec codec unavailable (invalid k/r)"));
    return;
  }
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  auto units = codec_->encode(stripe.payload);
  if (!units.ok()) {
    done(units.status());
    return;
  }
  stripe.units = *std::move(units);
  stripe.checksums.resize(total);
  for (std::size_t i = 0; i < total; ++i)
    stripe.checksums[i] = fnv1a(stripe.units[i]);
  // The codec is pure computation; charge its CPU as virtual time before
  // the unit fan-out starts.
  const SimTime cost = config_.ec_encode_cost.cost(stripe.payload.size());
  metrics_.histogram("ec.encode_ns").record(static_cast<std::uint64_t>(cost));
  ++metrics_.counter("ec.encodes");
  std::uint64_t span = 0;
  if (spans_ != nullptr)
    // dm-lint: allow(span-unclosed) — closed when the encode delay elapses.
    span = spans_->begin_span(trace, node_.id(), "ec", "ec.encode");
  node_.simulator().schedule_after(
      cost, [this, server, entry, total, span, trace,
             have_span = spans_ != nullptr, stripe = &stripe,
             done = std::move(done)]() mutable {
        if (have_span && spans_ != nullptr) spans_->end_span(span);
        rdmc_.put(server, entry, *stripe, Rdmc::all_units(total),
                  config_.rdmc.floor_units(), std::move(done),
                  /*exclude=*/{}, trace);
      });
}

void NodeService::adopt_stripe(mem::EntryLocation& loc, Rdmc::Stripe& stripe,
                               std::vector<mem::RemoteReplica> landed) const {
  const std::size_t k = config_.rdmc.data_units();
  const std::size_t total = config_.rdmc.total_units();
  loc.tier = mem::Tier::kRemote;
  loc.stored_size = static_cast<std::uint32_t>(stripe.payload.size());
  loc.disk_offset = 0;
  loc.ec_k = static_cast<std::uint8_t>(k);
  loc.ec_r = static_cast<std::uint8_t>(total - k);
  loc.shard_checksums = std::move(stripe.checksums);
  loc.replicas = std::move(landed);
  loc.degraded = loc.replicas.size() < total;
}

std::size_t NodeService::unit_size(const mem::EntryLocation& loc) {
  return loc.ec_k > 1 ? ec::RsCodec::shard_size(loc.stored_size, loc.ec_k)
                      : loc.stored_size;
}

StatusOr<const ec::RsCodec*> NodeService::codec_for(
    const mem::EntryLocation& loc, std::optional<ec::RsCodec>& scratch) {
  if (codec_ && codec_->k() == loc.ec_k && codec_->r() == loc.ec_r)
    return &*codec_;
  auto codec = ec::RsCodec::make(loc.ec_k, loc.ec_r);
  if (!codec.ok()) return codec.status();
  scratch.emplace(*std::move(codec));
  return &*scratch;
}

StatusOr<std::vector<std::byte>> NodeService::ec_decode_shards(
    const mem::EntryLocation& loc,
    std::vector<std::vector<std::byte>>& shards) {
  // Reject shards whose bytes do not match the committed checksum before
  // they can poison the decode (a corrupted shard is as lost as a missing
  // one, but silently wrong without this gate).
  for (std::size_t i = 0; i < shards.size(); ++i) {
    if (shards[i].empty() || i >= loc.shard_checksums.size()) continue;
    if (fnv1a(shards[i]) != loc.shard_checksums[i]) {
      shards[i].clear();
      ++metrics_.counter("ec.corrupt_shards");
    }
  }
  std::optional<ec::RsCodec> scratch;
  auto codec = codec_for(loc, scratch);
  if (!codec.ok()) return codec.status();
  return (*codec)->decode(shards, loc.stored_size);
}

void NodeService::get_entry_ec(const mem::EntryLocation& location,
                               std::uint64_t offset, std::span<std::byte> out,
                               DoneCallback done, net::TraceId trace) {
  ++metrics_.counter("ec.reads");
  const std::size_t k = location.ec_k;
  const std::size_t shard_len =
      ec::RsCodec::shard_size(location.stored_size, k);
  if (out.empty()) {
    node_.simulator().schedule_after(
        0, [done = std::move(done)]() { done(Status::Ok()); });
    return;
  }
  // Fast path: the requested range maps onto whole-or-partial *data*
  // shards read directly (systematic code — no decode needed). Falls to
  // the degraded path if any covering shard is missing or its host is
  // known-down; reads that fail in flight (partitions) fall back too.
  struct Seg {
    mem::RemoteReplica replica;
    std::uint64_t off = 0;
    std::span<std::byte> dst;
  };
  std::vector<Seg> segs;
  bool all_present = true;
  const std::uint64_t end = offset + out.size();
  for (std::uint64_t s = offset / shard_len; s * shard_len < end; ++s) {
    const std::uint64_t seg_begin =
        std::max<std::uint64_t>(offset, s * shard_len);
    const std::uint64_t seg_end =
        std::min<std::uint64_t>(end, (s + 1) * shard_len);
    const mem::RemoteReplica* holder = nullptr;
    for (const auto& replica : location.replicas)
      if (replica.shard == s) holder = &replica;
    if (holder == nullptr || !node_.fabric().node_up(holder->node)) {
      all_present = false;
      break;
    }
    segs.push_back({*holder, seg_begin - s * shard_len,
                    out.subspan(seg_begin - offset, seg_end - seg_begin)});
  }
  if (!all_present) {
    ec_degraded_read(location, offset, out, std::move(done), trace);
    return;
  }
  // One copy of the request, shared by the segment reads, for the degraded
  // fallback a failed segment needs.
  struct FastRead {
    std::size_t pending = 0;
    bool failed = false;
    mem::EntryLocation location;
    std::uint64_t offset = 0;
    std::span<std::byte> out;
    net::TraceId trace = net::kNoTrace;
    DoneCallback done;
  };
  auto st = std::make_shared<FastRead>();
  st->pending = segs.size();
  st->location = location;
  st->offset = offset;
  st->out = out;
  st->trace = trace;
  st->done = std::move(done);
  for (const auto& seg : segs) {
    auto landed = [this, st](const Status& s) {
      if (!s.ok()) st->failed = true;
      if (--st->pending != 0) return;
      if (!st->failed) {
        st->done(Status::Ok());
        return;
      }
      ec_degraded_read(std::move(st->location), st->offset, st->out,
                       std::move(st->done), st->trace);
    };
    static_assert(Rdmc::ReadCallback::stores_inline<decltype(landed)>());
    rdmc_.read(std::span(&seg.replica, 1), seg.off, seg.dst,
               std::move(landed), trace);
  }
}

void NodeService::ec_degraded_read(mem::EntryLocation location,
                                   std::uint64_t offset,
                                   std::span<std::byte> out,
                                   DoneCallback done, net::TraceId trace) {
  const std::size_t k = location.ec_k;
  const std::size_t total = k + location.ec_r;
  const std::size_t shard_len =
      ec::RsCodec::shard_size(location.stored_size, k);
  struct Degraded {
    NodeService* self = nullptr;
    mem::EntryLocation loc;
    std::vector<std::vector<std::byte>> shards;
    std::size_t pending = 0;
    std::uint64_t offset = 0;
    std::span<std::byte> out;
    DoneCallback done;
    net::TraceId trace = net::kNoTrace;
  };
  auto st = std::make_shared<Degraded>();
  st->self = this;
  st->loc = std::move(location);
  st->shards.assign(total, {});
  st->offset = offset;
  st->out = out;
  st->done = std::move(done);
  st->trace = trace;
  auto finish = [st]() {
    auto data = st->self->ec_decode_shards(st->loc, st->shards);
    if (!data.ok()) {
      st->done(data.status());
      return;
    }
    const SimTime cost =
        st->self->config_.ec_decode_cost.cost(st->loc.stored_size);
    st->self->metrics_.histogram("ec.decode_ns")
        .record(static_cast<std::uint64_t>(cost));
    ++st->self->metrics_.counter("ec.degraded_reads");
    std::uint64_t span = 0;
    const bool have_span = st->self->spans_ != nullptr;
    if (have_span)
      // dm-lint: allow(span-unclosed) — closed when the decode delay ends.
      span = st->self->spans_->begin_span(st->trace, st->self->node_.id(),
                                          "ec", "ec.decode");
    std::copy_n(data->data() + st->offset, st->out.size(), st->out.data());
    st->self->node_.simulator().schedule_after(
        cost, [st, span, have_span]() {
          if (have_span && st->self->spans_ != nullptr)
            st->self->spans_->end_span(span);
          st->done(Status::Ok());
        });
  };
  // Pull every surviving shard in full, in parallel; failures just leave
  // their slot empty and the decode proceeds from whatever >= k arrive.
  std::size_t launched = 0;
  for (const auto& replica : st->loc.replicas)
    if (replica.shard < total) ++launched;
  if (launched == 0) {
    node_.simulator().schedule_after(0, [st]() {
      st->done(DataLossError("ec entry has no surviving shards"));
    });
    return;
  }
  st->pending = launched;
  for (const auto& replica : st->loc.replicas) {
    if (replica.shard >= total) continue;
    st->shards[replica.shard].resize(shard_len);
    rdmc_.read(
        std::span(&replica, 1), 0, st->shards[replica.shard],
        [st, shard = replica.shard, finish](const Status& s) {
          if (!s.ok()) st->shards[shard].clear();
          if (--st->pending == 0) finish();
        },
        trace);
  }
}

void NodeService::put_device(PutOp* op, std::span<const std::byte> data,
                             net::TraceId trace) {
  note_pressure();
  // §VI convergence: a local NVM tier, when present, sits between remote
  // memory and the rotational swap device.
  put_on(op, node_.nvm() != nullptr ? mem::Tier::kNvm : mem::Tier::kDisk,
         data, trace);
}

void NodeService::put_on(PutOp* op, mem::Tier tier,
                         std::span<const std::byte> data, net::TraceId trace) {
  const bool nvm = tier == mem::Tier::kNvm;
  const auto size = static_cast<std::uint32_t>(data.size());
  auto offset = alloc_extent(tier, size);
  if (!offset.ok()) {
    if (!nvm) {
      on_device_put(op, offset.status());
      return;
    }
    // NVM full: fall through to the disk below it.
    ++metrics_.counter("ldms.nvm_overflow_to_disk");
    put_on(op, mem::Tier::kDisk, data, trace);
    return;
  }
  op->span = sim::AsyncSpan::open(spans_, trace, node_.id(), "disk",
                                  nvm ? "nvm.write" : "disk.write");
  op->tier = tier;
  op->at = *offset;
  op->size = size;
  storage::BlockDevice& device = nvm ? *node_.nvm() : node_.disk();
  Status posted = device.write(
      op->at, data, [this, op](const Status& s, SimTime) {
        if (!s.ok()) {
          free_extent(op->tier, op->at, op->size);
          on_device_put(op, s);
          return;
        }
        mem::EntryLocation loc;
        loc.tier = op->tier;
        loc.stored_size = op->size;
        loc.disk_offset = op->at;
        ++metrics_.counter(op->tier == mem::Tier::kNvm ? "ldms.put_nvm"
                                                       : "ldms.put_disk");
        on_device_put(op, std::move(loc));
      });
  if (!posted.ok()) {
    free_extent(tier, op->at, size);
    if (!nvm) ++metrics_.counter("ldms.put_disk_failed");
    on_device_put(op, posted);
  }
}

void NodeService::on_device_put(PutOp* op,
                                StatusOr<mem::EntryLocation> result) {
  op->span.close();
  if (result.ok() && op->unreachable) {
    result->degraded = true;
    ++metrics_.counter("ldms.degraded_to_disk");
  }
  finish_put(op, std::move(result));
}

void NodeService::spill_one(PutOp* op) {
  auto victim = node_.shm().lru_entry();
  if (!victim) {
    after_spill(op, false);
    return;
  }
  const auto [owner, entry] = *victim;
  Ldmc* owner_client = client(owner);
  if (owner_client == nullptr) {
    after_spill(op, false);
    return;
  }
  const mem::EntryLocation* old_loc = owner_client->map().lookup(entry);
  if (old_loc == nullptr || old_loc->tier != mem::Tier::kSharedMemory) {
    // Map and pool disagree; drop the orphan pool entry defensively.
    (void)node_.shm().remove(owner, entry);
    ++metrics_.counter("ldms.spill_orphan");
    after_spill(op, true);
    return;
  }
  auto size = node_.shm().stored_size(owner, entry);
  if (!size.ok()) {
    after_spill(op, false);
    return;
  }
  auto stripe = std::make_shared<Rdmc::Stripe>();
  stripe->payload.resize(*size);
  if (Status s = node_.shm().peek(owner, entry, stripe->payload); !s.ok()) {
    after_spill(op, false);
    return;
  }
  store_remote(
      owner, entry, *stripe,
      [this, op, owner, entry, stripe, old = *old_loc](
          StatusOr<std::vector<mem::RemoteReplica>> landed) mutable {
        if (!landed.ok()) {
          ++metrics_.counter("ldms.spill_failed");
          after_spill(op, false);
          return;
        }
        // Re-check: the owner may have removed or moved the entry while the
        // put was in flight — committing now would resurrect it with stale
        // data and leak the blocks.
        Ldmc* live_client = client(owner);
        const mem::EntryLocation* current =
            live_client != nullptr ? live_client->map().lookup(entry)
                                   : nullptr;
        if (current == nullptr ||
            current->tier != mem::Tier::kSharedMemory) {
          rdmc_.free_replicas(*landed);
          ++metrics_.counter("ldms.spill_stale");
          // Space may already be free.
          after_spill(op, !node_.shm().contains(owner, entry));
          return;
        }
        mem::EntryLocation loc = std::move(old);
        adopt_stripe(loc, *stripe, *std::move(landed));
        live_client->map().commit(entry, std::move(loc));
        (void)node_.shm().remove(owner, entry);
        ++metrics_.counter("ldms.spilled_to_remote");
        after_spill(op, true);
      },
      net::kNoTrace);
}

void NodeService::after_spill(PutOp* op, bool progressed) {
  if (progressed) {
    put_shm(op);
  } else {
    put_shm_fall_through(op);
  }
}

// ---- get / remove paths -----------------------------------------------------

void NodeService::get_entry(cluster::ServerId server, mem::EntryId entry,
                            const mem::EntryLocation& location,
                            std::uint64_t offset, std::span<std::byte> out,
                            DoneCallback done, net::TraceId trace,
                            std::optional<std::uint64_t> verify_checksum) {
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  // A get that misses shared memory is unmet local demand: it counts
  // toward the advertised pressure alongside overflow puts.
  if (location.tier != mem::Tier::kSharedMemory) note_pressure();
  // Per-tier access latency: the paper's core latency story is the gap
  // between these histograms (DRAM-speed shm vs RDMA vs device).
  GetOp* op = gets_.acquire();
  op->tier = location.tier;
  op->out = out;
  op->verify_checksum = verify_checksum;
  op->started = node_.simulator().now();
  op->done = std::move(done);
  auto served = [this, op](const Status& s) { finish_get(op, s); };
  static_assert(DoneCallback::stores_inline<decltype(served)>());
  switch (location.tier) {
    case mem::Tier::kSharedMemory: {
      Status s = node_.shm().get_range(server, entry, offset, out);
      const SimTime cost =
          node_.fabric().config().latency.shared_memory.cost(out.size());
      node_.simulator().schedule_after(
          cost, [this, op, s]() { finish_get(op, s); });
      return;
    }
    case mem::Tier::kRemote:
      if (location.ec_k > 1) {
        get_entry_ec(location, offset, out, std::move(served), trace);
        return;
      }
      rdmc_.read(location.replicas, offset, out, std::move(served), trace);
      return;
    case mem::Tier::kNvm:
    case mem::Tier::kDisk: {
      storage::BlockDevice* device =
          location.tier == mem::Tier::kNvm ? node_.nvm() : &node_.disk();
      if (device == nullptr) {
        finish_get(op, FailedPreconditionError("entry on absent NVM tier"));
        return;
      }
      op->span = sim::AsyncSpan::open(
          spans_, trace, node_.id(), "disk",
          location.tier == mem::Tier::kNvm ? "nvm.read" : "disk.read");
      Status posted = device->read(
          location.disk_offset + offset, out,
          [this, op](const Status& s, SimTime) { finish_get(op, s); });
      if (!posted.ok()) {
        node_.simulator().schedule_after(
            0, [this, op, posted]() { finish_get(op, posted); });
      }
      return;
    }
  }
  finish_get(op, InternalError("unknown tier"));
}

void NodeService::finish_get(GetOp* op, Status status) {
  op->span.close();
  get_ns_[static_cast<std::size_t>(op->tier)]->record(
      static_cast<std::uint64_t>(node_.simulator().now() - op->started));
  if (status.ok() && op->verify_checksum &&
      fnv1a(op->out) != *op->verify_checksum)
    status = DataLossError("checksum mismatch on get");
  DoneCallback done = std::move(op->done);
  gets_.release(op);
  done(status);
}

void NodeService::remove_entry(cluster::ServerId server, mem::EntryId entry,
                               const mem::EntryLocation& location,
                               DoneCallback done, net::TraceId trace) {
  switch (location.tier) {
    case mem::Tier::kSharedMemory: {
      Status s = node_.shm().remove(server, entry);
      node_.simulator().schedule_after(
          node_.fabric().config().latency.shared_memory.overhead_ns,
          [s, done = std::move(done)]() { done(s); });
      return;
    }
    case mem::Tier::kRemote:
      // The caller erased the map entry first: that is the commit point. A
      // block whose host cannot be reached (crashed, partitioned) is counted
      // here, not reported as a failure — a crashed host loses it anyway.
      rdmc_.free_replicas(location.replicas, std::move(done), trace,
                          &metrics_);
      return;
    case mem::Tier::kNvm:
    case mem::Tier::kDisk:
      free_extent(location.tier, location.disk_offset, location.stored_size);
      node_.simulator().schedule_after(
          0, [done = std::move(done)]() { done(Status::Ok()); });
      return;
  }
  done(InternalError("unknown tier"));
}

// ---- eviction notices and migration (§IV.F) ---------------------------------

StatusOr<std::vector<std::byte>> NodeService::handle_evict_notice(
    net::NodeId, net::WireReader& req) {
  const auto evicting = static_cast<net::NodeId>(req.u32());
  const auto count = req.u32();
  DM_RETURN_IF_ERROR(req.status());
  std::vector<std::pair<cluster::ServerId, mem::EntryId>> victims;
  victims.reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    const auto server = static_cast<cluster::ServerId>(req.u32());
    const auto entry = static_cast<mem::EntryId>(req.u64());
    if (!req.ok()) break;
    victims.emplace_back(server, entry);
  }
  DM_RETURN_IF_ERROR(req.status());
  // Ack immediately; migrations proceed asynchronously and complete the
  // drain by freeing the old blocks.
  for (const auto& [server, entry] : victims) {
    node_.simulator().schedule_after(0, [this, evicting, server = server,
                                         entry = entry]() {
      migrate_entry(server, entry, evicting);
    });
  }
  return std::vector<std::byte>{};
}

void NodeService::migrate_entry(cluster::ServerId server, mem::EntryId entry,
                                net::NodeId away_from, net::TraceId trace) {
  Ldmc* owner = client(server);
  if (owner == nullptr) {
    ++metrics_.counter("ldms.migrate_unknown_server");
    return;
  }
  const mem::EntryLocation* loc = owner->map().lookup(entry);
  if (loc == nullptr || loc->tier != mem::Tier::kRemote) {
    ++metrics_.counter("ldms.migrate_stale");
    return;
  }
  mem::RemoteReplica old_replica;
  std::vector<mem::RemoteReplica> survivors;
  for (const auto& replica : loc->replicas) {
    if (replica.node == away_from) {
      old_replica = replica;
    } else {
      survivors.push_back(replica);
    }
  }
  if (old_replica.node == net::kInvalidNode) {
    ++metrics_.counter("ldms.migrate_stale");
    return;
  }
  // Only the unit held on `away_from` moves. Any other holder of the same
  // bytes serves as the source — with k = 1 every unit is a copy — else
  // `away_from` itself (still up: this is a drain, not a crash).
  std::vector<mem::RemoteReplica> sources;
  if (loc->ec_k <= 1) sources = survivors;
  if (sources.empty()) sources.push_back(old_replica);
  auto stripe = std::make_shared<Rdmc::Stripe>();
  stripe->payload.resize(unit_size(*loc));
  std::vector<net::NodeId> exclude;
  for (const auto& replica : loc->replicas) exclude.push_back(replica.node);
  const SimTime migrate_started = node_.simulator().now();
  rdmc_.read(
      sources, 0, stripe->payload,
      [this, server, entry, stripe, survivors = std::move(survivors),
       old_replica, trace, migrate_started, exclude = std::move(exclude),
       base = *loc](const Status& s) mutable {
        if (!s.ok()) {
          ++metrics_.counter("ldms.migrate_read_failed");
          return;
        }
        // The put's completion holds the stripe: the put reads it until its
        // writes are posted.
        rdmc_.put(
            server, entry, *stripe,
            std::span<const std::uint32_t>(&old_replica.shard, 1),
            /*min_needed=*/1,
            [this, server, entry, stripe, survivors = std::move(survivors),
             old_replica, migrate_started, base = std::move(base)](
                StatusOr<std::vector<mem::RemoteReplica>> fresh) mutable {
              if (!fresh.ok()) {
                ++metrics_.counter("ldms.migrate_put_failed");
                return;
              }
              Ldmc* live_owner = client(server);
              // Re-check: the entry may have been removed, relocated or
              // repaired while the copy was in flight — never resurrect it,
              // and never commit over a holder set other than the one that
              // was copied (that would drop the current blocks and free one
              // of them while live).
              const mem::EntryLocation* current =
                  live_owner != nullptr ? live_owner->map().lookup(entry)
                                        : nullptr;
              if (current == nullptr || current->tier != mem::Tier::kRemote ||
                  current->replicas != base.replicas) {
                rdmc_.free_replicas(*fresh);
                ++metrics_.counter("ldms.migrate_stale");
                return;
              }
              mem::EntryLocation updated = std::move(base);
              updated.replicas = std::move(survivors);
              for (auto& replica : *fresh) updated.replicas.push_back(replica);
              updated.degraded =
                  updated.replicas.size() < updated.total_units();
              live_owner->map().commit(entry, std::move(updated));
              rdmc_.free_replicas(std::span(&old_replica, 1));
              ++metrics_.counter("ldms.migrated_entries");
              metrics_.histogram("cluster.migrate_ns")
                  .record(static_cast<std::uint64_t>(
                      node_.simulator().now() - migrate_started));
            },
            exclude, trace);
      },
      trace);
}

// ---- cluster balancing: live migration off hot nodes ------------------------

StatusOr<std::vector<std::byte>> NodeService::handle_migrate_region(
    net::NodeId, net::WireReader& req) {
  const auto hot_node = static_cast<net::NodeId>(req.u32());
  const auto max_entries = req.u32();
  DM_RETURN_IF_ERROR(req.status());
  // Walk owned maps in (server, entry) order and schedule copy-then-redirect
  // migrations for regions replicated on the hot node, up to the budget.
  // Like the eviction path, migrations run asynchronously after the ack;
  // each keeps the source replica until the new location commits, so a
  // crash mid-migration degrades back to the pre-migration placement.
  std::uint32_t scheduled = 0;
  for (const auto& [server, client_ptr] : clients_) {
    if (scheduled >= max_entries) break;
    for (mem::EntryId entry :
         client_ptr->map().entries_with_replica_on(hot_node)) {
      if (scheduled >= max_entries) break;
      node_.simulator().schedule_after(
          0, [this, hot_node, server = server, entry]() {
            migrate_entry(server, entry, hot_node, node_.next_trace_id());
          });
      ++scheduled;
      ++metrics_.counter("placement.rebalance_moves");
    }
  }
  net::WireWriter w;
  w.put_u32(scheduled);
  return std::move(w).take();
}

void NodeService::offload_hot_node(std::size_t max_entries,
                                   std::function<void(std::size_t)> done) {
  // Owners of regions hosted here, asked in ascending id order, each with
  // the remaining budget. Sequential (next RPC only after the previous
  // reply) so the budget is respected and the RPC order is deterministic.
  struct Offload : std::enable_shared_from_this<Offload> {
    NodeService* self = nullptr;
    std::vector<std::pair<net::NodeId, std::size_t>> owners;
    std::size_t next = 0;
    std::size_t budget = 0;
    std::size_t accepted = 0;
    std::function<void(std::size_t)> done;

    void step() {
      if (next >= owners.size() || budget == 0) {
        if (done) done(accepted);
        return;
      }
      const net::NodeId owner = owners[next++].first;
      net::WireWriter w;
      w.put_u32(self->node_.id());
      w.put_u32(static_cast<std::uint32_t>(budget));
      self->node_.rpc().call(
          owner, kRpcMigrateRegion, std::move(w).take(), 100 * kMilli,
          [op = shared_from_this()](StatusOr<std::vector<std::byte>> resp) {
            if (resp.ok()) {
              net::WireReader r(*resp);
              const std::uint32_t got = r.u32();
              if (r.ok()) {
                const std::size_t n = std::min<std::size_t>(got, op->budget);
                op->accepted += n;
                op->budget -= n;
                ++op->self->metrics_.counter("harvest.offload_scheduled");
              }
            }
            op->step();
          });
    }
  };

  ++metrics_.counter("harvest.offload_requests");
  auto op = std::make_shared<Offload>();
  op->self = this;
  op->owners = rdms_.hosted_owners();
  op->budget = max_entries;
  op->done = std::move(done);
  op->step();
}

bool NodeService::reclaim_donated_slab() {
  if (rdms_.active_drains() != 0) return false;
  auto slab = node_.recv_pool().least_loaded_slab();
  if (!slab) return false;
  ++metrics_.counter("harvest.slab_drains");
  const SimTime drain_started = node_.simulator().now();
  const std::uint64_t registered_before = node_.recv_pool().registered_bytes();
  rdms_.drain_slab(*slab, [this, drain_started,
                           registered_before](const Status& s) {
    metrics_.histogram("harvest.drain_ns")
        .record(static_cast<std::uint64_t>(node_.simulator().now() -
                                           drain_started));
    if (!s.ok()) {
      ++metrics_.counter("harvest.drain_failed");
      return;
    }
    const std::uint64_t registered_after = node_.recv_pool().registered_bytes();
    if (registered_after < registered_before)
      metrics_.counter("harvest.reclaimed_pages") +=
          (registered_before - registered_after) / 4096;
  });
  return true;
}

void NodeService::repair_after_node_down(net::NodeId dead) {
  for (auto& [server, client_ptr] : clients_) {
    Ldmc* owner = client_ptr.get();
    for (mem::EntryId entry : owner->map().entries_with_replica_on(dead)) {
      const mem::EntryLocation* loc = owner->map().lookup(entry);
      if (loc == nullptr || loc->tier != mem::Tier::kRemote) continue;
      std::vector<mem::RemoteReplica> survivors;
      for (const auto& replica : loc->replicas)
        if (replica.node != dead &&
            node_.fabric().node_up(replica.node))
          survivors.push_back(replica);
      // A stripe stays readable while >= k units survive.
      if (survivors.size() < loc->ec_k) {
        ++data_loss_;
        ++metrics_.counter("ldms.repair_data_loss");
        continue;
      }
      // Degrade the committed set first so reads stop touching the dead
      // host, then let repair_entry rebuild the lost units onto fresh nodes.
      mem::EntryLocation degraded = *loc;
      degraded.replicas = std::move(survivors);
      degraded.degraded = degraded.replicas.size() < degraded.total_units();
      owner->map().commit(entry, std::move(degraded));
      const auto server_id = server;
      node_.simulator().schedule_after(0, [this, server_id, entry]() {
        repair_entry(server_id, entry, [](const Status&) {});
      });
    }
  }
}

void NodeService::invalidate_replicas_on(net::NodeId host) {
  for_each_client([&](cluster::ServerId, Ldmc& owner) {
    for (mem::EntryId entry : owner.map().entries_with_replica_on(host)) {
      const mem::EntryLocation* loc = owner.map().lookup(entry);
      if (loc == nullptr || loc->tier != mem::Tier::kRemote) continue;
      std::vector<mem::RemoteReplica> survivors;
      for (const auto& replica : loc->replicas)
        if (replica.node != host) survivors.push_back(replica);
      // A stripe stays readable down to k surviving units (one, for
      // copies). Below that floor the rebooted node held the last usable
      // bytes: genuine data loss.
      if (survivors.size() < loc->ec_k) {
        ++data_loss_;
        ++metrics_.counter("ldms.repair_data_loss");
        continue;
      }
      mem::EntryLocation updated = *loc;
      updated.replicas = std::move(survivors);
      updated.degraded = updated.replicas.size() < updated.total_units();
      owner.map().commit(entry, std::move(updated));
      ++metrics_.counter("ldms.replicas_invalidated");
    }
  });
}

void NodeService::repair_entry(cluster::ServerId server, mem::EntryId entry,
                               DoneCallback done, net::TraceId trace) {
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  Ldmc* owner = client(server);
  if (owner == nullptr) {
    done(NotFoundError("unknown server"));
    return;
  }
  const mem::EntryLocation* loc = owner->map().lookup(entry);
  if (loc == nullptr) {
    done(NotFoundError("entry not mapped"));
    return;
  }
  // The node-down trigger and the repair scan can both reach a short
  // entry. The first to start its rebuild claims it; a later request
  // asks for a rerun once that rebuild settles, since another crash may
  // have taken a unit the running rebuild does not know about.
  if (auto claim = repairing_.find({server, entry});
      claim != repairing_.end()) {
    claim->second = true;
    done(Status::Ok());
    return;
  }

  if (loc->tier == mem::Tier::kRemote) {
    // Prune units whose hosts are down, then rebuild the missing ones.
    std::vector<mem::RemoteReplica> survivors;
    for (const auto& replica : loc->replicas)
      if (node_.fabric().node_up(replica.node)) survivors.push_back(replica);
    if (survivors.size() < loc->ec_k) {
      ++data_loss_;
      ++metrics_.counter("ldms.repair_data_loss");
      done(DataLossError("fewer than k units survive"));
      return;
    }
    mem::EntryLocation pruned = *loc;
    pruned.replicas = std::move(survivors);
    pruned.degraded = pruned.replicas.size() < pruned.total_units();
    if (pruned.replicas.size() != loc->replicas.size() ||
        pruned.degraded != loc->degraded)
      owner->map().commit(entry, pruned);
    if (pruned.replicas.size() >= pruned.total_units()) {
      done(Status::Ok());
      return;
    }
    repairing_.emplace(std::pair(server, entry), false);
    repair_stripe(server, entry, std::move(pruned), std::move(done), trace);
    return;
  }

  if ((loc->tier == mem::Tier::kDisk || loc->tier == mem::Tier::kNvm) &&
      loc->degraded) {
    // Disk-fallback entry: re-promote it to remote memory as a full stripe,
    // then release the device extent.
    struct Promotion {
      NodeService* self = nullptr;
      cluster::ServerId server = 0;
      mem::EntryId entry = 0;
      Rdmc::Stripe stripe;
      mem::EntryLocation old;  // the device copy the bytes are read from
      DoneCallback done;
      net::TraceId trace = net::kNoTrace;

      // Releases the claim, then reports.
      void finish(const Status& status) {
        self->release_repair(server, entry, trace);
        done(status);
      }
    };
    auto p = std::make_shared<Promotion>();
    p->self = this;
    p->server = server;
    p->entry = entry;
    p->stripe.payload.resize(loc->stored_size);
    p->old = *loc;
    p->done = std::move(done);
    p->trace = trace;
    repairing_.emplace(std::pair(server, entry), false);
    get_entry(
        server, entry, *loc, 0, p->stripe.payload,
        [this, server, entry, p, trace](const Status& s) {
          if (!s.ok()) {
            ++metrics_.counter("ldms.repair_read_failed");
            p->finish(s);
            return;
          }
          store_remote(
              server, entry, p->stripe,
              [this, server, entry,
               p](StatusOr<std::vector<mem::RemoteReplica>> landed) {
                if (!landed.ok()) {
                  ++metrics_.counter("ldms.repair_put_failed");
                  p->finish(landed.status());
                  return;
                }
                Ldmc* live_owner = client(server);
                const mem::EntryLocation* current =
                    live_owner != nullptr ? live_owner->map().lookup(entry)
                                          : nullptr;
                // Promote only if the entry still sits in the same device
                // extent the bytes were read from.
                mem::EntryLocation& old = p->old;
                if (current == nullptr || current->tier != old.tier ||
                    current->disk_offset != old.disk_offset) {
                  rdmc_.free_replicas(*landed);
                  ++metrics_.counter("ldms.repair_stale");
                  p->finish(Status::Ok());
                  return;
                }
                free_extent(old.tier, old.disk_offset, old.stored_size);
                adopt_stripe(old, p->stripe, *std::move(landed));
                live_owner->map().commit(entry, std::move(old));
                ++metrics_.counter("ldms.promoted_from_disk");
                p->finish(Status::Ok());
              },
              trace);
        },
        trace);
    return;
  }

  // Healthy (or shm-resident) entry: nothing to repair.
  done(Status::Ok());
}

void NodeService::release_repair(cluster::ServerId server,
                                 mem::EntryId entry, net::TraceId trace) {
  auto claim = repairing_.extract({server, entry});
  if (claim && claim.mapped())
    repair_entry(server, entry, [](const Status&) {}, trace);
}

void NodeService::repair_stripe(cluster::ServerId server, mem::EntryId entry,
                                mem::EntryLocation base, DoneCallback done,
                                net::TraceId trace) {
  const std::size_t k = base.ec_k;
  const std::size_t total = base.total_units();
  struct Repair : std::enable_shared_from_this<Repair> {
    NodeService* self = nullptr;
    cluster::ServerId server = 0;
    mem::EntryId entry = 0;
    mem::EntryLocation base;  // pruned committed state
    std::vector<std::uint32_t> missing;
    std::vector<net::NodeId> exclude;  // every surviving holder
    Rdmc::Stripe stripe;
    std::size_t pending = 0;
    DoneCallback done;
    net::TraceId trace = net::kNoTrace;

    // Releases the entry's repair claim, then reports.
    void finish(const Status& status) {
      self->release_repair(server, entry, trace);
      done(status);
    }

    // Places the rebuilt units (partial success is fine: every landed unit
    // strictly improves durability and the next scan retries the rest),
    // then merges them into the current committed set.
    void place() {
      self->rdmc_.put(
          server, entry, stripe, missing, /*min_needed=*/1,
          [st = shared_from_this()](
              StatusOr<std::vector<mem::RemoteReplica>> fresh) {
            st->merge(std::move(fresh));
          },
          exclude, trace);
    }

    void merge(StatusOr<std::vector<mem::RemoteReplica>> fresh) {
      if (!fresh.ok()) {
        ++self->metrics_.counter("ldms.repair_put_failed");
        finish(fresh.status());
        return;
      }
      Ldmc* live_owner = self->client(server);
      // Stale re-check: never resurrect a removed or relocated entry with
      // freshly minted units.
      const mem::EntryLocation* current =
          live_owner != nullptr ? live_owner->map().lookup(entry) : nullptr;
      if (current == nullptr || current->tier != mem::Tier::kRemote ||
          current->ec_k != base.ec_k) {
        self->rdmc_.free_replicas(*fresh);
        ++self->metrics_.counter("ldms.repair_stale");
        finish(Status::Ok());
        return;
      }
      // Merge by unit index against the *current* committed set (a
      // concurrent repair or migration may have added units): the
      // surviving-unit count never decreases, duplicates are freed.
      mem::EntryLocation updated = *current;
      std::size_t appended = 0;
      for (auto& replica : *fresh) {
        bool duplicate = false;
        for (const auto& held : updated.replicas)
          if (held.shard == replica.shard) duplicate = true;
        if (duplicate) {
          self->rdmc_.free_replicas(std::span(&replica, 1));
          continue;
        }
        updated.replicas.push_back(replica);
        ++appended;
      }
      updated.degraded = updated.replicas.size() < updated.total_units();
      live_owner->map().commit(entry, std::move(updated));
      if (base.ec_k > 1)
        self->metrics_.counter("ec.shards_repaired") += appended;
      ++self->metrics_.counter("ldms.repaired_entries");
      finish(Status::Ok());
    }

    // k > 1: checksum-gates the surviving units (a corrupted one must not
    // contaminate the rebuilt ones), reconstructs the lost ones in place and
    // charges the decode before placing them.
    void rebuild() {
      auto& units = stripe.units;
      std::size_t present = 0;
      for (std::size_t i = 0; i < units.size(); ++i) {
        if (units[i].empty()) continue;
        if (i < base.shard_checksums.size() &&
            fnv1a(units[i]) != base.shard_checksums[i]) {
          units[i].clear();
          ++self->metrics_.counter("ec.corrupt_shards");
          continue;
        }
        ++present;
      }
      if (present < base.ec_k) {
        ++self->metrics_.counter("ldms.repair_read_failed");
        finish(DataLossError("fewer than k shards readable for repair"));
        return;
      }
      std::optional<ec::RsCodec> scratch;
      auto codec = self->codec_for(base, scratch);
      Status rec = codec.ok() ? (*codec)->reconstruct(units) : codec.status();
      if (!rec.ok()) {
        finish(rec);
        return;
      }
      const SimTime cost = self->config_.ec_decode_cost.cost(base.stored_size);
      self->metrics_.histogram("ec.decode_ns")
          .record(static_cast<std::uint64_t>(cost));
      self->node_.simulator().schedule_after(
          cost, [st = shared_from_this()]() { st->place(); });
    }
  };
  auto st = std::make_shared<Repair>();
  st->self = this;
  st->server = server;
  st->entry = entry;
  st->base = std::move(base);
  st->done = std::move(done);
  st->trace = trace;
  for (const auto& replica : st->base.replicas)
    st->exclude.push_back(replica.node);
  for (std::uint32_t unit = 0; unit < total; ++unit) {
    bool held = false;
    for (const auto& replica : st->base.replicas)
      if (replica.shard == unit) held = true;
    if (!held) st->missing.push_back(unit);
  }

  if (k <= 1) {
    // Every unit is a copy: read the payload from any survivor.
    st->stripe.payload.resize(st->base.stored_size);
    rdmc_.read(
        st->base.replicas, 0, st->stripe.payload,
        [st](const Status& s) {
          if (!s.ok()) {
            ++st->self->metrics_.counter("ldms.repair_read_failed");
            st->finish(s);
            return;
          }
          st->place();
        },
        trace);
    return;
  }
  // Pull every surviving unit in full, in parallel; a failed read leaves
  // its slot empty and the rebuild proceeds from whatever >= k arrive.
  const std::size_t len = unit_size(st->base);
  st->stripe.units.assign(total, {});
  st->pending = st->base.replicas.size();
  for (const auto& replica : st->base.replicas) {
    st->stripe.units[replica.shard].resize(len);
    rdmc_.read(
        std::span(&replica, 1), 0, st->stripe.units[replica.shard],
        [st, unit = replica.shard](const Status& s) {
          if (!s.ok()) st->stripe.units[unit].clear();
          if (--st->pending == 0) st->rebuild();
        },
        trace);
  }
}

// ---- pressure accounting (§I imbalance signal) -------------------------------

// Lazy window rotation: both the reader and the writer first roll the
// window forward to the one containing `now`, so the reported value is the
// count of the last *complete* window regardless of call order. A node
// that goes quiet for more than a window reports zero (stale demand must
// not repel placements forever).
void NodeService::note_pressure() {
  (void)pressure();
  ++pressure_accum_;
}

std::uint64_t NodeService::pressure() const {
  const SimTime now = node_.simulator().now();
  if (now - pressure_window_start_ >= config_.pressure_window) {
    const bool adjacent =
        now - pressure_window_start_ < 2 * config_.pressure_window;
    pressure_last_ = adjacent ? pressure_accum_ : 0;
    pressure_accum_ = 0;
    pressure_window_start_ =
        now - (now - pressure_window_start_) % config_.pressure_window;
  }
  return pressure_last_;
}

// ---- leader candidate sets (§IV.E) -------------------------------------------

void NodeService::local_candidate_view(
    bool include_self, std::vector<cluster::CandidateNode>& out) const {
  out.clear();
  if (include_self)
    out.push_back({node_.id(), node_.donatable_free_bytes(), pressure()});
  for (net::NodeId peer : node_.membership().peers()) {
    if (!node_.membership().alive(peer)) continue;
    out.push_back({peer, node_.membership().last_known_free(peer),
                   node_.membership().last_known_pressure(peer)});
  }
}

StatusOr<std::vector<std::byte>> NodeService::handle_query_candidates(
    net::NodeId, net::WireReader&) {
  // Answered by whoever is asked — in practice the group leader, whose
  // heartbeat view aggregates the whole group.
  std::vector<cluster::CandidateNode> view;
  local_candidate_view(/*include_self=*/true, view);
  net::WireWriter w;
  w.put_u32(static_cast<std::uint32_t>(view.size()));
  for (const auto& candidate : view) {
    w.put_u32(candidate.node);
    w.put_u64(candidate.free_bytes);
    w.put_u64(candidate.pressure);
  }
  ++metrics_.counter("candidates.queries_served");
  return std::move(w).take();
}

void NodeService::start_candidate_refresh() {
  if (!config_.leader_candidates || candidate_refresh_running_) return;
  candidate_refresh_running_ = true;
  refresh_candidates();
}

void NodeService::refresh_candidates() {
  if (!candidate_refresh_running_) return;
  const net::NodeId leader =
      node_.election() != nullptr ? node_.election()->leader()
                                  : net::kInvalidNode;
  auto reschedule = [this]() {
    node_.simulator().schedule_after(config_.candidate_refresh_period,
                                     [this]() { refresh_candidates(); });
  };
  if (leader == net::kInvalidNode || leader == node_.id()) {
    // We are (or have no) leader: use the local aggregate directly.
    local_candidate_view(/*include_self=*/true, candidate_cache_);
    ++metrics_.counter("candidates.local_refreshes");
    reschedule();
    return;
  }
  node_.rpc().call(
      leader, kRpcQueryCandidates, {}, 50 * kMilli,
      [this, reschedule](StatusOr<std::vector<std::byte>> resp) {
        if (resp.ok()) {
          net::WireReader r(*resp);
          const std::uint32_t n = r.u32();
          std::vector<cluster::CandidateNode> fresh;
          for (std::uint32_t i = 0; i < n && r.ok(); ++i) {
            const auto node = static_cast<net::NodeId>(r.u32());
            const std::uint64_t free_bytes = r.u64();
            const std::uint64_t pressure = r.u64();
            fresh.push_back({node, free_bytes, pressure});
          }
          if (r.ok()) {
            candidate_cache_ = std::move(fresh);
            ++metrics_.counter("candidates.leader_refreshes");
          }
        } else {
          // Leader unreachable: fall back to the local view until the next
          // round (the election will move the leader shortly anyway).
          candidate_cache_.clear();
          ++metrics_.counter("candidates.refresh_failed");
        }
        reschedule();
      });
}

// ---- eviction monitor (§IV.F policies 1 & 2) --------------------------------

void NodeService::start_eviction_monitor() {
  if (monitor_running_ || !config_.eviction.enabled) return;
  monitor_running_ = true;
  node_.simulator().schedule_after(config_.eviction.period, [this]() {
    monitor_running_ = false;
    eviction_tick();
    start_eviction_monitor();
  });
}

void NodeService::eviction_tick() {
  const auto& cfg = config_.eviction;
  auto& pool = node_.recv_pool();

  // Policy 1: local servers are overflowing to remote memory while this
  // node still donates DRAM to peers -> reclaim a receive-pool slab.
  const double free_fraction =
      pool.capacity_bytes() == 0
          ? 1.0
          : static_cast<double>(node_.donatable_free_bytes()) /
                static_cast<double>(pool.capacity_bytes());
  if (remote_puts_window_ >= cfg.remote_rate_threshold &&
      free_fraction < cfg.low_free_watermark && rdms_.active_drains() == 0) {
    if (auto slab = pool.least_loaded_slab()) {
      ++metrics_.counter("eviction.slab_drains");
      const SimTime drain_started = node_.simulator().now();
      rdms_.drain_slab(*slab, [this, drain_started](const Status& s) {
        metrics_.histogram("eviction.drain_ns")
            .record(static_cast<std::uint64_t>(node_.simulator().now() -
                                               drain_started));
        if (!s.ok()) ++metrics_.counter("eviction.drain_failed");
      });
    }
  }

  // Policy 2: a server hammering disaggregated memory should get more
  // resident DRAM (ballooning) by shrinking its donation.
  for (const auto& [server, requests] : dm_requests_window_) {
    if (requests < cfg.remote_rate_threshold) continue;
    ++metrics_.counter("eviction.balloon_advice");
    if (cfg.auto_balloon) {
      if (auto* vs = node_.find_server(server)) {
        const double next =
            std::max(0.0, vs->donation_fraction() - cfg.balloon_step);
        if (node_.set_server_donation(server, next).ok())
          ++metrics_.counter("eviction.balloon_applied");
      }
    }
  }

  dm_requests_window_.clear();
  remote_puts_window_ = 0;
}

// ---- disk extents -----------------------------------------------------------

std::uint32_t NodeService::disk_class(std::uint32_t size) noexcept {
  std::uint32_t cls = 512;
  while (cls < size) cls <<= 1;
  return cls;
}

StatusOr<std::uint64_t> NodeService::alloc_extent(mem::Tier tier,
                                                  std::uint32_t size) {
  if (tier == mem::Tier::kNvm && node_.nvm() == nullptr)
    return FailedPreconditionError("no NVM tier on this node");
  DiskExtents& extents =
      tier == mem::Tier::kNvm ? nvm_extents_ : disk_extents_;
  const std::uint64_t capacity = tier == mem::Tier::kNvm
                                     ? node_.nvm()->capacity()
                                     : node_.disk().capacity();
  const std::uint32_t cls = disk_class(size);
  auto& free_list = extents.free_by_class[cls];
  if (!free_list.empty()) {
    const std::uint64_t offset = free_list.back();
    free_list.pop_back();
    return offset;
  }
  if (extents.cursor + cls > capacity)
    return ResourceExhaustedError("device full");
  const std::uint64_t offset = extents.cursor;
  extents.cursor += cls;
  return offset;
}

void NodeService::free_extent(mem::Tier tier, std::uint64_t offset,
                              std::uint32_t size) {
  DiskExtents& extents =
      tier == mem::Tier::kNvm ? nvm_extents_ : disk_extents_;
  extents.free_by_class[disk_class(size)].push_back(offset);
}

}  // namespace dm::core
