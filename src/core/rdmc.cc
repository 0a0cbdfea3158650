#include "core/rdmc.h"

#include <algorithm>
#include <array>

#include "common/metrics.h"
#include "common/status.h"
#include "common/units.h"
#include "ec/rs_codec.h"
#include "mem/memory_map.h"
#include "net/wire.h"
#include "sim/trace.h"

namespace dm::core {

using cluster::kRpcAllocBlock;
using cluster::kRpcFreeBlock;

Rdmc::Rdmc(cluster::Node& node, Config config)
    : node_(node), config_(config),
      policy_(cluster::make_placement_policy(config.placement)),
      puts_counter_(LazyCounter(node.recv_pool().metrics(), "rdmc.puts")),
      put_ns_(LazyHistogram(node.recv_pool().metrics(), "rdmc.put_ns")),
      read_ns_(LazyHistogram(node.recv_pool().metrics(), "rdmc.read_ns")) {}

void Rdmc::PutOp::clear() {
  stripe = nullptr;
  reserved.clear();
  written.clear();
  lost.clear();
  pending = 0;
  min_needed = 0;
  failed = false;
  first_error = Status::Ok();
  done.reset();
}

void Rdmc::ReadOp::clear() {
  replicas.clear();
  index = 0;
  out = {};
  done.reset();
}

void Rdmc::FreeOp::clear() {
  pending = 0;
  unfreed = 0;
  unfreed_to = nullptr;
  done.reset();
}

void Rdmc::put(cluster::ServerId server, mem::EntryId entry,
               const Stripe& stripe, std::span<const std::uint32_t> units,
               std::size_t min_needed, PutCallback done,
               std::span<const net::NodeId> exclude, net::TraceId trace) {
  if (!candidates_) {
    done(FailedPreconditionError("no candidates provider bound"));
    return;
  }
  if (units.empty()) {
    done(InvalidArgumentError("put: empty unit set"));
    return;
  }
  if (min_needed == 0 || min_needed > units.size()) min_needed = units.size();
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  // End-to-end transaction latency (placement + alloc RPCs + write fan-out),
  // success and rollback alike, lands in rdmc.put_ns.
  const SimTime started = node_.simulator().now();
  auto& candidates = candidate_scratch_;
  candidates_(candidates);
  // Remove self and excluded nodes.
  std::erase_if(candidates, [&](const cluster::CandidateNode& c) {
    if (c.node == node_.id()) return true;
    return std::find(exclude.begin(), exclude.end(), c.node) != exclude.end();
  });
  const std::size_t unit_bytes = stripe.unit(units.front()).size();
  auto& targets = target_scratch_;
  MetricsRegistry* metrics = &node_.recv_pool().metrics();
  Status placed = policy_->pick_recorded(candidates, units.size(), unit_bytes,
                                         node_.rng(), metrics, targets);
  // Not enough candidates for every unit: in degraded mode, retry the
  // placement with progressively fewer units (shedding from the back) down
  // to the floor.
  std::size_t want = units.size();
  while (!placed.ok() && want > min_needed) {
    --want;
    placed = policy_->pick_recorded(candidates, want, unit_bytes, node_.rng(),
                                    metrics, targets);
  }
  if (!placed.ok()) {
    ++metrics->counter("rdmc.put_no_candidates");
    put_ns_->record(
        static_cast<std::uint64_t>(node_.simulator().now() - started));
    done(std::move(placed));
    return;
  }
  if (targets.size() < units.size())
    ++metrics->counter("rdmc.put_short_placement");

  PutOp* op = puts_.acquire();
  op->stripe = &stripe;
  op->pending = targets.size();
  op->min_needed = min_needed;
  op->started = started;
  op->trace = trace;
  op->done = std::move(done);

  // Phase 1: reserve a block on each target, target i for unit units[i].
  // A failed channel settles the op synchronously once pending reaches
  // zero, which only the last target can bring about; its completion may
  // start another put that refills the scratch, so the bound is read first.
  const std::size_t count = targets.size();
  for (std::size_t i = 0; i < count; ++i) {
    const net::NodeId target = targets[i];
    const std::uint32_t unit = units[i];
    Status channel = node_.connections().ensure_control_channel(node_.id(),
                                                                target);
    if (!channel.ok()) {
      note_alloc_failure(op, channel);
      if (--op->pending == 0) post_writes(op);
      continue;
    }
    net::WireWriter w;
    w.put_u32(node_.id());
    w.put_u32(server);
    w.put_u64(entry);
    w.put_u32(static_cast<std::uint32_t>(stripe.unit(unit).size()));
    auto granted = [this, op, target,
                    unit](StatusOr<std::vector<std::byte>> resp) {
      on_alloc_reply(op, target, unit, std::move(resp));
    };
    static_assert(net::RpcResponseCallback::stores_inline<decltype(granted)>());
    node_.rpc().call(target, kRpcAllocBlock, std::move(w).take(),
                     config_.rpc_timeout, std::move(granted), trace);
  }
  ++*puts_counter_;
}

void Rdmc::note_alloc_failure(PutOp* op, const Status& error) {
  if (!op->failed) {
    op->failed = true;
    op->first_error = error;
  }
}

void Rdmc::on_alloc_reply(PutOp* op, net::NodeId target, std::uint32_t unit,
                          StatusOr<std::vector<std::byte>> resp) {
  if (resp.ok()) {
    net::WireReader r(*resp);
    mem::RemoteReplica replica;
    replica.node = target;
    replica.slab = r.u32();
    replica.rkey = r.u64();
    replica.offset = r.u64();
    replica.block_size = r.u32();
    replica.shard = unit;
    if (r.ok()) {
      op->reserved.push_back(replica);
    } else {
      note_alloc_failure(op, r.status());
    }
  } else {
    note_alloc_failure(op, resp.status());
  }
  if (--op->pending == 0) post_writes(op);
}

void Rdmc::post_writes(PutOp* op) {
  if (op->failed && op->reserved.size() < op->min_needed) {
    // Roll back whatever was reserved; the caller's map is untouched.
    free_replicas(op->reserved, {}, op->trace);
    finish_put(op, op->first_error);
    return;
  }
  if (op->failed)
    ++node_.recv_pool().metrics().counter("rdmc.put_degraded_alloc");
  // Phase 2: one-sided writes, each reserved block getting its unit's
  // bytes. Per-unit success tracking: a failed write drops that unit (its
  // block is freed); the put still succeeds if enough writes landed.
  op->failed = false;
  op->first_error = Status::Ok();
  op->pending = op->reserved.size();
  // Completions never fire before post_write returns, so `reserved` is
  // stable for the whole loop; the last posting failure may settle the op.
  const std::size_t count = op->reserved.size();
  for (std::size_t i = 0; i < count; ++i) {
    const mem::RemoteReplica& replica = op->reserved[i];
    auto qp = node_.connections().ensure_data_channel(node_.id(),
                                                      replica.node);
    auto landed = [this, op, i](const net::Completion& c) {
      on_write_done(op, i, c.status);
    };
    static_assert(net::CompletionCallback::stores_inline<decltype(landed)>());
    Status posted =
        !qp.ok() ? qp.status()
                 : (*qp)->post_write(replica.rkey, replica.offset,
                                     op->stripe->unit(replica.shard),
                                     std::move(landed), op->trace);
    if (!posted.ok()) on_write_done(op, i, posted);
  }
}

void Rdmc::on_write_done(PutOp* op, std::size_t index, const Status& status) {
  if (status.ok()) {
    op->written.push_back(op->reserved[index]);
  } else {
    op->lost.push_back(op->reserved[index]);
    if (op->first_error.ok()) op->first_error = status;
  }
  if (--op->pending == 0) settle_writes(op);
}

void Rdmc::settle_writes(PutOp* op) {
  if (op->written.size() >= op->min_needed) {
    if (!op->lost.empty()) {
      ++node_.recv_pool().metrics().counter("rdmc.put_degraded_write");
      free_replicas(op->lost, {}, op->trace);
    }
    finish_put(op, op->written);
    return;
  }
  free_replicas(op->reserved, {}, op->trace);
  finish_put(op, op->first_error.ok() ? UnavailableError("unit writes failed")
                                      : op->first_error);
}

void Rdmc::finish_put(PutOp* op,
                      StatusOr<std::vector<mem::RemoteReplica>> result) {
  put_ns_->record(
      static_cast<std::uint64_t>(node_.simulator().now() - op->started));
  PutCallback done = std::move(op->done);
  puts_.release(op);
  done(std::move(result));
}

std::span<const std::uint32_t> Rdmc::all_units(std::size_t n) noexcept {
  static const auto kIndices = [] {
    std::array<std::uint32_t, ec::RsCodec::kMaxShards + 1> indices{};
    for (std::size_t i = 0; i < indices.size(); ++i)
      indices[i] = static_cast<std::uint32_t>(i);
    return indices;
  }();
  return std::span<const std::uint32_t>(kIndices).first(
      std::min(n, kIndices.size()));
}

Rdmc::ReadOp* Rdmc::start_read(std::span<const mem::RemoteReplica> replicas,
                               std::uint64_t range_offset,
                               std::span<std::byte> out, ReadCallback done,
                               net::TraceId trace) {
  ReadOp* op = reads_.acquire();
  op->replicas.assign(replicas.begin(), replicas.end());
  op->range_offset = range_offset;
  op->out = out;
  // Whole-read latency including any failover hops.
  op->started = node_.simulator().now();
  op->trace = trace;
  op->done = std::move(done);
  return op;
}

void Rdmc::finish_read(ReadOp* op, const Status& status) {
  read_ns_->record(
      static_cast<std::uint64_t>(node_.simulator().now() - op->started));
  ReadCallback done = std::move(op->done);
  reads_.release(op);
  done(status);
}

void Rdmc::read(std::span<const mem::RemoteReplica> replicas,
                std::uint64_t range_offset, std::span<std::byte> out,
                ReadCallback done, net::TraceId trace) {
  if (replicas.empty()) {
    done(DataLossError("entry has no remote replicas"));
    return;
  }
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  read_from(start_read(replicas, range_offset, out, std::move(done), trace));
}

void Rdmc::read_from(ReadOp* op) {
  if (op->index >= op->replicas.size()) {
    ++node_.recv_pool().metrics().counter("rdmc.read_all_replicas_failed");
    finish_read(op, DataLossError("all replicas unreachable"));
    return;
  }
  const auto& replica = op->replicas[op->index];
  auto qp = node_.connections().ensure_data_channel(node_.id(), replica.node);
  if (!qp.ok()) {
    // No channel to this replica's host (crashed or unreachable): record
    // the skipped hop so the causal chain shows the failover, then try
    // the next replica.
    if (sim::Tracer* tracer = node_.fabric().tracer())
      tracer->record(node_.simulator().now(), "rdmc.read_failover",
                     "node" + std::to_string(node_.id()) +
                         " skipping dead replica on node" +
                         std::to_string(replica.node) + " " +
                         net::format_trace_id(op->trace));
    ++op->index;
    read_from(op);
    return;
  }
  auto landed = [this, op](const net::Completion& c) {
    if (c.status.ok()) {
      finish_read(op, Status::Ok());
      return;
    }
    ++node_.recv_pool().metrics().counter("rdmc.read_failovers");
    ++op->index;
    read_from(op);
  };
  static_assert(net::CompletionCallback::stores_inline<decltype(landed)>());
  Status posted =
      (*qp)->post_read(replica.rkey, replica.offset + op->range_offset,
                       op->out, std::move(landed), op->trace);
  if (!posted.ok()) {
    ++op->index;
    read_from(op);
  }
}

void Rdmc::read_twosided(std::span<const mem::RemoteReplica> replicas,
                         std::uint64_t range_offset, std::span<std::byte> out,
                         ReadCallback done, net::TraceId trace) {
  if (replicas.empty()) {
    done(DataLossError("entry has no remote replicas"));
    return;
  }
  if (trace == net::kNoTrace) trace = node_.next_trace_id();
  ++node_.recv_pool().metrics().counter("rdmc.reads_twosided");
  read_twosided_from(
      start_read(replicas, range_offset, out, std::move(done), trace));
}

void Rdmc::read_twosided_from(ReadOp* op) {
  if (op->index >= op->replicas.size()) {
    ++node_.recv_pool().metrics().counter("rdmc.read_all_replicas_failed");
    finish_read(op, DataLossError("all replicas unreachable"));
    return;
  }
  // The RDMS read handler serves a prefix of the hosted block, so ask for
  // range_offset + size bytes and keep the tail.
  const auto& replica = op->replicas[op->index];
  net::WireWriter w;
  w.put_u64(replica.rkey);
  w.put_u64(replica.offset);
  w.put_u32(static_cast<std::uint32_t>(op->range_offset + op->out.size()));
  node_.rpc().call(
      replica.node, cluster::kRpcReadBlock, std::move(w).take(),
      config_.rpc_timeout,
      [this, op](StatusOr<std::vector<std::byte>> resp) {
        if (resp.ok()) {
          net::WireReader r(*resp);
          const auto bytes = r.bytes();
          if (r.ok() && bytes.size() >= op->range_offset + op->out.size()) {
            std::copy_n(bytes.begin() + static_cast<std::ptrdiff_t>(
                                            op->range_offset),
                        op->out.size(), op->out.begin());
            finish_read(op, Status::Ok());
            return;
          }
        }
        ++node_.recv_pool().metrics().counter("rdmc.read_failovers");
        ++op->index;
        read_twosided_from(op);
      },
      op->trace);
}

void Rdmc::free_replicas(std::span<const mem::RemoteReplica> replicas,
                         FreedCallback done, net::TraceId trace,
                         MetricsRegistry* unfreed_to) {
  if (replicas.empty()) {
    if (done) done(Status::Ok());
    return;
  }
  FreeOp* op = frees_.acquire();
  op->pending = replicas.size();
  op->unfreed_to = unfreed_to;
  op->done = std::move(done);
  for (const auto& replica : replicas) {
    net::WireWriter w;
    w.put_u64(replica.rkey);
    w.put_u64(replica.offset);
    node_.rpc().call(
        replica.node, kRpcFreeBlock, std::move(w).take(), config_.rpc_timeout,
        [this, op](StatusOr<std::vector<std::byte>> resp) {
          if (!resp.ok()) ++op->unfreed;
          if (--op->pending != 0) return;
          if (op->unfreed > 0 && op->unfreed_to != nullptr)
            op->unfreed_to->counter("ldms.remove_unfreed_blocks") +=
                op->unfreed;
          FreedCallback freed = std::move(op->done);
          frees_.release(op);
          if (freed) freed(Status::Ok());
        },
        trace);
  }
}

}  // namespace dm::core
