#include "core/ldmc.h"

#include "common/checksum.h"
#include "common/status.h"
#include "core/node_service.h"
#include "mem/memory_map.h"

namespace dm::core {

Ldmc::Ldmc(NodeService& service, cluster::ServerId server, Config config)
    : service_(service), server_(server), config_(config),
      map_(config.map_shards) {}

void Ldmc::put(mem::EntryId entry, std::span<const std::byte> data,
               DoneCallback done, net::TraceId trace) {
  if (trace == net::kNoTrace) trace = service_.node().next_trace_id();
  if (map_.contains(entry)) {
    // Overwrite = remove + put; the paper's entries (swap pages, cached
    // partitions) are immutable once written, so this path is rare.
    PutOp* op = puts_.acquire();
    op->entry = entry;
    op->trace = trace;
    op->payload.assign(data.begin(), data.end());
    op->done = std::move(done);
    remove(
        entry,
        [this, op](const Status& removed) {
          DoneCallback then = std::move(op->done);
          if (removed.ok()) {
            // put() copies the bytes before it returns.
            put(op->entry, op->payload, std::move(then), op->trace);
            puts_.release(op);
            return;
          }
          puts_.release(op);
          then(removed);
        },
        trace);
    return;
  }
  // Deterministic ratio routing: spread the shm-first decision evenly over
  // the put sequence (90/10 really means 9 of every 10 puts).
  const bool prefer_shm =
      config_.shm_fraction > 0.0 &&
      static_cast<double>(put_counter_ % 100) <
          config_.shm_fraction * 100.0;
  ++put_counter_;
  PutOp* op = puts_.acquire();
  op->entry = entry;
  op->checksum = fnv1a(data);
  op->logical = static_cast<std::uint32_t>(data.size());
  op->done = std::move(done);
  service_.put_entry(
      server_, entry, data, prefer_shm, config_.allow_remote,
      config_.allow_disk,
      [this, op](StatusOr<mem::EntryLocation> location) {
        finish_put(op, std::move(location));
      },
      trace);
}

void Ldmc::finish_put(PutOp* op, StatusOr<mem::EntryLocation> location) {
  const mem::EntryId entry = op->entry;
  const std::uint64_t checksum = op->checksum;
  const std::uint32_t logical = op->logical;
  DoneCallback done = std::move(op->done);
  puts_.release(op);
  if (!location.ok()) {
    done(location.status());
    return;
  }
  location->checksum = checksum;
  location->logical_size = logical;
  switch (location->tier) {
    case mem::Tier::kSharedMemory: ++puts_shm_; break;
    case mem::Tier::kRemote: ++puts_remote_; break;
    case mem::Tier::kNvm: ++puts_nvm_; break;
    case mem::Tier::kDisk: ++puts_disk_; break;
  }
  map_.commit(entry, *std::move(location));
  done(Status::Ok());
}

void Ldmc::get(mem::EntryId entry, std::span<std::byte> out,
               DoneCallback done, net::TraceId trace) {
  const mem::EntryLocation* location = map_.lookup(entry);
  if (location == nullptr) {
    done(NotFoundError("entry not mapped"));
    return;
  }
  const bool full_read = out.size() >= location->stored_size;
  auto window = full_read ? out.first(location->stored_size) : out;
  const bool verify = config_.verify_checksums && full_read &&
                      location->stored_size == location->logical_size;
  service_.get_entry(
      server_, entry, *location, 0, window, std::move(done), trace,
      verify ? std::optional<std::uint64_t>(location->checksum)
             : std::nullopt);
}

void Ldmc::get_range(mem::EntryId entry, std::uint64_t offset,
                     std::span<std::byte> out, DoneCallback done,
                     net::TraceId trace) {
  const mem::EntryLocation* location = map_.lookup(entry);
  if (location == nullptr) {
    done(NotFoundError("entry not mapped"));
    return;
  }
  if (offset + out.size() > location->stored_size) {
    done(InvalidArgumentError("range past end of stored entry"));
    return;
  }
  service_.get_entry(server_, entry, *location, offset, out, std::move(done),
                     trace);
}

void Ldmc::remove(mem::EntryId entry, DoneCallback done,
                  net::TraceId trace) {
  // Erase first: the map is the commit point. A repair or migration that
  // commits after this point sees the entry gone in its stale re-check and
  // frees its own provisional blocks; freeing the just-erased committed
  // replica set here therefore cannot race with a late commit (which would
  // leak the late replica if the erase happened after the frees).
  std::optional<mem::EntryLocation> location = map_.take(entry);
  if (!location) {
    done(NotFoundError("entry not mapped"));
    return;
  }
  service_.remove_entry(server_, entry, *location, std::move(done), trace);
}

StatusOr<std::size_t> Ldmc::stored_size(mem::EntryId entry) const {
  const mem::EntryLocation* location = map_.lookup(entry);
  if (location == nullptr) return NotFoundError("entry not mapped");
  return static_cast<std::size_t>(location->stored_size);
}

Status Ldmc::wait(const bool& flag, const Status& result) {
  if (!service_.node().simulator().run_until_flag(flag))
    return InternalError("simulation ran dry while waiting for completion");
  return result;
}

Status Ldmc::drain_until(const std::function<bool()>& done) {
  auto& sim = service_.node().simulator();
  while (!done()) {
    if (!sim.step())
      return InternalError("simulation ran dry while draining completions");
  }
  return Status::Ok();
}

Status Ldmc::put_sync(mem::EntryId entry, std::span<const std::byte> data,
                      net::TraceId trace) {
  bool completed = false;
  Status result;
  put(entry, data,
      [&](const Status& s) {
        result = s;
        completed = true;
      },
      trace);
  return wait(completed, result);
}

Status Ldmc::get_sync(mem::EntryId entry, std::span<std::byte> out,
                      net::TraceId trace) {
  bool completed = false;
  Status result;
  get(entry, out,
      [&](const Status& s) {
        result = s;
        completed = true;
      },
      trace);
  return wait(completed, result);
}

Status Ldmc::get_range_sync(mem::EntryId entry, std::uint64_t offset,
                            std::span<std::byte> out, net::TraceId trace) {
  bool completed = false;
  Status result;
  get_range(entry, offset, out,
            [&](const Status& s) {
              result = s;
              completed = true;
            },
            trace);
  return wait(completed, result);
}

Status Ldmc::remove_sync(mem::EntryId entry, net::TraceId trace) {
  bool completed = false;
  Status result;
  remove(entry,
         [&](const Status& s) {
           result = s;
           completed = true;
         },
         trace);
  return wait(completed, result);
}

}  // namespace dm::core
