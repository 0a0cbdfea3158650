// Tests for the lazily zeroed byte arena and the stores built on it: the
// block device, the shared memory pool and the registered receive pool.
// Never-written bytes read back as zero, spans into an arena stay valid,
// and a large arena costs resident memory only for the pages written.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <vector>

#include <unistd.h>

#include "common/byte_arena.h"
#include "common/status.h"
#include "common/units.h"
#include "mem/buffer_pool.h"
#include "mem/shared_memory_pool.h"
#include "net/fabric.h"
#include "sim/simulator.h"
#include "storage/block_device.h"

namespace dm {
namespace {

// Resident set size of this process, from /proc/self/statm (pages).
std::uint64_t resident_bytes() {
  std::ifstream statm("/proc/self/statm");
  std::uint64_t size_pages = 0;
  std::uint64_t resident_pages = 0;
  statm >> size_pages >> resident_pages;
  return resident_pages * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

// Never zero, so written bytes are told apart from untouched ones.
std::vector<std::byte> pattern(std::size_t n, unsigned seed = 1) {
  std::vector<std::byte> v(n);
  for (std::size_t i = 0; i < n; ++i)
    v[i] = static_cast<std::byte>(((i * 131 + seed) & 0xff) | 1);
  return v;
}

bool all_zero(std::span<const std::byte> bytes) {
  return std::all_of(bytes.begin(), bytes.end(),
                     [](std::byte b) { return b == std::byte{0}; });
}

TEST(ByteArenaTest, ReadsZeroUntilWritten) {
  ByteArena arena(3 * MiB + 17);
  EXPECT_EQ(arena.size(), 3 * MiB + 17);
  EXPECT_TRUE(all_zero(arena));
  arena.data()[MiB] = std::byte{7};
  EXPECT_EQ(std::span(arena)[MiB], std::byte{7});
  EXPECT_TRUE(all_zero(std::span(arena).first(MiB)));
  EXPECT_TRUE(all_zero(std::span(arena).subspan(MiB + 1)));
}

// Laziness must survive a torn-down predecessor. Freeing the first arena
// raises glibc's dynamic mmap threshold to its size, and the heap block
// freed after it stands for a torn-down system's objects: an arena that
// came from calloc would now be carved from that untouched heap memory and
// zeroed eagerly, growing RSS by its full 24 MiB.
TEST(ByteArenaTest, SecondArenaStaysLazyAfterTheFirstIsFreed) {
  constexpr std::size_t kArena = 24 * MiB;
  {
    ByteArena first(kArena);
    first.data()[0] = std::byte{1};
  }
  ::operator delete(::operator new(kArena));
  const std::uint64_t before = resident_bytes();
  ByteArena second(kArena);
  const std::uint64_t grown = resident_bytes() - before;
  EXPECT_LE(grown, 8 * MiB);
  EXPECT_EQ(second.data()[kArena - 1], std::byte{0});
}

TEST(ByteArenaTest, EmptyArenaIsAnEmptyRange) {
  ByteArena arena(0);
  EXPECT_EQ(arena.size(), 0u);
  EXPECT_EQ(std::span(arena).size(), 0u);
}

TEST(ByteArenaTest, GigabyteBlockDeviceCostsOnlyTouchedPages) {
  sim::Simulator sim;
  const std::uint64_t before = resident_bytes();
  storage::BlockDevice disk(sim, {.capacity_bytes = GiB});
  EXPECT_EQ(disk.capacity(), GiB);
  // Touch a few scattered pages; only those become resident.
  const auto data = pattern(4096);
  for (std::uint64_t offset : {std::uint64_t{0}, 300 * MiB, GiB - 4096})
    ASSERT_TRUE(disk.write_sync(offset, data).ok());
  EXPECT_LT(resident_bytes() - before, 64 * MiB);
}

TEST(ByteArenaTest, BlockDeviceUnwrittenRangesReadZero) {
  sim::Simulator sim;
  storage::BlockDevice disk(sim, {.capacity_bytes = 256 * MiB});
  const auto data = pattern(4096);
  ASSERT_TRUE(disk.write_sync(128 * MiB, data).ok());

  std::vector<std::byte> out(8192);
  ASSERT_TRUE(disk.read_sync(0, out).ok());
  EXPECT_TRUE(all_zero(out));
  ASSERT_TRUE(disk.read_sync(256 * MiB - out.size(), out).ok());
  EXPECT_TRUE(all_zero(out));
  // A read straddling the written page: data, then zeros.
  ASSERT_TRUE(disk.read_sync(128 * MiB, out).ok());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), out.begin()));
  EXPECT_TRUE(all_zero(std::span(out).subspan(4096)));
}

// Every readable byte of a shared-pool entry was written by its put, so
// the pool's untouched arena is observable only as resident memory: a
// large pool costs the pages its entries occupy, and entries anywhere in
// it round-trip exactly.
TEST(ByteArenaTest, SharedMemoryPoolCostsOnlyStoredEntries) {
  const std::uint64_t before = resident_bytes();
  mem::SharedMemoryPool pool({.arena_bytes = GiB, .slab = {}});
  ASSERT_TRUE(pool.set_donation(1, GiB).ok());
  for (mem::EntryId id = 0; id < 64; ++id)
    ASSERT_TRUE(pool.put(1, id, pattern(4096, static_cast<unsigned>(id))).ok());
  std::vector<std::byte> out(4096);
  for (mem::EntryId id = 0; id < 64; ++id) {
    ASSERT_TRUE(pool.get(1, id, out).ok());
    EXPECT_EQ(out, pattern(4096, static_cast<unsigned>(id)));
  }
  EXPECT_LT(resident_bytes() - before, 64 * MiB);
}

class ArenaBufferPoolTest : public ::testing::Test {
 protected:
  ArenaBufferPoolTest() : fabric_(sim_) {
    fabric_.add_node(0);
    fabric_.add_node(1);
  }

  // One-sided verb from node 1 into node 0's pool, run to completion.
  Status remote_write(const mem::BlockRef& block,
                      std::span<const std::byte> data) {
    auto qp = fabric_.connect(1, 0);
    if (!qp.ok()) return qp.status();
    bool done = false;
    Status result;
    DM_RETURN_IF_ERROR((*qp)->post_write(block.rkey, block.offset, data,
                                         [&](const net::Completion& c) {
                                           result = c.status;
                                           done = true;
                                         }));
    if (!sim_.run_until_flag(done)) return InternalError("write never acked");
    return result;
  }
  Status remote_read(const mem::BlockRef& block, std::span<std::byte> out) {
    auto qp = fabric_.connect(1, 0);
    if (!qp.ok()) return qp.status();
    bool done = false;
    Status result;
    DM_RETURN_IF_ERROR((*qp)->post_read(block.rkey, block.offset, out,
                                        [&](const net::Completion& c) {
                                          result = c.status;
                                          done = true;
                                        }));
    if (!sim_.run_until_flag(done)) return InternalError("read never done");
    return result;
  }

  sim::Simulator sim_;
  net::Fabric fabric_;
};

TEST_F(ArenaBufferPoolTest, NeverWrittenBlocksReadZeroLocallyAndRemotely) {
  mem::RegisteredBufferPool pool(fabric_, 0, {.arena_bytes = 64 * MiB});
  auto block = pool.allocate(4096);
  ASSERT_TRUE(block.ok());
  EXPECT_TRUE(all_zero(pool.block_bytes(*block)));
  std::vector<std::byte> out(4096, std::byte{0xff});
  ASSERT_TRUE(remote_read(*block, out).ok());
  EXPECT_TRUE(all_zero(out));
}

TEST_F(ArenaBufferPoolTest, RegisteredSlabSpanStaysValidAsSlabsGrow) {
  mem::RegisteredBufferPool pool(
      fabric_, 0, {.arena_bytes = 4 * MiB, .slab_bytes = 256 * KiB});
  auto first = pool.allocate(65536);
  ASSERT_TRUE(first.ok());
  const std::span<std::byte> view = pool.block_bytes(*first);

  // Register every other slab of the arena.
  std::vector<mem::BlockRef> rest;
  for (;;) {
    auto block = pool.allocate(65536);
    if (!block.ok()) break;
    rest.push_back(*block);
  }
  EXPECT_EQ(pool.active_slabs(), 16u);

  // A remote write into the first block lands in the span taken before the
  // other slabs were registered.
  const auto data = pattern(65536);
  ASSERT_TRUE(remote_write(*first, data).ok());
  EXPECT_EQ(view.data(), pool.block_bytes(*first).data());
  EXPECT_TRUE(std::equal(data.begin(), data.end(), view.begin()));
  for (const mem::BlockRef& block : rest)
    EXPECT_TRUE(all_zero(pool.block_bytes(block)));
}

}  // namespace
}  // namespace dm
