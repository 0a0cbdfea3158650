// Allocation budget for the core op path: a warmed 4-node, 2-replica
// remote-memory loop of Ldmc put/get/remove must stay within a fixed
// number of heap allocations per op, so a change that puts closures,
// per-op state or lookup copies back on the heap fails here instead of
// surfacing later as a benchmark regression.
//
// The binary links its own counting operator new (this file only); every
// allocation in the process counts, the simulator's background traffic
// (heartbeats) included, which the deterministic run makes exact.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "common/status.h"
#include "common/units.h"
#include "core/dm_system.h"
#include "core/ldmc.h"
#include "core/node_service.h"
#include "workloads/page_content.h"

namespace {

std::uint64_t g_allocations = 0;

void* counted(std::size_t size) {
  ++g_allocations;
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted(size); }
void* operator new[](std::size_t size) { return counted(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace dm::core {
namespace {

// Measured 5.0 allocations per op for this loop (17.3 while completions
// were std::function and every op carried shared_ptr state), plus 10%.
constexpr double kAllocsPerOpBudget = 5.5;

TEST(AllocBudgetTest, WarmRemotePutGetRemoveLoopStaysWithinBudget) {
  DmSystem::Config config;
  config.node_count = 4;
  config.node.shm.arena_bytes = 4 * MiB;
  config.node.recv.arena_bytes = 16 * MiB;
  config.node.disk.capacity_bytes = 16 * MiB;
  config.service.rdmc.replication = 2;
  DmSystem system(config);
  system.start();
  LdmcOptions options;
  options.shm_fraction = 0.0;  // every put is a 2-replica remote stripe
  auto& client = system.create_server(0, 64 * MiB, options);

  constexpr std::uint64_t kKeys = 64;
  std::vector<std::vector<std::byte>> pages(kKeys);
  for (std::uint64_t key = 0; key < kKeys; ++key) {
    pages[key].resize(4096);
    workloads::fill_page(pages[key], key, 0.5, 7);
  }
  std::vector<std::byte> out(4096);
  // One round: remove, put and get every key.
  auto round = [&]() {
    for (std::uint64_t key = 0; key < kKeys; ++key) {
      if (client.contains(key)) {
        ASSERT_TRUE(client.remove_sync(key).ok());
      }
      ASSERT_TRUE(client.put_sync(key, pages[key]).ok());
      ASSERT_TRUE(client.get_sync(key, out).ok());
      ASSERT_EQ(out, pages[key]);
    }
  };
  // Warm-up: op records, scratch buffers, RPC slots and map buckets reach
  // their steady-state sizes.
  for (int i = 0; i < 3; ++i) round();

  constexpr int kRounds = 8;
  const std::uint64_t before = g_allocations;
  for (int i = 0; i < kRounds; ++i) round();
  const std::uint64_t allocations = g_allocations - before;
  const double ops = 3.0 * kKeys * kRounds;
  const double per_op = static_cast<double>(allocations) / ops;
  RecordProperty("allocs_per_op", std::to_string(per_op));
  std::printf("allocations per op: %.3f\n", per_op);
  EXPECT_LE(per_op, kAllocsPerOpBudget);
}

}  // namespace
}  // namespace dm::core
