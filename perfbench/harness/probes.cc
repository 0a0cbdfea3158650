#include "probes.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <new>

namespace perfbench {
namespace {

// The simulator is single-threaded, so plain counters suffice.
AllocCount g_allocs;
int g_uncounted = 0;  // live UncountedScopes
int g_harness_depth = 0;  // live HarnessScopes
std::uint64_t g_harness_begin_ns = 0;  // CPU clock at the outermost scope
std::uint64_t g_harness_ns = 0;        // CPU time inside closed scopes

void count(std::size_t size) noexcept {
  if (g_uncounted > 0) return;
  ++g_allocs.allocs;
  g_allocs.bytes += size;
}

void* counted_alloc(std::size_t size) {
  count(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* counted_aligned_alloc(std::size_t size, std::align_val_t align) {
  count(size);
  void* p = nullptr;
  const auto alignment =
      std::max(static_cast<std::size_t>(align), sizeof(void*));
  if (posix_memalign(&p, alignment, size == 0 ? 1 : size) != 0)
    throw std::bad_alloc();
  return p;
}

// The benchmark's only host-clock read; every probe below goes through it.
std::uint64_t read_clock_ns(clockid_t clock) noexcept {
  timespec ts{};
  clock_gettime(clock, &ts);  // dm-lint: allow(det-wallclock)
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

}  // namespace

AllocCount alloc_count() noexcept { return g_allocs; }

UncountedScope::UncountedScope() noexcept { ++g_uncounted; }
UncountedScope::~UncountedScope() { --g_uncounted; }

HarnessScope::HarnessScope() noexcept {
  if (g_harness_depth++ == 0)
    g_harness_begin_ns = read_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}
HarnessScope::~HarnessScope() {
  if (--g_harness_depth == 0)
    g_harness_ns += read_clock_ns(CLOCK_PROCESS_CPUTIME_ID) - g_harness_begin_ns;
}

double cpu_seconds() noexcept {
  return static_cast<double>(read_clock_ns(CLOCK_PROCESS_CPUTIME_ID)) * 1e-9;
}

double harness_cpu_seconds() noexcept {
  return static_cast<double>(g_harness_ns) * 1e-9;
}

double program_cpu_seconds() noexcept {
  return cpu_seconds() - harness_cpu_seconds();
}

std::uint64_t host_ns() noexcept { return read_clock_ns(CLOCK_MONOTONIC); }

double peak_rss_mib() noexcept {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void pin_malloc_thresholds() noexcept {
  mallopt(M_MMAP_THRESHOLD, 128 * 1024);
  mallopt(M_TRIM_THRESHOLD, 128 * 1024);
}

}  // namespace perfbench

// Replacement global allocation functions: every heap allocation the
// library makes in this process is counted (count and requested bytes).
void* operator new(std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new[](std::size_t size) { return perfbench::counted_alloc(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return perfbench::counted_alloc(size);
  } catch (...) {
    return nullptr;
  }
}
void* operator new(std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return perfbench::counted_aligned_alloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
