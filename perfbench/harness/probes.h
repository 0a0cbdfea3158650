// Host-cost probes linked only into the benchmark binary.
//
// The library under test runs on virtual time and never reads a host clock;
// the benchmark measures what the simulator itself costs to run. All host
// clocks live in probes.cc, and nothing they return is ever printed inside
// the deterministic section of the report.
#pragma once

#include <cstdint>

namespace perfbench {

// Running totals of heap allocations made through global operator new
// since process start (counted by the replacement operators in probes.cc).
struct AllocCount {
  std::uint64_t allocs = 0;
  std::uint64_t bytes = 0;  // bytes requested, not bytes reserved

  AllocCount operator-(const AllocCount& past) const noexcept {
    return {allocs - past.allocs, bytes - past.bytes};
  }
};
AllocCount alloc_count() noexcept;

// Allocations made while one of these is alive are not counted: the
// benchmark's own bookkeeping must not read as the program's cost.
class UncountedScope {
 public:
  UncountedScope() noexcept;
  ~UncountedScope();
  UncountedScope(const UncountedScope&) = delete;
  UncountedScope& operator=(const UncountedScope&) = delete;
};

// The benchmark's own work inside a measured region: generating inputs and
// checking outputs. Allocations made while one of these is alive are not
// counted, and its process CPU time is kept apart, so that neither reads as
// the program's cost. Only the outermost of nested scopes reads the clock;
// each read is a system call of about half a microsecond, about half of
// which lands outside the scope.
class HarnessScope {
 public:
  HarnessScope() noexcept;
  ~HarnessScope();
  HarnessScope(const HarnessScope&) = delete;
  HarnessScope& operator=(const HarnessScope&) = delete;

 private:
  UncountedScope uncounted_;
};

// Process CPU time (user + system) in seconds.
double cpu_seconds() noexcept;
// Process CPU seconds spent inside HarnessScopes so far.
double harness_cpu_seconds() noexcept;
// cpu_seconds() less harness_cpu_seconds(): the differences of two readings
// are the CPU time the program took in between.
double program_cpu_seconds() noexcept;

// Monotonic host clock in nanoseconds, cheap enough to read around every
// call into a layer.
std::uint64_t host_ns() noexcept;

// getrusage peak resident set size of this process, in MiB.
double peak_rss_mib() noexcept;

// Pins glibc's mmap/trim thresholds at their static defaults. Without this
// the allocator raises its mmap threshold after the first large free, so a
// second set-up in the same process reuses already-touched heap pages and
// reads cheaper than the first; pinned, every set-up pays for fresh arenas.
void pin_malloc_thresholds() noexcept;

}  // namespace perfbench
