// Deterministic discrete-event simulator.
//
// The whole library runs on virtual time: components schedule callbacks at
// virtual-nanosecond timestamps and the Simulator executes them in
// (time, insertion-sequence) order, so identical inputs and seeds produce
// bit-identical runs. The engine is single-threaded; "concurrency" in the
// modeled cluster comes from interleaved events, exactly as in the classic
// network-simulator tradition.
//
// Blocking-style code (e.g. a page fault that must wait for a remote read)
// uses run_until_flag(): post the asynchronous operation, then drain events
// until its completion flips a bool.
//
// Event storage: each pending callback lives in a pooled slot (fixed-size
// chunks, so a slot never moves while pending or running) and the ordering
// heap holds only (when, seq, slot) keys, so sifting never touches a
// closure. A slot is freed after its callback returns and reused LIFO.
#pragma once

#include <cassert>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/units.h"
#include "sim/event_callback.h"

namespace dm::sim {

class Simulator {
 public:
  using Callback = EventCallback;

  SimTime now() const noexcept { return now_; }

  // Schedules fn at absolute virtual time `when` (>= now).
  void schedule_at(SimTime when, Callback fn);

  // Schedules fn `delay` nanoseconds from now.
  void schedule_after(SimTime delay, Callback fn) {
    schedule_at(now_ + delay, std::move(fn));
  }

  bool has_pending() const noexcept { return !heap_.empty(); }
  std::size_t pending_count() const noexcept { return heap_.size(); }

  // Runs a single event; returns false if none pending.
  bool step();

  // Runs until the queue is empty.
  void run();

  // Runs events with timestamp <= deadline, then advances now to deadline.
  void run_until(SimTime deadline);

  // Runs until `flag` becomes true. Returns false if events ran dry first
  // (deadlock in the modeled system — callers treat this as a lost
  // completion) or if virtual time passes `deadline` (guards against
  // self-perpetuating background work, e.g. heartbeats, masking a lost
  // completion). deadline < 0 means no deadline.
  bool run_until_flag(const bool& flag, SimTime deadline = -1);

  // Advances the clock with no event processing (used by workload drivers to
  // charge pure compute time between memory accesses). Nothing runs in the
  // skipped window: an event due inside it fires late, at the next step(),
  // and sees the advanced now() — the clock never rewinds.
  void advance(SimTime delta) {
    assert(delta >= 0);
    now_ += delta;
  }

  std::uint64_t executed_events() const noexcept { return executed_; }

 private:
  struct Key {
    SimTime when;
    std::uint64_t seq;
    std::uint32_t slot;
  };
  // Max-heap comparator putting the earliest (when, seq) on top.
  struct Later {
    bool operator()(const Key& a, const Key& b) const noexcept {
      if (a.when != b.when) return a.when > b.when;
      return a.seq > b.seq;
    }
  };

  static constexpr std::uint32_t kChunkShift = 8;
  static constexpr std::uint32_t kChunkSlots = 1u << kChunkShift;

  Callback& slot(std::uint32_t index) noexcept {
    return chunks_[index >> kChunkShift][index & (kChunkSlots - 1)];
  }
  std::uint32_t acquire_slot();

  std::vector<Key> heap_;
  std::vector<std::unique_ptr<Callback[]>> chunks_;
  std::vector<std::uint32_t> free_slots_;
  std::uint32_t slot_count_ = 0;
  SimTime now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
};

}  // namespace dm::sim
