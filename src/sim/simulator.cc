#include "sim/simulator.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "common/units.h"

namespace dm::sim {

std::uint32_t Simulator::acquire_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t index = free_slots_.back();
    free_slots_.pop_back();
    return index;
  }
  if ((slot_count_ & (kChunkSlots - 1)) == 0)
    chunks_.push_back(std::make_unique<Callback[]>(kChunkSlots));
  return slot_count_++;
}

void Simulator::schedule_at(SimTime when, Callback fn) {
  assert(when >= now_);
  const std::uint32_t index = acquire_slot();
  slot(index) = std::move(fn);
  heap_.push_back(Key{when, next_seq_++, index});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

bool Simulator::step() {
  if (heap_.empty()) return false;
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Key key = heap_.back();
  heap_.pop_back();
  // Defensive monotonicity: advance() may have moved the clock past a
  // queued event; such an event fires "late" rather than rewinding time.
  if (key.when > now_) now_ = key.when;
  ++executed_;
  // The callback runs in its slot: slots live in fixed chunks, so events it
  // schedules (or a nested step() it drives) never move it, and the slot is
  // not reused until it is released below. Its closure is destroyed after
  // it returns, as a moved-out copy would have been.
  Callback& fn = slot(key.slot);
  fn();
  fn.reset();
  free_slots_.push_back(key.slot);
  return true;
}

void Simulator::run() {
  while (step()) {
  }
}

void Simulator::run_until(SimTime deadline) {
  while (!heap_.empty() && heap_.front().when <= deadline) step();
  if (now_ < deadline) now_ = deadline;
}

bool Simulator::run_until_flag(const bool& flag, SimTime deadline) {
  while (!flag) {
    if (deadline >= 0 && now_ > deadline) return false;
    if (!step()) return false;
  }
  return true;
}

}  // namespace dm::sim
