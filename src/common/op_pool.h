// Free-list recycler for per-op state records.
//
// An asynchronous op (an Rdmc put, read or free; an LDMS put or get)
// acquires a record, keeps its state there across its steps, and releases
// it when it settles; the next op reuses it, so steady-state ops allocate
// no state. Records keep their addresses for the pool's lifetime, so a
// completion may capture a raw pointer to one. release() calls the
// record's clear(), which must drop every reference the op held (its
// caller's callback above all) while buffers keep their capacity.
#pragma once

#include <memory>
#include <vector>

namespace dm {

template <typename T>
class OpPool {
 public:
  T* acquire() {
    if (free_.empty()) {
      records_.push_back(std::make_unique<T>());
      return records_.back().get();
    }
    T* record = free_.back();
    free_.pop_back();
    return record;
  }

  void release(T* record) {
    record->clear();
    free_.push_back(record);
  }

 private:
  std::vector<std::unique_ptr<T>> records_;
  std::vector<T*> free_;
};

}  // namespace dm
