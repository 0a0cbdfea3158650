// Fixed-size owning byte arena that reads as zero until written.
//
// A node's simulated DRAM, receive pool, send staging, disk and CXL backing
// are large and mostly untouched. A value-initialised std::vector zero-fills
// (and so page-faults) every byte when the node is built; calloc instead
// hands large requests fresh anonymous pages that the kernel zero-fills on
// first touch. Host RSS and set-up time then follow the bytes the
// simulation actually stores, not the configured capacities.
//
// The size is fixed at construction and the bytes never move, so spans into
// the arena (registered memory regions, slab views) stay valid for its
// lifetime; the arena itself is neither copyable nor movable.
#pragma once

#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>

namespace dm {

class ByteArena {
 public:
  explicit ByteArena(std::size_t size)
      : bytes_(static_cast<std::byte*>(std::calloc(size == 0 ? 1 : size, 1))),
        size_(size) {
    if (bytes_ == nullptr) throw std::bad_alloc();
  }
  ByteArena(const ByteArena&) = delete;
  ByteArena& operator=(const ByteArena&) = delete;

  std::byte* data() noexcept { return bytes_.get(); }
  const std::byte* data() const noexcept { return bytes_.get(); }
  std::size_t size() const noexcept { return size_; }

  // Contiguous-range surface, so `std::span(arena)` works as for a vector.
  std::byte* begin() noexcept { return data(); }
  std::byte* end() noexcept { return data() + size_; }
  const std::byte* begin() const noexcept { return data(); }
  const std::byte* end() const noexcept { return data() + size_; }

 private:
  struct Free {
    void operator()(std::byte* p) const noexcept { std::free(p); }
  };

  std::unique_ptr<std::byte[], Free> bytes_;
  std::size_t size_;
};

}  // namespace dm
