// Fixed-size owning byte arena that reads as zero until written.
//
// A node's simulated DRAM, receive pool, send staging, disk and CXL backing
// are large and mostly untouched. A value-initialised std::vector zero-fills
// (and so page-faults) every byte when the node is built. The arena maps
// fresh anonymous pages instead, which the kernel zero-fills on first
// touch, so host RSS and set-up time follow the bytes the simulation
// actually stores, not the configured capacities. It calls mmap directly
// rather than calloc: once a process frees an mmapped chunk, glibc raises
// its mmap threshold (up to 32 MiB) and serves later arenas below it from
// the heap, where calloc must zero reused memory eagerly.
//
// The size is fixed at construction and the bytes never move, so spans into
// the arena (registered memory regions, slab views) stay valid for its
// lifetime; the arena itself is neither copyable nor movable.
#pragma once

#include <sys/mman.h>

#include <cstddef>
#include <new>

namespace dm {

class ByteArena {
 public:
  explicit ByteArena(std::size_t size) : size_(size) {
    void* p = ::mmap(nullptr, mapped_bytes(), PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::bad_alloc();
    bytes_ = static_cast<std::byte*>(p);
  }
  ~ByteArena() { ::munmap(bytes_, mapped_bytes()); }
  ByteArena(const ByteArena&) = delete;
  ByteArena& operator=(const ByteArena&) = delete;

  std::byte* data() noexcept { return bytes_; }
  const std::byte* data() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return size_; }

  // Contiguous-range surface, so `std::span(arena)` works as for a vector.
  std::byte* begin() noexcept { return data(); }
  std::byte* end() noexcept { return data() + size_; }
  const std::byte* begin() const noexcept { return data(); }
  const std::byte* end() const noexcept { return data() + size_; }

 private:
  // mmap rejects a zero length; an empty arena maps one page.
  std::size_t mapped_bytes() const noexcept { return size_ == 0 ? 1 : size_; }

  std::byte* bytes_ = nullptr;
  std::size_t size_;
};

}  // namespace dm
