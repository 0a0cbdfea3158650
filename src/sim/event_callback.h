// Move-only, type-erased `void()` callable for simulator events.
//
// Every scheduled event used to be a std::function, which heap-allocates
// any closure larger than two pointers or not trivially copyable — and the
// substrate's closures routinely capture a payload vector plus a completion
// std::function. EventCallback stores closures up to kInlineBytes inside
// itself (the fabric's delivery and ack closures all fit) and heap-allocates
// only larger ones. It is move-only, so closures may capture move-only state
// (unique_ptr, moved-in buffers) and are never copied on the way to the
// queue.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dm::sim {

class EventCallback {
 public:
  // 120 B of storage plus the ops pointer: 128 B, two cache lines.
  static constexpr std::size_t kInlineBytes = 120;

  EventCallback() noexcept = default;

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, EventCallback> &&
                                        std::is_invocable_r_v<void, Fn&>>>
  EventCallback(F&& f) {  // NOLINT: implicit by design
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  EventCallback(EventCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  EventCallback& operator=(EventCallback&& other) noexcept {
    if (this != &other) {
      reset();
      ops_ = other.ops_;
      if (ops_ != nullptr) {
        ops_->relocate(storage_, other.storage_);
        other.ops_ = nullptr;
      }
    }
    return *this;
  }

  EventCallback(const EventCallback&) = delete;
  EventCallback& operator=(const EventCallback&) = delete;

  ~EventCallback() { reset(); }

  // Destroys the held closure (and whatever it captured), leaving empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: non-empty.
  void operator()() { ops_->invoke(storage_); }

  // True when a closure of type F is held without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return kStoredInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    void (*invoke)(void* self);
    // Move-constructs into dst from src, then destroys src.
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void* self) noexcept;
  };

  template <typename Fn>
  static constexpr bool kStoredInline =
      sizeof(Fn) <= kInlineBytes && alignof(Fn) <= alignof(void*) &&
      std::is_nothrow_move_constructible_v<Fn>;

  // The object placement-new'd into `storage`.
  template <typename T>
  static T* held(void* storage) noexcept {
    return std::launder(static_cast<T*>(storage));
  }

  template <typename Fn>
  static constexpr Ops kInlineOps{
      [](void* self) { (*held<Fn>(self))(); },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*held<Fn>(src)));
        held<Fn>(src)->~Fn();
      },
      [](void* self) noexcept { held<Fn>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self) { (**held<Fn*>(self))(); },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*held<Fn*>(src)); },
      [](void* self) noexcept { delete *held<Fn*>(self); },
  };

  alignas(void*) unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace dm::sim
