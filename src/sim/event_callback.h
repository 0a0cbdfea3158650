// Move-only, type-erased callables with inline storage: the one callable
// type for simulator events and for every completion on the op path.
//
// A std::function heap-allocates any closure larger than two pointers or
// not trivially copyable, and the substrate's closures routinely capture a
// payload vector plus a completion. InlineCallback<R(Args...), N> stores
// closures up to N bytes inside itself and heap-allocates only larger
// ones. It is move-only, so closures may capture move-only state
// (unique_ptr, moved-in buffers, other callbacks) and are never copied on
// the way to the queue.
//
// Two instances cover the code base:
//  * OpCallback<Sig> — a completion (fabric verb, RPC reply, Rdmc/LDMS op
//    done). kOpInlineBytes holds an object pointer, an op record pointer
//    and a few scalars: what a completion needs when its op keeps the rest
//    in a state record. A completion never wraps another completion (that
//    would need more than kOpInlineBytes and spill to the heap); the op
//    record carries the caller's callback instead.
//  * EventCallback — a scheduled event. Its buffer is sized from the
//    completion's: one captured OpCallback plus kEventCaptureBytes of the
//    event's own state, so a fabric or RPC event closure that carries a
//    completion to delivery still stores inline.
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace dm::sim {

template <typename Signature, std::size_t InlineBytes>
class InlineCallback;

template <typename R, typename... Args, std::size_t InlineBytes>
class InlineCallback<R(Args...), InlineBytes> {
 public:
  static constexpr std::size_t kInlineBytes = InlineBytes;

  InlineCallback() noexcept = default;

  template <typename F,
            typename Fn = std::decay_t<F>,
            typename = std::enable_if_t<!std::is_same_v<Fn, InlineCallback> &&
                                        std::is_invocable_r_v<R, Fn&, Args...>>>
  InlineCallback(F&& f) {  // NOLINT: implicit by design
    if constexpr (kStoredInline<Fn>) {
      ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      ::new (static_cast<void*>(storage_)) Fn*(new Fn(std::forward<F>(f)));
      ops_ = &kHeapOps<Fn>;
    }
  }

  InlineCallback(InlineCallback&& other) noexcept : ops_(other.ops_) {
    if (ops_ != nullptr) {
      ops_->relocate(storage_, other.storage_);
      other.ops_ = nullptr;
    }
  }

  InlineCallback& operator=(InlineCallback&& other) noexcept {
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

  InlineCallback(const InlineCallback&) = delete;
  InlineCallback& operator=(const InlineCallback&) = delete;

  ~InlineCallback() { reset(); }

  // Destroys the held closure (and whatever it captured), leaving empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      ops_->destroy(storage_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const noexcept { return ops_ != nullptr; }

  // Precondition: non-empty. Callable through a const reference, as a
  // std::function is, so a closure that holds a callback by value may
  // invoke it without being declared mutable.
  R operator()(Args... args) const {
    return ops_->invoke(storage_, std::forward<Args>(args)...);
  }

  // True when a closure of type F is held without a heap allocation.
  template <typename F>
  static constexpr bool stores_inline() noexcept {
    return kStoredInline<std::decay_t<F>>;
  }

 private:
  struct Ops {
    R (*invoke)(void* self, Args&&... args);
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
      [](void* self, Args&&... args) -> R {
        return (*held<Fn>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept {
        ::new (dst) Fn(std::move(*held<Fn>(src)));
        held<Fn>(src)->~Fn();
      },
      [](void* self) noexcept { held<Fn>(self)->~Fn(); },
  };

  template <typename Fn>
  static constexpr Ops kHeapOps{
      [](void* self, Args&&... args) -> R {
        return (**held<Fn*>(self))(std::forward<Args>(args)...);
      },
      [](void* dst, void* src) noexcept { ::new (dst) Fn*(*held<Fn*>(src)); },
      [](void* self) noexcept { delete *held<Fn*>(self); },
  };

  alignas(void*) mutable unsigned char storage_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

// Completion storage: 48 B of closure plus the ops pointer, 56 B in all.
inline constexpr std::size_t kOpInlineBytes = 48;

template <typename Signature>
using OpCallback = InlineCallback<Signature, kOpInlineBytes>;

// What an event closure may capture beside one completion: the fabric's
// delivery closures carry a payload buffer, addresses, timestamps and an
// open span next to the verb's completion.
inline constexpr std::size_t kEventCaptureBytes = 128;

// 184 B of storage plus the ops pointer: 192 B, three cache lines.
using EventCallback =
    InlineCallback<void(), sizeof(OpCallback<void()>) + kEventCaptureBytes>;

}  // namespace dm::sim
