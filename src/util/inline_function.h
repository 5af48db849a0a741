// A small-buffer-only callable: like std::function but with fixed inline
// storage and NO heap fallback. Oversized captures are a compile error, not
// a hidden allocation — which is the point: the event loop schedules one of
// these per event, and the allocation-count regression test holds the hot
// path to zero heap traffic in steady state.
//
// Move-only (captures may own resources); trivially-relocatable callables
// (the common case: lambdas capturing pointers and scalars) move by memcpy
// with no indirect call.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace aeq::util {

template <typename Signature, std::size_t Capacity>
class InlineFunction;

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  // Implicit from any callable, mirroring std::function — but the callable
  // must fit the inline buffer; there is deliberately no heap fallback.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                !std::is_same_v<std::decay_t<F>, std::nullptr_t>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    construct(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }

  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }

  InlineFunction& operator=(std::nullptr_t) {
    reset();
    return *this;
  }

  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;

  ~InlineFunction() { reset(); }

  R operator()(Args... args) {
    return invoke_(storage_, std::forward<Args>(args)...);
  }

  explicit operator bool() const { return invoke_ != nullptr; }

  void reset() {
    if (manage_ != nullptr) manage_(nullptr, storage_);
    invoke_ = nullptr;
    manage_ = nullptr;
  }

  // Destroys the held callable, if any, and builds `f` directly in this
  // object's buffer: no temporary InlineFunction and no relocation. The
  // event store builds every handler in its final slot this way.
  template <typename F>
  void emplace(F&& f) {
    reset();
    construct(std::forward<F>(f));
  }

 private:
  using Invoke = R (*)(void*, Args...);
  // Move-constructs the callable into `dst` (destroy-only when dst is null)
  // and destroys the source. Null for trivially relocatable callables.
  using Manage = void (*)(void* dst, void* src);

  template <typename F>
  void construct(F&& f) {
    using Fn = std::decay_t<F>;
    static_assert(std::is_invocable_r_v<R, Fn&, Args...>,
                  "callable signature mismatch");
    static_assert(sizeof(Fn) <= Capacity,
                  "capture exceeds the inline-callback budget: shrink the "
                  "capture (prefer `this` + indices over values) or raise "
                  "the owner's declared Capacity");
    static_assert(alignof(Fn) <= alignof(std::max_align_t),
                  "over-aligned callable");
    ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(f));
    invoke_ = [](void* s, Args... args) -> R {
      return (*std::launder(reinterpret_cast<Fn*>(s)))(
          std::forward<Args>(args)...);
    };
    // Trivially relocatable callables keep manage_ null and move by memcpy.
    if constexpr (!(std::is_trivially_destructible_v<Fn> &&
                    std::is_trivially_move_constructible_v<Fn>)) {
      manage_ = [](void* dst, void* src) {
        Fn* from = std::launder(reinterpret_cast<Fn*>(src));
        if (dst != nullptr) ::new (dst) Fn(std::move(*from));
        from->~Fn();
      };
    }
  }

  void move_from(InlineFunction& other) noexcept {
    invoke_ = other.invoke_;
    manage_ = other.manage_;
    if (invoke_ != nullptr) {
      if (manage_ != nullptr) {
        manage_(storage_, other.storage_);
      } else {
        std::memcpy(storage_, other.storage_, Capacity);
      }
    }
    other.invoke_ = nullptr;
    other.manage_ = nullptr;
  }

  alignas(std::max_align_t) unsigned char storage_[Capacity];
  Invoke invoke_ = nullptr;
  Manage manage_ = nullptr;
};

// True when `f` is a callable that can be empty and is: a null function
// pointer, or a wrapper with an explicit operator bool (std::function,
// InlineFunction) that holds nothing. A closure is never null.
template <typename F>
bool is_null_callable(const F& f) {
  if constexpr (std::is_pointer_v<F> || std::is_member_pointer_v<F>) {
    return f == nullptr;
  } else if constexpr (std::is_constructible_v<bool, const F&> &&
                       !std::is_convertible_v<const F&, bool>) {
    return !static_cast<bool>(f);
  } else {
    return false;
  }
}

template <typename Sig, std::size_t Cap>
bool operator==(const InlineFunction<Sig, Cap>& f, std::nullptr_t) {
  return !f;
}
template <typename Sig, std::size_t Cap>
bool operator!=(const InlineFunction<Sig, Cap>& f, std::nullptr_t) {
  return static_cast<bool>(f);
}

}  // namespace aeq::util
