// Small-buffer move-only callable: the scheduler's answer to std::function.
//
// std::function heap-allocates any capture larger than its tiny SBO (GCC:
// 16 bytes), copies on priority_queue round-trips, and requires copyable
// callables. The event engine's steady-state schedule->fire path must do
// none of that, so InlineFunction stores the callable in an in-object
// buffer sized for the repo's largest recurring capture (six words; see
// kSimCallbackInlineBytes), is move-only (so capturing move-only state
// is legal and accidental copies are compile errors), and falls back to a
// single heap cell only for captures that exceed the buffer — correctness
// is never capacity-gated, only the zero-alloc guarantee is (pinned by
// static_asserts at the Link and SimMonitor call sites and by the
// alloc-count tests).
//
// Not thread-safe; not const-callable — this is a single-threaded
// simulator core primitive, not a general std::function replacement.
#pragma once

#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace floc {

template <typename Sig, std::size_t Capacity>
class InlineFunction;  // undefined; use the R(Args...) specialization

template <typename R, typename... Args, std::size_t Capacity>
class InlineFunction<R(Args...), Capacity> {
 public:
  InlineFunction() = default;
  InlineFunction(std::nullptr_t) {}  // NOLINT(google-explicit-constructor)

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  InlineFunction(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  InlineFunction(InlineFunction&& other) noexcept { move_from(other); }
  InlineFunction& operator=(InlineFunction&& other) noexcept {
    if (this != &other) {
      reset();
      move_from(other);
    }
    return *this;
  }
  InlineFunction(const InlineFunction&) = delete;
  InlineFunction& operator=(const InlineFunction&) = delete;
  ~InlineFunction() { reset(); }

  // Replace the target with `f` (destroying any previous target). Exactly
  // one move (or copy, for lvalues) of `f`; no allocation when it fits.
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, InlineFunction> &&
                std::is_invocable_r_v<R, std::decay_t<F>&, Args...>>>
  void assign(F&& f) {
    reset();
    emplace(std::forward<F>(f));
  }

  void reset() {
    if (ops_ != nullptr) {
      ops_->destroy(&buf_);
      ops_ = nullptr;
    }
  }

  explicit operator bool() const { return ops_ != nullptr; }

  R operator()(Args... args) {
    return ops_->call(&buf_, std::forward<Args>(args)...);
  }

  // True when a callable of type F lives in the in-object buffer (the
  // zero-allocation path); false means the heap-cell fallback.
  template <typename F>
  static constexpr bool fits_inline() {
    using D = std::decay_t<F>;
    return sizeof(D) <= Capacity && alignof(D) <= alignof(std::max_align_t);
  }

  static constexpr std::size_t capacity() { return Capacity; }

 private:
  struct Ops {
    R (*call)(void*, Args&&...);
    // Move-construct dst from src, then destroy src's target. The target's
    // move constructor must not throw (all simulator captures are trivially
    // movable aggregates; a throwing move would std::terminate here).
    void (*relocate)(void* dst, void* src) noexcept;
    void (*destroy)(void*) noexcept;
  };

  template <typename F>
  void emplace(F&& f) {
    using D = std::decay_t<F>;
    if constexpr (fits_inline<D>()) {
      ::new (static_cast<void*>(&buf_)) D(std::forward<F>(f));
      static constexpr Ops ops = {
          [](void* p, Args&&... a) -> R {
            return (*std::launder(reinterpret_cast<D*>(p)))(
                std::forward<Args>(a)...);
          },
          [](void* dst, void* src) noexcept {
            D* s = std::launder(reinterpret_cast<D*>(src));
            ::new (dst) D(std::move(*s));
            s->~D();
          },
          [](void* p) noexcept {
            std::launder(reinterpret_cast<D*>(p))->~D();
          },
      };
      ops_ = &ops;
    } else {
      D* heap = new D(std::forward<F>(f));
      std::memcpy(&buf_, &heap, sizeof(heap));
      static constexpr Ops ops = {
          [](void* p, Args&&... a) -> R {
            D* d;
            std::memcpy(&d, p, sizeof(d));
            return (*d)(std::forward<Args>(a)...);
          },
          [](void* dst, void* src) noexcept {
            std::memcpy(dst, src, sizeof(D*));
          },
          [](void* p) noexcept {
            D* d;
            std::memcpy(&d, p, sizeof(d));
            delete d;
          },
      };
      ops_ = &ops;
    }
  }

  void move_from(InlineFunction& other) noexcept {
    ops_ = other.ops_;
    if (ops_ != nullptr) {
      ops_->relocate(&buf_, &other.buf_);
      other.ops_ = nullptr;
    }
  }

  const Ops* ops_ = nullptr;
  alignas(std::max_align_t) unsigned char buf_[Capacity];
};

}  // namespace floc
