#pragma once

#include <memory>
#include <type_traits>
#include <utility>

namespace wsim::util {

template <typename Signature>
class FunctionRef;

/// Non-owning reference to a callable: two pointers, no allocation, so a
/// per-call callback (the engine's block binder) costs nothing when it is
/// never invoked. The referenced callable must outlive every call; pass
/// FunctionRef by value as a parameter and never store it.
template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  template <typename F>
    requires(!std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
             std::is_invocable_r_v<R, F&, Args...>)
  FunctionRef(F&& f) noexcept  // NOLINT(google-explicit-constructor)
      : object_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*call_)(void*, Args...);
};

}  // namespace wsim::util
