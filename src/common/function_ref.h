// A non-owning, trivially-copyable callable reference.
//
// The hot host-execution paths (ParallelForEach loops, per-chunk staged-kernel
// bodies) used to box every callable into a std::function, which heap-
// allocates for captures beyond the small-buffer size and defeats inlining.
// FunctionRef is two words (object pointer + thunk pointer), never allocates,
// and is safe wherever the referenced callable outlives the call — which is
// always true for the synchronous fork-join parallelism used here.
//
// Do NOT store a FunctionRef beyond the call it was passed to: it does not
// extend the lifetime of the callable it references.
#ifndef KF_COMMON_FUNCTION_REF_H_
#define KF_COMMON_FUNCTION_REF_H_

#include <memory>
#include <type_traits>
#include <utility>

namespace kf {

template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = delete;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  // NOLINTNEXTLINE(google-explicit-constructor): implicit by design, like
  // std::function — call sites pass lambdas directly.
  FunctionRef(F&& f) noexcept
      : object_(const_cast<void*>(
            static_cast<const void*>(std::addressof(f)))),
        thunk_([](void* object, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(object))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return thunk_(object_, std::forward<Args>(args)...);
  }

 private:
  void* object_;
  R (*thunk_)(void*, Args...);
};

}  // namespace kf

#endif  // KF_COMMON_FUNCTION_REF_H_
