// Error handling primitives for the kernel-fusion library.
//
// The library follows the C++ Core Guidelines: exceptions for errors that the
// immediate caller cannot handle, assert-style macros for programming errors.
// `kf::Error` is the base exception type thrown by the library; typed
// subclasses carry a stable `ErrorCode` so callers (the query scheduler's
// retry/degrade machinery, clients waiting on futures) can branch on the
// *kind* of failure instead of parsing `what()`. `KF_REQUIRE` validates
// user-facing preconditions and internal invariants (always on);
// `KF_REQUIRE_AS` / `KF_FAIL_AS` throw a specific subclass.
#ifndef KF_COMMON_ERROR_H_
#define KF_COMMON_ERROR_H_

#include <sstream>
#include <stdexcept>
#include <string>

namespace kf {

// Stable machine-readable failure kinds. Values are part of the library's
// API contract (logged, matched by retry policies, labeled in metrics);
// add new kinds at the end.
enum class ErrorCode : std::uint8_t {
  kGeneric = 0,        // unclassified invariant violation
  kInvalidArgument,    // malformed input: bad JSON, bad plan, bad option, bad handle
  kDeviceFault,        // transient device error: copy engine, ECC, injected OOM
  kTimeout,            // deadline exceeded (the library itself sets no deadline)
  kCapacityExceeded,   // resource genuinely exhausted: device memory, queues
  kCancelled,          // work abandoned: scheduler shut down, terminated pool
  kDataCorruption,     // checksum/audit mismatch that was not healed
};

inline const char* ToString(ErrorCode code) {
  switch (code) {
    case ErrorCode::kGeneric: return "generic";
    case ErrorCode::kInvalidArgument: return "invalid_argument";
    case ErrorCode::kDeviceFault: return "device_fault";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kCapacityExceeded: return "capacity_exceeded";
    case ErrorCode::kCancelled: return "cancelled";
    case ErrorCode::kDataCorruption: return "data_corruption";
  }
  return "?";
}

// The exception type thrown for all recoverable library errors (bad
// arguments, capacity exhaustion, malformed plans, device faults). Carries a
// human-readable message plus the machine-readable code.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what, ErrorCode code = ErrorCode::kGeneric)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

// Typed subclasses: catchable individually, and the base `kf::Error` catch
// sites keep working (the code survives either way). The library throws
// neither Timeout nor DataCorruption: a query has no deadline, and a unit
// whose corruption outlasts its re-executions degrades to the host.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what)
      : Error(what, ErrorCode::kInvalidArgument) {}
};

class DeviceFault : public Error {
 public:
  explicit DeviceFault(const std::string& what)
      : Error(what, ErrorCode::kDeviceFault) {}
};

class Timeout : public Error {
 public:
  explicit Timeout(const std::string& what) : Error(what, ErrorCode::kTimeout) {}
};

class CapacityExceeded : public Error {
 public:
  explicit CapacityExceeded(const std::string& what)
      : Error(what, ErrorCode::kCapacityExceeded) {}
};

class Cancelled : public Error {
 public:
  explicit Cancelled(const std::string& what)
      : Error(what, ErrorCode::kCancelled) {}
};

class DataCorruption : public Error {
 public:
  explicit DataCorruption(const std::string& what)
      : Error(what, ErrorCode::kDataCorruption) {}
};

namespace detail {

// Helper that throws `E` when it goes out of scope at the end of the full
// expression, after the failure message has been streamed in.
template <typename E>
class ThrowOnExit {
 public:
  ThrowOnExit(const char* file, int line, const char* cond) {
    stream_ << file << ":" << line << ": check failed: " << cond << " ";
  }
  ThrowOnExit(const ThrowOnExit&) = delete;
  ThrowOnExit& operator=(const ThrowOnExit&) = delete;
  ~ThrowOnExit() noexcept(false) { throw E(stream_.str()); }

  std::ostringstream& stream() { return stream_; }

 private:
  std::ostringstream stream_;
};

}  // namespace detail
}  // namespace kf

// Precondition/invariant check that stays on in release builds. Usage:
//   KF_REQUIRE(n > 0) << "element count must be positive, got " << n;
#define KF_REQUIRE(cond) KF_REQUIRE_AS(::kf::Error, cond)

// Same, but throws the given `kf::Error` subclass so callers can branch on
// the error code. Usage:
//   KF_REQUIRE_AS(::kf::InvalidArgument, cells == fields) << "...";
#define KF_REQUIRE_AS(ErrorType, cond) \
  if (cond) {                          \
  } else                               \
    ::kf::detail::ThrowOnExit<ErrorType>(__FILE__, __LINE__, #cond).stream()

// Unconditional typed throw with a streamed message. Usage:
//   KF_FAIL_AS(::kf::CapacityExceeded) << "needs " << bytes << " bytes";
#define KF_FAIL_AS(ErrorType) \
  ::kf::detail::ThrowOnExit<ErrorType>(__FILE__, __LINE__, "failure").stream()

#endif  // KF_COMMON_ERROR_H_
