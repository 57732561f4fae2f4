#include "sim/fault_injector.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <string>
#include <string_view>

#include "common/error.h"
#include "common/random.h"

namespace kf::sim {

namespace {

// Distinct salts so the fail and stall draws for one command are independent.
constexpr std::uint64_t kSaltFail = 0x6661756c74ULL;     // "fault"
constexpr std::uint64_t kSaltStall = 0x7374616c6cULL;    // "stall"
constexpr std::uint64_t kSaltOom = 0x6f6f6dULL;          // "oom"
constexpr std::uint64_t kSaltCorrupt = 0x666c6970ULL;    // "flip"

// A set variable must parse whole into a finite number within [lo, hi].
double EnvDouble(const char* name, double fallback, double lo = 0.0, double hi = 1.0) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  char* end = nullptr;
  const double parsed = std::strtod(value, &end);
  const bool whole = end != value && *end == '\0';
  KF_REQUIRE_AS(::kf::InvalidArgument,
                whole && std::isfinite(parsed) && parsed >= lo && parsed <= hi)
      << name << "='" << value << "' is not a number in [" << lo << ", " << hi << "]";
  return parsed;
}

// A set variable must be decimal digits that fit in 64 bits.
std::uint64_t EnvU64(const char* name, std::uint64_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const std::string_view text(value);
  errno = 0;
  const std::uint64_t parsed = std::strtoull(value, nullptr, 10);
  const bool digits = !text.empty() && text.find_first_not_of("0123456789") == text.npos;
  KF_REQUIRE_AS(::kf::InvalidArgument, digits && errno != ERANGE)
      << name << "='" << value << "' is not an unsigned 64-bit decimal";
  return parsed;
}

}  // namespace

FaultConfig FaultConfig::FromEnv() {
  FaultConfig config;
  config.seed = EnvU64("KF_FAULT_SEED", config.seed);
  config.copy_fault_rate = EnvDouble("KF_FAULT_COPY_RATE", config.copy_fault_rate);
  config.kernel_fault_rate =
      EnvDouble("KF_FAULT_KERNEL_RATE", config.kernel_fault_rate);
  config.oom_rate = EnvDouble("KF_FAULT_OOM_RATE", config.oom_rate);
  config.stall_rate = EnvDouble("KF_FAULT_STALL_RATE", config.stall_rate);
  config.stall_multiplier =
      EnvDouble("KF_FAULT_STALL_MULT", config.stall_multiplier, 1.0, HUGE_VAL);
  const double corrupt_all = EnvDouble("KF_FAULT_CORRUPT_RATE", 0.0);
  config.corrupt_h2d_rate = corrupt_all;
  config.corrupt_d2h_rate = corrupt_all;
  config.corrupt_kernel_rate = corrupt_all;
  config.corrupt_h2d_rate =
      EnvDouble("KF_FAULT_CORRUPT_H2D_RATE", config.corrupt_h2d_rate);
  config.corrupt_d2h_rate =
      EnvDouble("KF_FAULT_CORRUPT_D2H_RATE", config.corrupt_d2h_rate);
  config.corrupt_kernel_rate =
      EnvDouble("KF_FAULT_CORRUPT_KERNEL_RATE", config.corrupt_kernel_rate);
  return config;
}

double FaultInjector::Draw(std::uint64_t epoch, std::uint64_t ordinal,
                           std::uint64_t salt) const {
  // splitmix64 chain over the decision coordinates: stateless, so the same
  // (seed, epoch, ordinal, salt) always yields the same uniform.
  std::uint64_t state = config_.seed;
  std::uint64_t mixed = SplitMix64(state);
  state ^= epoch * 0x9e3779b97f4a7c15ULL;
  mixed ^= SplitMix64(state);
  state ^= ordinal * 0xbf58476d1ce4e5b9ULL;
  mixed ^= SplitMix64(state);
  state ^= salt;
  mixed ^= SplitMix64(state);
  return static_cast<double>(mixed >> 11) * 0x1.0p-53;
}

FaultDecision FaultInjector::Decide(std::uint64_t epoch,
                                    std::uint64_t command_id,
                                    CommandKind kind) const {
  FaultDecision decision;
  if (kind == CommandKind::kHostCompute) return decision;  // host is reliable

  if (config_.stall_rate > 0 &&
      Draw(epoch, command_id, kSaltStall) < config_.stall_rate) {
    decision.fault = FaultKind::kStreamStall;
    decision.duration_multiplier = config_.stall_multiplier;
  }

  const bool is_copy =
      kind == CommandKind::kCopyH2D || kind == CommandKind::kCopyD2H;
  const double fail_rate =
      is_copy ? config_.copy_fault_rate : config_.kernel_fault_rate;
  if (fail_rate > 0 && Draw(epoch, command_id, kSaltFail) < fail_rate) {
    decision.fault =
        is_copy ? FaultKind::kCopyTransient : FaultKind::kKernelFault;
  }

  // Silent corruption: only a command that otherwise succeeds can deliver
  // wrong bytes — a loudly-failed command delivers no bytes at all.
  const double corrupt_rate =
      kind == CommandKind::kCopyH2D   ? config_.corrupt_h2d_rate
      : kind == CommandKind::kCopyD2H ? config_.corrupt_d2h_rate
                                      : config_.corrupt_kernel_rate;
  if (corrupt_rate > 0 && decision.fault != FaultKind::kCopyTransient &&
      decision.fault != FaultKind::kKernelFault &&
      Draw(epoch, command_id, kSaltCorrupt) < corrupt_rate) {
    decision.corrupt = true;
  }
  return decision;
}

bool FaultInjector::InjectOomOnReservation() const {
  if (config_.oom_rate <= 0) return false;
  const std::uint64_t ordinal = oom_draws_.fetch_add(1, std::memory_order_relaxed);
  return Draw(0, ordinal, kSaltOom) < config_.oom_rate;
}

}  // namespace kf::sim
