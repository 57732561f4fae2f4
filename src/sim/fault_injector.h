// Seeded, deterministic fault injection for the simulated device.
//
// Real Fermi-class deployments see transient copy-engine errors, ECC kernel
// faults, device-OOM on allocation, and stream stalls; the runtime layers
// above the device model (StreamPool, QueryExecutor, QueryScheduler) must
// absorb them. The injector is the single source of those events: the
// Timeline consults it once per command, the DeviceMemoryModel once per
// reservation. It records nothing itself: a faulted, stalled or corrupted
// command surfaces in `TimelineStats`, an injected OOM as the
// `kf::DeviceFault` the reservation throws.
//
// Determinism contract: every decision is a pure hash of (seed, epoch,
// ordinal, salt) — no wall clock, no global RNG. The epoch advances once
// per Timeline::Run, so a retried command gets a fresh draw while a re-run
// of the whole process with the same seed reproduces the exact fault
// sequence (single-worker schedulers make the epoch order deterministic).
#ifndef KF_SIM_FAULT_INJECTOR_H_
#define KF_SIM_FAULT_INJECTOR_H_

#include <atomic>
#include <cstdint>

#include "sim/timeline.h"

namespace kf::sim {

// Fault rates, one Bernoulli draw per decision point. All default to zero:
// a default-constructed config injects nothing. Field names mirror the
// `KF_FAULT_*` environment variables read by FromEnv().
struct FaultConfig {
  std::uint64_t seed = 0;         // KF_FAULT_SEED
  double copy_fault_rate = 0.0;   // KF_FAULT_COPY_RATE: per copy command
  double kernel_fault_rate = 0.0; // KF_FAULT_KERNEL_RATE: per kernel command
  double oom_rate = 0.0;          // KF_FAULT_OOM_RATE: per device reservation
  double stall_rate = 0.0;        // KF_FAULT_STALL_RATE: per device command
  double stall_multiplier = 8.0;  // KF_FAULT_STALL_MULT: latency spike factor

  // Silent-corruption rates: the command *succeeds* (ok, normal duration)
  // but its bytes are wrong. Only the integrity layer's checksums/audits can
  // notice. KF_FAULT_CORRUPT_RATE sets all three at once; the per-kind
  // variables override it.
  double corrupt_h2d_rate = 0.0;     // KF_FAULT_CORRUPT_H2D_RATE
  double corrupt_d2h_rate = 0.0;     // KF_FAULT_CORRUPT_D2H_RATE
  double corrupt_kernel_rate = 0.0;  // KF_FAULT_CORRUPT_KERNEL_RATE

  bool CorruptionEnabled() const {
    return corrupt_h2d_rate > 0 || corrupt_d2h_rate > 0 ||
           corrupt_kernel_rate > 0;
  }

  bool AnyEnabled() const {
    return copy_fault_rate > 0 || kernel_fault_rate > 0 || oom_rate > 0 ||
           stall_rate > 0 || CorruptionEnabled();
  }

  // Reads the KF_FAULT_* environment variables (unset fields keep their
  // defaults). Lets the soak job and ad-hoc runs turn faults on without a
  // recompile; determinism still comes entirely from the seed. A set
  // variable must parse whole: rates within [0, 1], the stall multiplier
  // finite and >= 1, the seed decimal digits within 64 bits. Anything else
  // throws kf::InvalidArgument naming the variable and its text.
  static FaultConfig FromEnv();
};

struct FaultDecision {
  FaultKind fault = FaultKind::kNone;
  double duration_multiplier = 1.0;  // > 1 when the command is stalled
  // The command completes "successfully" but delivers wrong bytes. Mutually
  // exclusive with a loud fault: a failed command delivers no bytes at all,
  // so the corrupt flag is cleared when a fail draw also hits.
  bool corrupt = false;
};

class FaultInjector {
 public:
  explicit FaultInjector(FaultConfig config) : config_(config) {}

  const FaultConfig& config() const { return config_; }

  // Starts a new decision epoch (one per Timeline::Run). Retried commands
  // re-run in a later epoch, so they draw fresh fault decisions.
  std::uint64_t NextEpoch() const {
    return epoch_.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  // Current epoch without advancing it. The executor folds this into its
  // audit-sampling draw so which clusters get audited varies between runs
  // (deterministically) without perturbing the fault stream itself.
  std::uint64_t epoch() const { return epoch_.load(std::memory_order_relaxed); }

  // Fault decision for command `command_id` of `epoch`. Pure function of
  // (seed, epoch, command_id, kind); host-side work never faults.
  FaultDecision Decide(std::uint64_t epoch, std::uint64_t command_id,
                       CommandKind kind) const;

  // One draw per device-memory reservation; true means the allocation fails
  // with an injected (transient) device OOM.
  bool InjectOomOnReservation() const;

 private:
  double Draw(std::uint64_t epoch, std::uint64_t ordinal,
              std::uint64_t salt) const;

  FaultConfig config_;
  mutable std::atomic<std::uint64_t> epoch_{0};
  mutable std::atomic<std::uint64_t> oom_draws_{0};
};

}  // namespace kf::sim

#endif  // KF_SIM_FAULT_INJECTOR_H_
