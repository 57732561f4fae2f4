// Discrete-event execution timeline for the simulated device.
//
// The timeline models what the CUDA driver + hardware do with a set of
// streams on a Fermi-class part:
//   * commands within one stream execute in order;
//   * commands in different streams may overlap, subject to engine resources;
//   * there is one H2D DMA engine, one D2H DMA engine, and the compute
//     engine, so one upload, one download, and kernel execution can proceed
//     simultaneously (the paper's three-stream fission pipeline, Fig 13);
//   * up to `max_concurrent_kernels` kernels may be co-resident on the
//     compute engine, sharing machine throughput in proportion to the demand
//     computed by the kernel cost model (this reproduces the concurrent-
//     kernel study of Fig 12);
//   * host-side work (the CPU gather required after fission, Fig 15) runs on
//     a separate host engine that overlaps with everything on the device.
//
// Cross-stream ordering is expressed with explicit dependencies, mirroring
// cudaStreamWaitEvent / the Stream Pool's selectWait.
#ifndef KF_SIM_TIMELINE_H_
#define KF_SIM_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/units.h"
#include "sim/device_spec.h"

namespace kf::sim {

using StreamId = int;
using CommandId = std::size_t;

enum class CommandKind { kCopyH2D, kCopyD2H, kKernel, kHostCompute };

const char* ToString(CommandKind kind);

// What the fault injector did to a command (see sim/fault_injector.h).
// `kStreamStall` is a latency spike only — the command still succeeds;
// the other non-none kinds fail the command.
enum class FaultKind : std::uint8_t {
  kNone = 0,
  kCopyTransient,  // transient copy-engine error (H2D/D2H)
  kKernelFault,    // kernel/ECC fault on the compute engine
  kDeviceOom,      // injected allocation failure on reservation
  kStreamStall,    // latency spike; command completes successfully
};

const char* ToString(FaultKind kind);

class FaultInjector;

struct CommandSpec {
  CommandKind kind = CommandKind::kKernel;
  std::string label;

  // Copies and host work: fixed duration (seconds). Produced by PcieModel /
  // host cost models.
  SimTime duration = 0.0;

  // Kernels: runtime when alone on the device and the fraction of machine
  // throughput the launch can absorb. Produced by KernelCostModel.
  SimTime solo_duration = 0.0;
  double demand = 1.0;

  // Commands (from any stream) that must complete before this one starts.
  std::vector<CommandId> dependencies;
};

// Per-command result: timing plus outcome. With no fault injector attached
// every command succeeds (`ok`, `fault == kNone`) and this degenerates to
// the old timing-only record.
struct CommandTiming {
  SimTime ready = 0.0;  // when stream order + dependencies were satisfied
  SimTime start = 0.0;
  SimTime end = 0.0;
  bool ok = true;                       // false: command failed (transient fault)
  FaultKind fault = FaultKind::kNone;   // kStreamStall keeps ok == true
  // Command succeeded (ok == true) but delivered wrong bytes. Invisible to
  // the schedule — only the integrity layer's checksums/audits can react.
  bool corrupted = false;
};

struct TimelineStats {
  SimTime makespan = 0.0;
  // Wall time during which each engine had at least one command in flight.
  SimTime h2d_busy = 0.0;
  SimTime d2h_busy = 0.0;
  SimTime compute_busy = 0.0;
  SimTime host_busy = 0.0;
  std::size_t fault_count = 0;      // commands that failed (ok == false)
  std::size_t stall_count = 0;      // commands that hit a latency spike
  std::size_t corrupted_count = 0;  // ok commands with silently-wrong bytes
  std::vector<CommandTiming> commands;

  bool AllOk() const { return fault_count == 0; }
};

// A single-use builder/executor: add commands to streams, then Run().
class Timeline {
 public:
  explicit Timeline(const DeviceSpec& spec) : spec_(spec) {}

  // Appends a command to `stream` (created on first use) and returns its id,
  // usable as a dependency for later commands in any stream.
  CommandId AddCommand(StreamId stream, CommandSpec spec);

  std::size_t command_count() const { return commands_.size(); }
  const CommandSpec& command(CommandId id) const { return commands_[id].spec; }
  StreamId stream(CommandId id) const { return commands_[id].stream; }

  // Runs the simulation to completion and returns per-command timings and
  // outcomes. `injector` (nullptr: fault-free) is consulted once per command,
  // under a fresh epoch per call. A failed command still occupies its engine
  // for its (possibly stalled) duration — the fault is detected at
  // completion, as with a CUDA sync — and its dependents still run;
  // re-issuing failed work is the caller's job (the executor retries at
  // fission-segment granularity). Throws kf::Error on dependency deadlock.
  TimelineStats Run(const FaultInjector* injector = nullptr) const;

 private:
  struct Entry {
    CommandSpec spec;
    StreamId stream;
  };

  // Extra throughput lost per additional co-resident kernel (scheduling and
  // cache interference); calibrated so that two saturating kernels run
  // slightly worse concurrently than back-to-back, as in Fig 12.
  static constexpr double kCoResidencyPenalty = 0.06;

  // By value: a Timeline outlives temporaries like
  // `Timeline(DeviceSpec::TeslaC2070())`, so a reference would dangle.
  DeviceSpec spec_;
  std::vector<Entry> commands_;
};

}  // namespace kf::sim

#endif  // KF_SIM_TIMELINE_H_
