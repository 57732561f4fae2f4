// The Stream Pool runtime (paper Section IV-A, Table IV).
//
// The paper builds a software runtime manager on top of CUDA streams so that
// kernel fission does not burden the programmer with low-level stream
// management. This is that library, targeting the simulated device: a pool of
// in-order command streams with availability tracking, command assignment,
// point-to-point synchronization between chosen streams, bulk start/wait, and
// immediate termination.
//
//   API (Table IV)            This implementation
//   ------------------------  ------------------------------------------
//   getAvailableStream()      GetAvailableStream()
//   setStreamCommand()        SetStreamCommand(stream, command)
//   startStreams()            StartStreams()  — runs the timeline
//   waitAll()                 WaitAll()       — returns TimelineStats
//   selectWait(a, b)          SelectWait(a, b) — a waits for b's last command
//   terminate()               Terminate()
//
// Commands are timing specs only: the data work of a simulated kernel runs
// on the host before the pool is driven (DESIGN.md §6). The pool records
// nothing: a caller that observes the run reads the stats WaitAll() returns.
// QueryExecutor does not drive a pool; it builds its timeline directly.
#ifndef KF_STREAM_STREAM_POOL_H_
#define KF_STREAM_STREAM_POOL_H_

#include <optional>
#include <vector>

#include "sim/device_simulator.h"
#include "sim/timeline.h"

namespace kf::stream {

using StreamHandle = int;

class StreamPool {
 public:
  // `stream_count` defaults to 3: enough to saturate a device with two copy
  // engines plus compute (paper: "at least three streams are needed to fully
  // utilize its concurrency capacity"). `injector` (optional) injects faults
  // into the simulated run; per-command outcomes surface through WaitAll().
  explicit StreamPool(const sim::DeviceSimulator& device, int stream_count = 3,
                      const sim::FaultInjector* injector = nullptr);

  int stream_count() const { return static_cast<int>(streams_.size()); }

  // Returns a stream with the fewest queued commands, marking it in use.
  StreamHandle GetAvailableStream();

  // Appends `command` to `stream`'s in-order queue. Returns a command id
  // usable with SelectWait/dependencies. Throws kf::InvalidArgument on a
  // command the timeline rejects (negative duration, unknown dependency).
  sim::CommandId SetStreamCommand(StreamHandle stream, sim::CommandSpec command);

  // Makes the *next* command issued to `waiter` wait until the most recently
  // issued command of `signaler` has completed (point-to-point sync).
  void SelectWait(StreamHandle waiter, StreamHandle signaler);

  // Simulates the queued commands.
  void StartStreams();

  // Blocks until execution finishes (simulation is synchronous, so this
  // just returns the stats). Throws if StartStreams was not called. The
  // stats carry per-command outcomes: with a fault injector attached,
  // callers must check `stats.AllOk()` / `stats.commands[id].ok` instead of
  // assuming success.
  const sim::TimelineStats& WaitAll() const;

  // Command ids (as returned by SetStreamCommand) that failed in the last
  // run. Empty before StartStreams and on fault-free runs.
  std::vector<sim::CommandId> FailedCommands() const;

  // Command ids that completed "successfully" but delivered wrong bytes in
  // the last run (silent corruption). Ground truth from the injector — the
  // integrity layer must *detect* these via checksums/audits on its own.
  std::vector<sim::CommandId> CorruptedCommands() const;

  // Ends execution immediately: drops all queued commands and results.
  void Terminate();

  bool started() const { return stats_.has_value(); }

 private:
  struct StreamState {
    std::vector<sim::CommandId> issued;           // global ids, issue order
    std::vector<sim::CommandId> pending_waits;    // deps for next command
    bool in_use = false;
  };

  const sim::DeviceSimulator& device_;
  const sim::FaultInjector* injector_;
  std::vector<StreamState> streams_;
  sim::Timeline timeline_;  // every command set, in issue order
  std::optional<sim::TimelineStats> stats_;
};

}  // namespace kf::stream

#endif  // KF_STREAM_STREAM_POOL_H_
