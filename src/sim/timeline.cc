#include "sim/timeline.h"

#include <algorithm>
#include <limits>
#include <unordered_map>

#include "common/error.h"
#include "sim/fault_injector.h"

namespace kf::sim {

namespace {
constexpr SimTime kInfinity = std::numeric_limits<SimTime>::infinity();
}  // namespace

const char* ToString(CommandKind kind) {
  switch (kind) {
    case CommandKind::kCopyH2D: return "H2D";
    case CommandKind::kCopyD2H: return "D2H";
    case CommandKind::kKernel: return "KERNEL";
    case CommandKind::kHostCompute: return "HOST";
  }
  return "?";
}

const char* ToString(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone: return "none";
    case FaultKind::kCopyTransient: return "copy";
    case FaultKind::kKernelFault: return "kernel";
    case FaultKind::kDeviceOom: return "oom";
    case FaultKind::kStreamStall: return "stall";
  }
  return "?";
}

CommandId Timeline::AddCommand(StreamId stream, CommandSpec spec) {
  KF_REQUIRE_AS(::kf::InvalidArgument, stream >= 0)
      << "negative stream id " << stream;
  if (spec.kind == CommandKind::kKernel) {
    KF_REQUIRE_AS(::kf::InvalidArgument, spec.solo_duration >= 0 && spec.demand > 0)
        << "kernel '" << spec.label << "' needs solo_duration/demand";
  } else {
    KF_REQUIRE_AS(::kf::InvalidArgument, spec.duration >= 0)
        << "command '" << spec.label << "' negative duration";
  }
  for (CommandId dep : spec.dependencies) {
    KF_REQUIRE_AS(::kf::InvalidArgument, dep < commands_.size())
        << "command '" << spec.label << "' depends on unknown command " << dep;
  }
  commands_.push_back(Entry{std::move(spec), stream});
  return commands_.size() - 1;
}

TimelineStats Timeline::Run(const FaultInjector* injector) const {
  const std::size_t n = commands_.size();
  TimelineStats stats;
  stats.commands.resize(n);
  if (n == 0) return stats;

  // Per-command fault decisions, drawn up front for this run's epoch. A
  // stall stretches the command's duration; a failing fault lets the command
  // occupy its engine normally and marks it failed at completion.
  std::vector<FaultDecision> decisions(n);
  if (injector != nullptr) {
    const std::uint64_t epoch = injector->NextEpoch();
    for (CommandId id = 0; id < n; ++id) {
      decisions[id] = injector->Decide(epoch, id, commands_[id].spec.kind);
    }
  }
  auto effective_duration = [&](CommandId id) {
    const CommandSpec& spec = commands_[id].spec;
    const SimTime base =
        spec.kind == CommandKind::kKernel ? spec.solo_duration : spec.duration;
    return base * decisions[id].duration_multiplier;
  };

  // Per-command bookkeeping.
  std::vector<bool> started(n, false);
  std::vector<bool> finished(n, false);
  std::vector<SimTime> end_time(n, kInfinity);
  std::vector<SimTime> ready_time(n, 0.0);

  // Per-stream predecessor (in-order execution within a stream).
  std::unordered_map<StreamId, CommandId> last_in_stream;
  std::vector<std::ptrdiff_t> predecessor(n, -1);
  for (CommandId id = 0; id < n; ++id) {
    auto it = last_in_stream.find(commands_[id].stream);
    if (it != last_in_stream.end()) predecessor[id] = static_cast<std::ptrdiff_t>(it->second);
    last_in_stream[commands_[id].stream] = id;
  }

  // Exclusive engines: H2D DMA, D2H DMA, host CPU.
  struct ExclusiveEngine {
    std::ptrdiff_t running = -1;
    SimTime busy_accum = 0.0;
  };
  ExclusiveEngine h2d, d2h, host;
  auto engine_for = [&](CommandKind kind) -> ExclusiveEngine* {
    switch (kind) {
      case CommandKind::kCopyH2D: return &h2d;
      case CommandKind::kCopyD2H: return &d2h;
      case CommandKind::kHostCompute: return &host;
      default: return nullptr;
    }
  };

  // Compute engine: processor sharing over co-resident kernels. `remaining`
  // is measured in "solo seconds" (the kernel finishes when it reaches 0);
  // `rate` is the fraction of solo speed currently granted.
  struct ActiveKernel {
    CommandId id;
    SimTime remaining;
    double rate = 1.0;
  };
  std::vector<ActiveKernel> active_kernels;

  auto recompute_rates = [&] {
    if (active_kernels.empty()) return;
    double total_demand = 0.0;
    for (const auto& k : active_kernels) total_demand += commands_[k.id].spec.demand;
    const double share = std::min(1.0, 1.0 / total_demand);
    const double penalty =
        1.0 / (1.0 + kCoResidencyPenalty * static_cast<double>(active_kernels.size() - 1));
    for (auto& k : active_kernels) k.rate = share * penalty;
  };

  SimTime now = 0.0;
  std::size_t finished_count = 0;

  auto is_ready = [&](CommandId id) {
    if (started[id]) return false;
    if (predecessor[id] >= 0 && !finished[static_cast<std::size_t>(predecessor[id])]) {
      return false;
    }
    for (CommandId dep : commands_[id].spec.dependencies) {
      if (!finished[dep]) return false;
    }
    return true;
  };

  auto compute_ready_time = [&](CommandId id) {
    SimTime t = 0.0;
    if (predecessor[id] >= 0) {
      t = std::max(t, end_time[static_cast<std::size_t>(predecessor[id])]);
    }
    for (CommandId dep : commands_[id].spec.dependencies) {
      t = std::max(t, end_time[dep]);
    }
    return t;
  };

  while (finished_count < n) {
    // --- Start everything that can start at `now`. -------------------------
    bool started_any = true;
    while (started_any) {
      started_any = false;
      // Exclusive engines pick the ready command with the earliest ready time
      // (ties broken by issue order) — FIFO per engine, like the DMA queues.
      for (CommandKind kind : {CommandKind::kCopyH2D, CommandKind::kCopyD2H,
                               CommandKind::kHostCompute}) {
        ExclusiveEngine* engine = engine_for(kind);
        if (engine->running >= 0) continue;
        std::ptrdiff_t best = -1;
        SimTime best_ready = kInfinity;
        for (CommandId id = 0; id < n; ++id) {
          if (commands_[id].spec.kind != kind || !is_ready(id)) continue;
          const SimTime r = compute_ready_time(id);
          if (r < best_ready) {
            best_ready = r;
            best = static_cast<std::ptrdiff_t>(id);
          }
        }
        if (best >= 0) {
          const auto id = static_cast<CommandId>(best);
          started[id] = true;
          engine->running = best;
          stats.commands[id].ready = best_ready;
          stats.commands[id].start = now;
          end_time[id] = now + effective_duration(id);
          started_any = true;
        }
      }
      // Compute engine: admit ready kernels up to the co-residency cap.
      while (static_cast<int>(active_kernels.size()) < spec_.max_concurrent_kernels) {
        std::ptrdiff_t pick = -1;
        SimTime pick_ready = kInfinity;
        for (CommandId id = 0; id < n; ++id) {
          if (commands_[id].spec.kind != CommandKind::kKernel || !is_ready(id)) continue;
          const SimTime r = compute_ready_time(id);
          if (r < pick_ready) {
            pick_ready = r;
            pick = static_cast<std::ptrdiff_t>(id);
          }
        }
        if (pick < 0) break;
        const auto id = static_cast<CommandId>(pick);
        started[id] = true;
        stats.commands[id].ready = pick_ready;
        stats.commands[id].start = now;
        active_kernels.push_back(
            ActiveKernel{id, std::max<SimTime>(effective_duration(id), 0.0)});
        started_any = true;
      }
      if (started_any) recompute_rates();
    }

    if (finished_count == n) break;

    // --- Find the next completion event. -----------------------------------
    SimTime next_event = kInfinity;
    for (const ExclusiveEngine* engine : {&h2d, &d2h, &host}) {
      if (engine->running >= 0) {
        next_event = std::min(next_event, end_time[static_cast<std::size_t>(engine->running)]);
      }
    }
    for (const auto& k : active_kernels) {
      next_event = std::min(next_event, now + k.remaining / k.rate);
    }
    KF_REQUIRE(next_event < kInfinity)
        << "timeline deadlock: " << (n - finished_count)
        << " commands cannot start (dependency cycle?)";

    const SimTime dt = next_event - now;

    // --- Advance clocks and engine busy accounting. ------------------------
    for (ExclusiveEngine* engine : {&h2d, &d2h, &host}) {
      if (engine->running >= 0) engine->busy_accum += dt;
    }
    if (!active_kernels.empty()) stats.compute_busy += dt;
    for (auto& k : active_kernels) k.remaining -= k.rate * dt;
    now = next_event;

    // --- Retire completed commands. ----------------------------------------
    for (ExclusiveEngine* engine : {&h2d, &d2h, &host}) {
      if (engine->running >= 0) {
        const auto id = static_cast<CommandId>(engine->running);
        if (end_time[id] <= now + 1e-12) {
          finished[id] = true;
          ++finished_count;
          stats.commands[id].end = end_time[id];
          engine->running = -1;
        }
      }
    }
    for (std::size_t i = active_kernels.size(); i-- > 0;) {
      if (active_kernels[i].remaining <= 1e-12) {
        const CommandId id = active_kernels[i].id;
        finished[id] = true;
        ++finished_count;
        end_time[id] = now;
        stats.commands[id].end = now;
        active_kernels.erase(active_kernels.begin() + static_cast<std::ptrdiff_t>(i));
      }
    }
    recompute_rates();
  }

  stats.makespan = now;
  stats.h2d_busy = h2d.busy_accum;
  stats.d2h_busy = d2h.busy_accum;
  stats.host_busy = host.busy_accum;
  for (CommandId id = 0; id < n; ++id) {
    stats.commands[id].fault = decisions[id].fault;
    stats.commands[id].ok = decisions[id].fault == FaultKind::kNone ||
                            decisions[id].fault == FaultKind::kStreamStall;
    if (!stats.commands[id].ok) ++stats.fault_count;
    if (decisions[id].duration_multiplier > 1.0) ++stats.stall_count;
    stats.commands[id].corrupted = decisions[id].corrupt && stats.commands[id].ok;
    if (stats.commands[id].corrupted) ++stats.corrupted_count;
  }
  return stats;
}

}  // namespace kf::sim
