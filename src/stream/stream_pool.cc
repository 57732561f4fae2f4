#include "stream/stream_pool.h"

#include <array>
#include <cstdint>
#include <limits>
#include <utility>

#include "common/error.h"

namespace kf::stream {

StreamPool::StreamPool(const sim::DeviceSimulator& device, int stream_count,
                       obs::MetricsRegistry* metrics,
                       const sim::FaultInjector* injector)
    : device_(device), metrics_(metrics), injector_(injector) {
  KF_REQUIRE(stream_count > 0) << "stream pool needs at least one stream";
  streams_.resize(static_cast<std::size_t>(stream_count));
}

StreamHandle StreamPool::GetAvailableStream() {
  // Prefer an unused stream; otherwise the one with the shortest queue.
  int best = 0;
  std::size_t best_depth = std::numeric_limits<std::size_t>::max();
  for (int s = 0; s < stream_count(); ++s) {
    const auto& st = streams_[static_cast<std::size_t>(s)];
    if (!st.in_use) {
      streams_[static_cast<std::size_t>(s)].in_use = true;
      return s;
    }
    if (st.issued.size() < best_depth) {
      best_depth = st.issued.size();
      best = s;
    }
  }
  return best;
}

sim::CommandId StreamPool::SetStreamCommand(StreamHandle stream,
                                            sim::CommandSpec command) {
  KF_REQUIRE(stream >= 0 && stream < stream_count()) << "bad stream handle " << stream;
  KF_REQUIRE(!started()) << "pool already started; Terminate() before reuse";
  auto& st = streams_[static_cast<std::size_t>(stream)];
  st.in_use = true;
  // Fold in any pending point-to-point waits registered via SelectWait.
  auto& deps = command.dependencies;
  deps.insert(deps.end(), st.pending_waits.begin(), st.pending_waits.end());
  st.pending_waits.clear();

  const sim::CommandId id = commands_.size();
  commands_.push_back(std::move(command));
  command_stream_.push_back(stream);
  st.issued.push_back(id);
  return id;
}

void StreamPool::SelectWait(StreamHandle waiter, StreamHandle signaler) {
  KF_REQUIRE(waiter >= 0 && waiter < stream_count()) << "bad waiter handle " << waiter;
  KF_REQUIRE(signaler >= 0 && signaler < stream_count())
      << "bad signaler handle " << signaler;
  KF_REQUIRE(waiter != signaler) << "a stream cannot wait on itself";
  const auto& sig = streams_[static_cast<std::size_t>(signaler)];
  KF_REQUIRE(!sig.issued.empty())
      << "selectWait: signaling stream " << signaler << " has no commands";
  streams_[static_cast<std::size_t>(waiter)].pending_waits.push_back(sig.issued.back());
}

void StreamPool::StartStreams() {
  KF_REQUIRE(!started()) << "pool already started";
  sim::Timeline timeline = device_.NewTimeline();
  timeline.set_fault_injector(injector_);
  constexpr auto kKinds = static_cast<std::size_t>(sim::CommandKind::kHostCompute) + 1;
  std::array<std::uint64_t, kKinds> kind_counts{};  // by sim::CommandKind
  for (std::size_t i = 0; i < commands_.size(); ++i) {
    ++kind_counts[static_cast<std::size_t>(commands_[i].kind)];
    timeline.AddCommand(command_stream_[i], commands_[i]);
  }
  stats_ = timeline.Run();

  // Record the run into the registry: command mix, simulated makespan, and
  // how busy each hardware engine was (gauges hold the most recent run).
  // Devices belonging to a DeviceGroup carry an instance label; their pool
  // series gain a `device` label so per-device utilization stays separable.
  // Standalone devices keep the original unlabeled series.
  obs::MetricsRegistry& m =
      metrics_ != nullptr ? *metrics_ : obs::MetricsRegistry::Default();
  obs::Labels device_labels;
  if (!device_.instance_label().empty()) {
    device_labels.emplace_back("device", device_.instance_label());
  }
  auto with_device = [&](obs::Labels labels) {
    labels.insert(labels.end(), device_labels.begin(), device_labels.end());
    return labels;
  };
  m.GetCounter("stream_pool.runs", device_labels).Increment();
  for (std::size_t k = 0; k < kind_counts.size(); ++k) {
    if (kind_counts[k] == 0) continue;
    const char* kind = sim::ToString(static_cast<sim::CommandKind>(k));
    m.GetCounter("stream_pool.commands", with_device({{"kind", kind}}))
        .Increment(kind_counts[k]);
  }
  m.GetHistogram("stream_pool.makespan_seconds", device_labels)
      .Record(stats_->makespan);
  m.GetGauge("stream_pool.engine_busy_seconds", with_device({{"engine", "h2d"}}))
      .Set(stats_->h2d_busy);
  m.GetGauge("stream_pool.engine_busy_seconds", with_device({{"engine", "d2h"}}))
      .Set(stats_->d2h_busy);
  m.GetGauge("stream_pool.engine_busy_seconds",
             with_device({{"engine", "compute"}}))
      .Set(stats_->compute_busy);
  m.GetGauge("stream_pool.engine_busy_seconds", with_device({{"engine", "host"}}))
      .Set(stats_->host_busy);
  if (stats_->fault_count > 0) {
    m.GetCounter("stream_pool.faulted_commands", device_labels)
        .Increment(stats_->fault_count);
  }
  if (stats_->stall_count > 0) {
    m.GetCounter("stream_pool.stalled_commands", device_labels)
        .Increment(stats_->stall_count);
  }
  if (stats_->corrupted_count > 0) {
    m.GetCounter("stream_pool.corrupted_commands", device_labels)
        .Increment(stats_->corrupted_count);
  }
}

const sim::TimelineStats& StreamPool::WaitAll() const {
  KF_REQUIRE(started()) << "waitAll before startStreams";
  return *stats_;
}

std::vector<sim::CommandId> StreamPool::FailedCommands() const {
  std::vector<sim::CommandId> failed;
  if (!stats_.has_value()) return failed;
  for (sim::CommandId id = 0; id < stats_->commands.size(); ++id) {
    if (!stats_->commands[id].ok) failed.push_back(id);
  }
  return failed;
}

std::vector<sim::CommandId> StreamPool::CorruptedCommands() const {
  std::vector<sim::CommandId> corrupted;
  if (!stats_.has_value()) return corrupted;
  for (sim::CommandId id = 0; id < stats_->commands.size(); ++id) {
    if (stats_->commands[id].corrupted) corrupted.push_back(id);
  }
  return corrupted;
}

void StreamPool::Terminate() {
  for (auto& st : streams_) {
    st.issued.clear();
    st.pending_waits.clear();
    st.in_use = false;
  }
  commands_.clear();
  command_stream_.clear();
  stats_.reset();
}

}  // namespace kf::stream
