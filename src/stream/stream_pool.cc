#include "stream/stream_pool.h"

#include <limits>
#include <utility>

#include "common/error.h"

namespace kf::stream {

StreamPool::StreamPool(const sim::DeviceSimulator& device, int stream_count,
                       const sim::FaultInjector* injector)
    : device_(device), injector_(injector), timeline_(device.NewTimeline()) {
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
  const sim::CommandId id = timeline_.AddCommand(stream, std::move(command));
  st.pending_waits.clear();
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
  stats_ = timeline_.Run(injector_);
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
  timeline_ = device_.NewTimeline();
  stats_.reset();
}

}  // namespace kf::stream
