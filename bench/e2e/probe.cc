#include "bench/e2e/probe.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <condition_variable>
#include <map>
#include <mutex>
#include <thread>

#include "bench/e2e/layers.h"
#include "bench/e2e/stats.h"

namespace kf::bench::e2e {

namespace {

// Median seconds of each part, in ProbePart bit order, on the reference
// machine (a 4-vCPU KVM guest on an Intel Xeon Sapphire Rapids host) when
// nothing else loaded it.
constexpr std::array<double, 5> kReferenceS = {2.3e-3, 0.72e-3, 1.8e-3, 2.65e-3, 2.5e-3};

constexpr int kHandoffRoundTrips = 200;

// Sorts a copy of `keys` in `scratch`, which is kept between samples so the
// sort does not time page faults.
std::uint64_t SortedSum(const std::vector<std::int64_t>& keys,
                        std::vector<std::int64_t>& scratch) {
  scratch = keys;
  std::sort(scratch.begin(), scratch.end());
  return static_cast<std::uint64_t>(scratch.front()) + static_cast<std::uint64_t>(scratch.back());
}

template <typename Fn>
double Time(Fn&& fn) {
  const auto start = Clock::now();
  fn();
  return SecondsBetween(start, Clock::now());
}

// Round trips between this thread and a helper, each a wake-up of the other
// thread through a condition variable, as a query handed from a client to a
// scheduler worker and back makes.
double TimeHandoffs() {
  std::mutex mutex;
  std::condition_variable turned;
  bool helper_turn = false;
  std::thread helper([&] {
    for (int i = 0; i < kHandoffRoundTrips; ++i) {
      std::unique_lock lock(mutex);
      turned.wait(lock, [&] { return helper_turn; });
      helper_turn = false;
      turned.notify_all();
    }
  });
  const double seconds = Time([&] {
    for (int i = 0; i < kHandoffRoundTrips; ++i) {
      std::unique_lock lock(mutex);
      helper_turn = true;
      turned.notify_all();
      turned.wait(lock, [&] { return !helper_turn; });
    }
  });
  helper.join();
  return seconds;
}

}  // namespace

MachineProbe::MachineProbe(unsigned parts)
    : parts_(parts),
      keys_(std::size_t{1} << 15),
      scratch_{keys_, keys_},
      stream_(std::size_t{1} << 20, 1) {
  std::uint64_t x = 0x243f6a8885a308d3ULL;
  for (std::int64_t& key : keys_) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    key = static_cast<std::int64_t>(x >> 1);
  }
}

void MachineProbe::Sample() {
  // Unsigned, so the sums wrap instead of overflowing.
  std::uint64_t sink = 0;
  auto run = [&](ProbePart part, auto&& fn) {
    if (parts_ & part) seconds_[std::countr_zero(static_cast<unsigned>(part))].push_back(fn());
  };
  run(kProbeSort, [&] { return Time([&] { sink += SortedSum(keys_, scratch_[0]); }); });
  run(kProbeStream, [&] {
    return Time([&] {
      // One load per 64-byte line.
      for (std::size_t i = 0; i < stream_.size(); i += 8) sink += stream_[i];
    });
  });
  run(kProbeMap, [&] {
    return Time([&] {
      std::map<std::int64_t, std::int64_t> map;
      for (std::size_t i = 0; i < 8192; ++i) map.emplace(keys_[i], keys_[i]);
      sink += static_cast<std::uint64_t>(map.begin()->second);
    });
  });
  run(kProbePair, [&] {
    std::uint64_t left = 0;
    std::uint64_t right = 0;
    const double seconds = Time([&] {
      std::thread a([&] { left = SortedSum(keys_, scratch_[0]); });
      std::thread b([&] { right = SortedSum(keys_, scratch_[1]); });
      a.join();
      b.join();
    });
    sink += left + right;
    return seconds;
  });
  run(kProbeHandoff, TimeHandoffs);
  sink_ += sink;
  ++samples_;
}

void MachineProbe::Reset() {
  for (std::vector<double>& part : seconds_) part.clear();
  samples_ = 0;
}

double MachineProbe::Slowdown() const {
  static_assert(kReferenceS.size() == kParts);
  if (samples_ == 0) return 1.0;
  double log_sum = 0.0;
  int parts = 0;
  for (std::size_t p = 0; p < kParts; ++p) {
    if ((parts_ & (1u << p)) == 0) continue;
    log_sum += std::log(Percentile(seconds_[p], 50) / kReferenceS[p]);
    ++parts;
  }
  return parts > 0 ? std::exp(log_sum / parts) : 1.0;
}

}  // namespace kf::bench::e2e
