// How fast the machine runs right now, measured with fixed host work that no
// code of the program runs.
//
// The benchmark runs on shared machines whose speed drifts by tens of
// percent over minutes as other tenants come and go. A probe sampled between
// the timed rounds of a run measures that drift, so wall metrics can be
// reported at the speed of a reference machine: a change to the program
// moves them, a slow period of the machine does not.
#ifndef KF_BENCH_E2E_PROBE_H_
#define KF_BENCH_E2E_PROBE_H_

#include <array>
#include <cstdint>
#include <vector>

namespace kf::bench::e2e {

// The parts of the probe, as bits. A workload's slowdown is taken over the
// parts that match what its measured work waits on.
enum ProbePart : unsigned {
  kProbeSort = 1u << 0,     // a sort of 32Ki int64 keys: compute and cache
  kProbeStream = 1u << 1,   // a strided pass over 8 MiB: beyond per-core caches
  kProbeMap = 1u << 2,      // 8Ki std::map inserts: allocation, pointer chasing
  kProbePair = 1u << 3,     // the sort on two threads at once: two busy cores
  kProbeHandoff = 1u << 4,  // 200 round trips between two threads: wake-ups
};
constexpr unsigned kProbeOneThread = kProbeSort | kProbeStream | kProbeMap;
constexpr unsigned kProbeTwoThreads = kProbeOneThread | kProbePair;

class MachineProbe {
 public:
  // `parts`: the ProbePart bits to run and to average over.
  explicit MachineProbe(unsigned parts);

  // Runs each selected part once and records how long it took; about 10 ms
  // for all five. The probe's buffers add about 9 MB to the process's
  // resident set.
  void Sample();

  // How much slower than the reference machine this one ran over the
  // samples taken: the geometric mean over the selected parts of each part's
  // median time over its reference time. 1 on the reference machine when
  // quiet, 1.25 when it runs at 80% of that speed. 1 before any sample.
  double Slowdown() const;

  std::size_t samples() const { return samples_; }

  // Drops the samples taken so far, so the next phase is measured on its own.
  void Reset();

 private:
  static constexpr std::size_t kParts = 5;

  unsigned parts_;
  std::vector<std::int64_t> keys_;
  std::array<std::vector<std::int64_t>, 2> scratch_;  // one per sorting thread
  std::vector<std::uint64_t> stream_;
  std::array<std::vector<double>, kParts> seconds_;  // per part, per sample
  std::size_t samples_ = 0;
  std::uint64_t sink_ = 0;  // keeps the probe's work observable
};

}  // namespace kf::bench::e2e

#endif  // KF_BENCH_E2E_PROBE_H_
