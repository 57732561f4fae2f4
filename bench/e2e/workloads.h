// The four end-to-end workloads (see README.md for why each was chosen).
#ifndef KF_BENCH_E2E_WORKLOADS_H_
#define KF_BENCH_E2E_WORKLOADS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "bench/e2e/layers.h"
#include "bench/e2e/probe.h"
#include "obs/tracer.h"

namespace kf::bench::e2e {

struct WorkloadConfig {
  std::uint64_t seed = 1;
  bool smoke = false;  // tiny sizes for the smoke tests
};

class Workload {
 public:
  virtual ~Workload() = default;

  // Data generation, oracles, construction, and one warm-up pass per query
  // template. Throws kf::Error when the warm-up fails its oracle.
  virtual void Setup() = 0;

  // Measures whole rounds until `seconds` have elapsed (at least one),
  // sampling `probe` after each. `tracer` attaches the program's tracer;
  // `spans` records the harness's spans around each call it makes. Both may
  // be null.
  virtual void Run(double seconds, obs::Tracer* tracer, SpanRecorder* spans,
                   MachineProbe& probe, PhaseResult& out) = 0;

  // Replays a deterministic sample of at most 500 items of the last Run
  // (every k-th, or the first where items rotate through a few kinds),
  // stopping early once `budget_s` has elapsed.
  virtual void Replay(double budget_s, SpanRecorder& spans, ReplayResult& out) = 0;

  // What one latency sample covers, for the printed report.
  virtual const char* latency_definition() const = 0;

  // The MachineProbe parts (ProbePart bits) that match what the measured
  // work waits on, so that the probe's slowdown follows the workload's.
  virtual unsigned probe_parts() const = 0;
};

const std::vector<std::string>& WorkloadNames();

// nullptr for an unknown name.
std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       const WorkloadConfig& config);

}  // namespace kf::bench::e2e

#endif  // KF_BENCH_E2E_WORKLOADS_H_
