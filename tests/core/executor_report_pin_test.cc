// Pins every ExecutionReport the executor produces over a grid of random
// queries, strategies and side-channel arms.
//
// Each (arm, strategy) pair folds the reports of a query sequence into one
// digest: every scalar report field, the per-cluster timings, the timeline
// scalars and every command's ready/start/end/ok/fault/corrupted, the audit
// digests, and ChecksumTable of every sink. Times enter rounded to 12
// significant digits; counts enter exactly. A run that throws folds its
// error code instead. The arms reach every branch of a run: capacity
// spills and out-of-core segments, retries with backoff, degradation to the
// host, detected and silent corruption, sampled audits, calibrated host
// placement, force_host and timing-only estimates. Every sequence runs with
// and without a tracer, and the two digests must agree: tracing observes a
// run, it never changes one.
//
// Two more digests per pair pin what the runs record. The registry digest is
// the call's private registry (`ToJson().Dump()`), equal traced or not; the
// trace digest folds every run's `ToJson(false)` tree of the traced call.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <ios>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/calibration.h"
#include "core/integrity.h"
#include "core/query_executor.h"
#include "core/select_chain.h"
#include "obs/json.h"
#include "obs/tracer.h"
#include "relational/operators.h"
#include "sim/fault_injector.h"
#include "tests/core/random_graph.h"

namespace kf::core {
namespace {

using relational::Table;

// FNV-1a over a canonical rendering of the fields.
class Digest {
 public:
  void Text(std::string_view text) {
    for (const char c : text) Byte(static_cast<unsigned char>(c));
    Byte(0);
  }
  void Count(std::uint64_t value) { Text(std::to_string(value)); }
  void Time(double value) {
    char buffer[40];
    std::snprintf(buffer, sizeof buffer, "%.12g", value);
    Text(buffer);
  }
  std::uint64_t value() const { return hash_; }

 private:
  void Byte(unsigned char byte) {
    hash_ ^= byte;
    hash_ *= 0x100000001b3ull;
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

void AddReport(Digest& d, const ExecutionReport& r) {
  const sim::TimelineStats& t = r.timeline;
  for (const double time : {t.makespan, t.h2d_busy, t.d2h_busy, t.compute_busy,
                            t.host_busy}) {
    d.Time(time);
  }
  for (const std::size_t count : {t.fault_count, t.stall_count, t.corrupted_count,
                                  t.commands.size()}) {
    d.Count(count);
  }
  for (const sim::CommandTiming& c : t.commands) {
    d.Time(c.ready);
    d.Time(c.start);
    d.Time(c.end);
    d.Count(c.ok);
    d.Count(static_cast<std::uint64_t>(c.fault));
    d.Count(c.corrupted);
  }
  for (const double time : {r.makespan, r.input_output_time, r.round_trip_time,
                            r.compute_time, r.host_gather_time, r.backoff_time,
                            r.integrity_time}) {
    d.Time(time);
  }
  for (const std::uint64_t count :
       {std::uint64_t{r.h2d_bytes}, std::uint64_t{r.d2h_bytes},
        std::uint64_t{r.peak_device_bytes}, std::uint64_t{r.leaked_device_bytes},
        std::uint64_t{r.kernel_launches}, std::uint64_t{r.spill_count},
        std::uint64_t{r.cluster_count}, std::uint64_t{r.fused_cluster_count},
        std::uint64_t{r.fault_count}, std::uint64_t{r.retried_units},
        std::uint64_t{r.retry_attempts}, std::uint64_t{r.degraded_clusters},
        std::uint64_t{r.degraded}, std::uint64_t{r.ran_on_host},
        std::uint64_t{r.host_placed_clusters}, std::uint64_t{r.corrupted_commands},
        std::uint64_t{r.corruption_detected}, std::uint64_t{r.corruption_undetected},
        std::uint64_t{r.corruption_reexecutions}, std::uint64_t{r.audited_clusters},
        std::uint64_t{r.silent_corruption}}) {
    d.Count(count);
  }
  for (const auto& [id, checksum] : r.audit_checksums) {
    d.Count(id);
    d.Count(checksum);
  }
  for (const ExecutionReport::ClusterTiming& timing : r.cluster_timings) {
    d.Text(timing.label);
    d.Time(timing.compute);
    d.Count(timing.launches);
    d.Count(timing.fused);
  }
  for (const auto& [id, table] : r.sink_results) {
    d.Count(id);
    d.Count(ChecksumTable(table));
  }
}

// A query of the grid, with the realized row count of every node (what
// EstimateOnly is given in the timing-only arm).
struct PinQuery {
  RandomQuery query;
  std::map<NodeId, std::uint64_t> realized_rows;
};

PinQuery MakePinQuery(RandomQuery query) {
  PinQuery pin{std::move(query), {}};
  std::map<NodeId, Table> tables;
  for (NodeId id : pin.query.graph.TopologicalOrder()) {
    const OpNode& node = pin.query.graph.node(id);
    if (node.is_source) {
      tables.emplace(id, pin.query.sources.at(id));
    } else {
      const Table* right = node.inputs.size() > 1 ? &tables.at(node.inputs[1]) : nullptr;
      tables.emplace(id, relational::ApplyOperator(node.desc, tables.at(node.inputs[0]),
                                                   right));
      pin.realized_rows[id] = tables.at(id).row_count();
    }
  }
  return pin;
}

// Three branches off one source, of three sizes, joined again at the end:
// the retained intermediates outgrow a small device, so some must spill to
// the host, and which one goes depends on the victim rule.
RandomQuery RetentionQuery(std::size_t rows) {
  using relational::Expr;
  using relational::OperatorDesc;
  RandomQuery q;
  const Table data = MakeUniformInt32Table(rows);
  const NodeId src = q.graph.AddSource("in", data.schema(), rows);
  q.sources.emplace(src, data);
  std::vector<NodeId> branches;
  const double keep[] = {1.0, 0.6, 0.3};
  for (int i = 1; i <= 3; ++i) {
    const NodeId sorted =
        q.graph.AddOperator(OperatorDesc::Sort({0}, "sort" + std::to_string(i)), src);
    const auto bound = static_cast<std::int64_t>(keep[i - 1] * 2147483648.0);
    branches.push_back(q.graph.AddOperator(
        OperatorDesc::Select(Expr::Lt(Expr::FieldRef(0), Expr::Lit(bound)),
                             "sel" + std::to_string(i)),
        sorted));
  }
  const NodeId inner =
      q.graph.AddOperator(OperatorDesc::Union("union_inner"), branches[1], branches[2]);
  q.graph.AddOperator(OperatorDesc::Union("union_outer"), branches[0], inner);
  return q;
}

const std::vector<PinQuery>& Queries() {
  static const std::vector<PinQuery> queries = [] {
    std::vector<PinQuery> out;
    for (std::uint64_t seed : {3u, 8u, 21u}) {
      out.push_back(MakePinQuery(MakeRandomQuery(seed)));
    }
    for (std::uint64_t seed : {2u, 5u}) {
      out.push_back(MakePinQuery(MakeRandomBarrierQuery(seed)));
    }
    out.push_back(MakePinQuery(RetentionQuery(1000)));
    return out;
  }();
  return queries;
}

enum class Arm {
  kPlain,
  kRoundTrip,
  kSmallDevice,
  kFaults,
  kDegrade,
  kVerifiedCorruption,
  kSilentCorruption,
  kCalibrated,
  kForceHost,
  kEstimate,
};

const char* ArmName(Arm arm) {
  switch (arm) {
    case Arm::kPlain: return "plain";
    case Arm::kRoundTrip: return "round_trip";
    case Arm::kSmallDevice: return "small_device";
    case Arm::kFaults: return "faults";
    case Arm::kDegrade: return "degrade";
    case Arm::kVerifiedCorruption: return "verified_corruption";
    case Arm::kSilentCorruption: return "silent_corruption";
    case Arm::kCalibrated: return "calibrated";
    case Arm::kForceHost: return "force_host";
    case Arm::kEstimate: return "estimate";
  }
  return "?";
}

sim::FaultConfig FaultsOf(Arm arm) {
  sim::FaultConfig config;
  config.seed = 17;
  switch (arm) {
    case Arm::kFaults:
      config.copy_fault_rate = 0.2;
      config.kernel_fault_rate = 0.2;
      config.stall_rate = 0.2;
      break;
    case Arm::kDegrade:
      config.kernel_fault_rate = 1.0;
      break;
    case Arm::kVerifiedCorruption:
    case Arm::kSilentCorruption:
      config.corrupt_h2d_rate = 0.15;
      config.corrupt_d2h_rate = 0.15;
      config.corrupt_kernel_rate = 0.15;
      break;
    default:
      break;
  }
  return config;
}

// A device too small for the grid's working sets: intermediates spill and
// large inputs stream through in segments.
sim::DeviceSpec SmallDevice() {
  sim::DeviceSpec spec = sim::DeviceSpec::TinyTestDevice();
  spec.mem_capacity_bytes = 12 * 1024;
  return spec;
}

// The calibrator's believed device: half as fast as the true one, so the
// calibrated model prefers the host.
sim::DeviceSpec PessimisticSpec() {
  sim::DeviceSpec spec;
  spec.sustained_ipc_fraction *= 0.5;
  spec.mem_bandwidth_gbs *= 0.5;
  return spec;
}
sim::PcieConfig PessimisticPcie() {
  sim::PcieConfig pcie;
  pcie.pinned_h2d_gbs *= 0.5;
  pcie.pinned_d2h_gbs *= 0.5;
  pcie.pageable_h2d_gbs *= 0.5;
  pcie.pageable_d2h_gbs *= 0.5;
  return pcie;
}

// Which branches some run of the grid reached.
struct Reached {
  std::size_t spills = 0;
  std::size_t retried_units = 0;
  std::size_t degraded = 0;
  std::size_t undetected = 0;
  std::size_t host_placed = 0;
  std::size_t audited = 0;

  void Note(const ExecutionReport& r) {
    spills += r.spill_count;
    retried_units += r.retried_units;
    degraded += r.degraded ? 1 : 0;
    undetected += r.corruption_undetected;
    host_placed += r.host_placed_clusters;
    audited += r.audited_clusters;
  }
};

struct SequenceDigests {
  std::uint64_t report = 0;
  std::uint64_t registry = 0;
  std::uint64_t trace = 0;  // 0 when untraced
};

// Runs the query sequence of one (arm, strategy) pair twice over — the
// calibrator and the injector carry state from run to run — and digests
// every report, the registry the runs wrote and, traced, every run's tree.
// Device, injector, calibrator and registry are fresh per call, so a traced
// and an untraced call see identical draws.
SequenceDigests SequenceDigest(Arm arm, Strategy strategy, obs::Tracer* tracer,
                               Reached& reached) {
  const sim::DeviceSimulator device(arm == Arm::kSmallDevice ? SmallDevice()
                                                             : sim::DeviceSpec{});
  const QueryExecutor executor(device);
  obs::MetricsRegistry metrics;
  const sim::FaultConfig faults = FaultsOf(arm);
  const sim::FaultInjector injector(faults);
  CostModelCalibrator calibrator(PessimisticSpec(), PessimisticPcie());

  Digest digest;
  std::uint64_t runs = 0;
  for (int round = 0; round < 2; ++round) {
    for (const PinQuery& pin : Queries()) {
      ++runs;
      ExecutorOptions options;
      options.strategy = strategy;
      options.chunk_count = 4;
      options.fission_segments = 4;
      options.metrics = &metrics;
      options.tracer = tracer;
      if (faults.AnyEnabled()) options.fault_injector = &injector;
      if (arm == Arm::kRoundTrip) options.intermediates = IntermediatePolicy::kRoundTrip;
      if (arm == Arm::kDegrade) options.resilience.max_retries = 1;
      if (arm == Arm::kVerifiedCorruption) {
        options.integrity.verify_transfers = true;
        options.integrity.audit_fraction = 0.5;
        options.integrity.audit_seed = 11;
      }
      if (arm == Arm::kCalibrated) options.calibration = &calibrator;
      if (arm == Arm::kForceHost) options.force_host = true;
      try {
        const ExecutionReport report =
            arm == Arm::kEstimate
                ? executor.EstimateOnly(pin.query.graph, pin.realized_rows, options)
                : executor.Execute(pin.query.graph, pin.query.sources, options);
        AddReport(digest, report);
        reached.Note(report);
      } catch (const Error& e) {
        digest.Text("error");
        digest.Count(static_cast<std::uint64_t>(e.code()));
      }
      if (arm == Arm::kCalibrated) {
        digest.Count(calibrator.observations());
        digest.Count(calibrator.epoch());
        digest.Time(calibrator.error());
      }
    }
  }
  SequenceDigests out;
  out.report = digest.value();
  Digest registry;
  registry.Text(metrics.ToJson().Dump());
  out.registry = registry.value();
  if (tracer != nullptr) {
    // The executor allocates query ids 1, 2, ... in run order.
    Digest trace;
    for (std::uint64_t id = 1; id <= runs; ++id) {
      trace.Text(tracer->Snapshot(id).ToJson(false).Dump());
    }
    out.trace = trace.value();
  }
  return out;
}

struct Pin {
  Arm arm;
  // Digests for kSerial, kFused, kFission, kFusedFission.
  std::uint64_t digests[4];
  std::uint64_t registry[4];
  std::uint64_t trace[4];
};

constexpr Pin kPins[] = {
    {Arm::kPlain,
     {0x7fbfa2b73acb79a3ull, 0xcecd8e63b18338dfull,
      0x74068ec7db3edb25ull, 0xcbb70371b4209ef5ull},
     {0xb9f68a96da49a4afull, 0x302a125023058cabull,
      0x8298ec0885f31407ull, 0x690ee631db3d6277ull},
     {0xc95991e5125bbf82ull, 0x15262552c2b18948ull,
      0x276269a16ea11096ull, 0x3a9b2598bd3e383cull}},
    {Arm::kRoundTrip,
     {0xdedd92336ebffe5ull, 0x1f567bc509a09fd5ull,
      0x4023f41d41df8fd5ull, 0xb60415be2414410dull},
     {0x468880719f8ed16dull, 0x810ba85952f38e0ull,
      0xd538884108c82345ull, 0x9adfaf9ee6328592ull},
     {0x2d6dfcde9ed1eae0ull, 0xeb69aa737870b38ull,
      0x76fb41fec40fb22eull, 0x780bd6d314609e3aull}},
    {Arm::kSmallDevice,
     {0xd388979eb748f643ull, 0xddb420a151094a75ull,
      0xe1eb275477f14dafull, 0x98565a497860c02full},
     {0x6bfd476738958efaull, 0xe42b8ba6ac16b872ull,
      0xae86068e3846730full, 0xecb906e78ab216c9ull},
     {0x35847f9058ab935aull, 0x7f80d03007374734ull,
      0x6d9ed634ec483228ull, 0x84ebff4b14191d2aull}},
    {Arm::kFaults,
     {0x92a30fe4121de0adull, 0xad3418822eacfc2dull,
      0xb30bf665897ed20bull, 0xb432daaee23e0857ull},
     {0xfea7e6dbb9b0716aull, 0x282e874c2b936570ull,
      0xac22e56f85999c1ull, 0xb65700e179d14ccfull},
     {0x3c7793dda6659dd9ull, 0xf964c3cf999e2d91ull,
      0x7c8f27319495e19full, 0xb58d706d26fbc6adull}},
    {Arm::kDegrade,
     {0x7cc3ed2933fb1b05ull, 0x44be0430a73df205ull,
      0x89ad562c466881cdull, 0x1c0916bb05ee7ca3ull},
     {0xab07994ae6bf777dull, 0x13d826728107bb0aull,
      0xed8940bf14ed37f7ull, 0x9c0c1ea1d9aa78c5ull},
     {0x82b07616d3174b6ull, 0xb35c36eab43fe348ull,
      0xc6827a47a061de32ull, 0x2d66224bbdaac120ull}},
    {Arm::kVerifiedCorruption,
     {0x2bfe8baa2eafb066ull, 0xf6fd02976f964ab5ull,
      0xc175d83a43601ff4ull, 0xbac7164529459a57ull},
     {0x685ab7532a6393bull, 0x9166be02bd19f9e2ull,
      0xd35f7cec395d6b44ull, 0x6b573a34969fb1ull},
     {0x14ca7a5743ad2e6dull, 0xdf573f74b27f9c8aull,
      0xac32f6e34f6d16c2ull, 0xb0b20e41cdf96baeull}},
    {Arm::kSilentCorruption,
     {0xe3b7ddad59c40db8ull, 0xa47c05341a77a611ull,
      0xf1bc654b22550dcbull, 0x71d1d66591084439ull},
     {0x79018d5ad0d673cdull, 0xcb383fac4d271567ull,
      0x9bb3f8220e673a01ull, 0xb8fd4a279c1ee4e5ull},
     {0x52cdeeb7d96222a4ull, 0x9f644f71d850008dull,
      0xbfa1b05a401a7e23ull, 0xecbef182a9e3aa0dull}},
    {Arm::kCalibrated,
     {0xa36850982e46b5b5ull, 0x90deda3218a07c29ull,
      0xa36850982e46b5b5ull, 0x90deda3218a07c29ull},
     {0xe805d49b4225e02bull, 0x7e33d52a4f9c9397ull,
      0x9f1330657b5c07d0ull, 0xf509ec4de6b79e7bull},
     {0x2ee6356b6c2ac7a6ull, 0x991910c2b2c74c1ull,
      0x644f18a05b672dcaull, 0x832cf4262c57e825ull}},
    {Arm::kForceHost,
     {0x46ecdfe76c44126dull, 0x6c3b465e5a4a7799ull,
      0x46ecdfe76c44126dull, 0x6c3b465e5a4a7799ull},
     {0xec478b48fbe2ab6full, 0x596173e386f5ac23ull,
      0x994d266ee1089f9aull, 0x665b5c2e29681b4bull},
     {0xdc2904458aa51530ull, 0x13caf685c2d1b9b0ull,
      0x38d5c22d89918c8cull, 0xbe6b80f10a32f4f0ull}},
    {Arm::kEstimate,
     {0x2fd5cc4a0fa4d9efull, 0xfe9f856b98e23f07ull,
      0x59067812ff8909e5ull, 0x62bc23cf8745c185ull},
     {0xb9f68a96da49a4afull, 0x302a125023058cabull,
      0x8298ec0885f31407ull, 0x690ee631db3d6277ull},
     {0x1581bc78bbad4a62ull, 0x6105b18f2890c92cull,
      0x67748a48198a2a06ull, 0x8067854905025fecull}},
};

constexpr Strategy kStrategies[] = {Strategy::kSerial, Strategy::kFused,
                                    Strategy::kFission, Strategy::kFusedFission};

TEST(ExecutorReportPin, EveryArmMatchesItsPinnedDigestTracedOrNot) {
  Reached reached;
  for (const Pin& pin : kPins) {
    for (std::size_t s = 0; s < std::size(kStrategies); ++s) {
      const Strategy strategy = kStrategies[s];
      const std::string where = std::string(ArmName(pin.arm)) + " " + ToString(strategy);
      const SequenceDigests untraced = SequenceDigest(pin.arm, strategy, nullptr, reached);
      obs::Tracer tracer;
      Reached traced_reached;
      const SequenceDigests traced =
          SequenceDigest(pin.arm, strategy, &tracer, traced_reached);
      EXPECT_EQ(traced.report, untraced.report) << where;
      EXPECT_EQ(traced.registry, untraced.registry) << where;
      EXPECT_EQ(untraced.report, pin.digests[s])
          << where << " got 0x" << std::hex << untraced.report;
      EXPECT_EQ(untraced.registry, pin.registry[s])
          << where << " registry got 0x" << std::hex << untraced.registry;
      EXPECT_EQ(traced.trace, pin.trace[s])
          << where << " trace got 0x" << std::hex << traced.trace;
    }
  }
  // Every branch the pins guard was taken somewhere in the grid.
  EXPECT_GT(reached.spills, 0u);
  EXPECT_GT(reached.retried_units, 0u);
  EXPECT_GT(reached.degraded, 0u);
  EXPECT_GT(reached.undetected, 0u);
  EXPECT_GT(reached.host_placed, 0u);
  EXPECT_GT(reached.audited, 0u);
}

}  // namespace
}  // namespace kf::core
