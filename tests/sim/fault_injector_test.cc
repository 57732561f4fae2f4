#include "sim/fault_injector.h"

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <utility>

#include "common/error.h"
#include "sim/timeline.h"

namespace kf::sim {
namespace {

FaultConfig AllFaults(double rate, std::uint64_t seed = 42) {
  FaultConfig config;
  config.seed = seed;
  config.copy_fault_rate = rate;
  config.kernel_fault_rate = rate;
  config.stall_rate = rate;
  return config;
}

TEST(FaultConfig, DefaultInjectsNothing) {
  const FaultConfig config;
  EXPECT_FALSE(config.AnyEnabled());
  FaultInjector injector(config);
  for (std::uint64_t id = 0; id < 100; ++id) {
    const FaultDecision d = injector.Decide(1, id, CommandKind::kKernel);
    EXPECT_EQ(d.fault, FaultKind::kNone);
    EXPECT_EQ(d.duration_multiplier, 1.0);
  }
  EXPECT_FALSE(injector.InjectOomOnReservation());
}

TEST(FaultInjector, DecisionsAreDeterministicPerSeed) {
  FaultInjector a(AllFaults(0.3));
  FaultInjector b(AllFaults(0.3));
  for (std::uint64_t epoch = 1; epoch < 5; ++epoch) {
    for (std::uint64_t id = 0; id < 200; ++id) {
      const FaultDecision da = a.Decide(epoch, id, CommandKind::kCopyH2D);
      const FaultDecision db = b.Decide(epoch, id, CommandKind::kCopyH2D);
      EXPECT_EQ(da.fault, db.fault);
      EXPECT_EQ(da.duration_multiplier, db.duration_multiplier);
    }
  }
}

TEST(FaultInjector, DifferentSeedsDisagree) {
  FaultInjector a(AllFaults(0.3, 1));
  FaultInjector b(AllFaults(0.3, 2));
  int differing = 0;
  for (std::uint64_t id = 0; id < 500; ++id) {
    if (a.Decide(1, id, CommandKind::kKernel).fault !=
        b.Decide(1, id, CommandKind::kKernel).fault) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 0);
}

TEST(FaultInjector, EpochsGiveFreshDraws) {
  // A retried command must not hit the same fault forever: decisions for one
  // command id differ across epochs.
  FaultInjector injector(AllFaults(0.5));
  int faulted = 0;
  for (std::uint64_t epoch = 1; epoch <= 64; ++epoch) {
    if (injector.Decide(epoch, 7, CommandKind::kKernel).fault ==
        FaultKind::kKernelFault) {
      ++faulted;
    }
  }
  EXPECT_GT(faulted, 0);
  EXPECT_LT(faulted, 64);
}

TEST(FaultInjector, ObservedRatesTrackConfiguredRates) {
  FaultConfig config;
  config.seed = 7;
  config.kernel_fault_rate = 0.2;
  FaultInjector injector(config);
  const int n = 5000;
  int failures = 0;
  for (std::uint64_t id = 0; id < n; ++id) {
    if (injector.Decide(1, id, CommandKind::kKernel).fault ==
        FaultKind::kKernelFault) {
      ++failures;
    }
  }
  const double observed = static_cast<double>(failures) / n;
  EXPECT_NEAR(observed, 0.2, 0.03);
}

TEST(FaultInjector, HostCommandsNeverFault) {
  FaultInjector injector(AllFaults(1.0));
  for (std::uint64_t id = 0; id < 50; ++id) {
    const FaultDecision d = injector.Decide(1, id, CommandKind::kHostCompute);
    EXPECT_EQ(d.fault, FaultKind::kNone);
    EXPECT_EQ(d.duration_multiplier, 1.0);
  }
}

TEST(FaultInjector, CopyAndKernelRatesAreIndependent) {
  FaultConfig config;
  config.seed = 11;
  config.copy_fault_rate = 1.0;  // copies always fail...
  FaultInjector injector(config);
  EXPECT_EQ(injector.Decide(1, 0, CommandKind::kCopyH2D).fault,
            FaultKind::kCopyTransient);
  EXPECT_EQ(injector.Decide(1, 0, CommandKind::kCopyD2H).fault,
            FaultKind::kCopyTransient);
  // ...kernels never do.
  EXPECT_EQ(injector.Decide(1, 0, CommandKind::kKernel).fault, FaultKind::kNone);
}

TEST(FaultInjector, StallStretchesDuration) {
  FaultConfig config;
  config.seed = 3;
  config.stall_rate = 1.0;
  config.stall_multiplier = 4.0;
  FaultInjector injector(config);
  const FaultDecision d = injector.Decide(1, 0, CommandKind::kKernel);
  EXPECT_EQ(d.fault, FaultKind::kStreamStall);
  EXPECT_EQ(d.duration_multiplier, 4.0);
}

TEST(FaultInjector, OomDrawsAdvanceDeterministically) {
  FaultConfig config;
  config.seed = 5;
  config.oom_rate = 0.25;
  FaultInjector a(config);
  FaultInjector b(config);
  for (int i = 0; i < 200; ++i) {
    EXPECT_EQ(a.InjectOomOnReservation(), b.InjectOomOnReservation());
  }
}

TEST(FaultConfig, FromEnvReadsVariables) {
  ::setenv("KF_FAULT_SEED", "99", 1);
  ::setenv("KF_FAULT_COPY_RATE", "0.125", 1);
  ::setenv("KF_FAULT_STALL_MULT", "16", 1);
  const FaultConfig config = FaultConfig::FromEnv();
  ::unsetenv("KF_FAULT_SEED");
  ::unsetenv("KF_FAULT_COPY_RATE");
  ::unsetenv("KF_FAULT_STALL_MULT");
  EXPECT_EQ(config.seed, 99u);
  EXPECT_EQ(config.copy_fault_rate, 0.125);
  EXPECT_EQ(config.stall_multiplier, 16.0);
  EXPECT_EQ(config.kernel_fault_rate, 0.0);  // unset keeps the default
  EXPECT_TRUE(config.AnyEnabled());
}

TEST(Timeline, FaultedCommandsSurfaceInStats) {
  FaultConfig config;
  config.seed = 1;
  config.kernel_fault_rate = 1.0;
  FaultInjector injector(config);

  Timeline timeline(DeviceSpec::TeslaC2070());
  CommandSpec kernel;
  kernel.kind = CommandKind::kKernel;
  kernel.solo_duration = 1.0;
  kernel.demand = 1.0;
  timeline.AddCommand(0, kernel);
  CommandSpec copy;
  copy.kind = CommandKind::kCopyH2D;
  copy.duration = 1.0;
  timeline.AddCommand(0, copy);

  const TimelineStats stats = timeline.Run(&injector);
  EXPECT_FALSE(stats.AllOk());
  EXPECT_EQ(stats.fault_count, 1u);  // the kernel; copies are clean
  EXPECT_FALSE(stats.commands[0].ok);
  EXPECT_EQ(stats.commands[0].fault, FaultKind::kKernelFault);
  EXPECT_TRUE(stats.commands[1].ok);
  // Failed commands still occupy their engine: timing is unchanged.
  EXPECT_GT(stats.makespan, 0.0);
}

TEST(Timeline, StallDelaysCompletion) {
  FaultConfig config;
  config.seed = 1;
  config.stall_rate = 1.0;
  config.stall_multiplier = 8.0;
  FaultInjector injector(config);

  Timeline timeline(DeviceSpec::TeslaC2070());
  CommandSpec copy;
  copy.kind = CommandKind::kCopyH2D;
  copy.duration = 1.0;
  timeline.AddCommand(0, copy);

  const TimelineStats stats = timeline.Run(&injector);
  EXPECT_TRUE(stats.AllOk());  // stalls slow commands down, they don't fail
  EXPECT_EQ(stats.stall_count, 1u);
  EXPECT_NEAR(stats.makespan, 8.0, 1e-9);
}

TEST(FaultInjector, CorruptionDrawsAreDeterministicAndSilent) {
  FaultConfig config;
  config.seed = 21;
  config.corrupt_h2d_rate = 0.3;
  config.corrupt_d2h_rate = 0.3;
  config.corrupt_kernel_rate = 0.3;
  EXPECT_TRUE(config.CorruptionEnabled());
  EXPECT_TRUE(config.AnyEnabled());
  FaultInjector a(config);
  FaultInjector b(config);
  int corrupted = 0;
  for (std::uint64_t id = 0; id < 300; ++id) {
    const FaultDecision da = a.Decide(1, id, CommandKind::kKernel);
    const FaultDecision db = b.Decide(1, id, CommandKind::kKernel);
    EXPECT_EQ(da.corrupt, db.corrupt);
    // Corruption is SILENT: the command still reports success and normal
    // timing — only the bytes are wrong.
    EXPECT_EQ(da.fault, FaultKind::kNone);
    EXPECT_EQ(da.duration_multiplier, 1.0);
    if (da.corrupt) ++corrupted;
  }
  EXPECT_NEAR(static_cast<double>(corrupted) / 300.0, 0.3, 0.07);
}

TEST(FaultInjector, CorruptionRatesArePerKind) {
  FaultConfig config;
  config.seed = 13;
  config.corrupt_h2d_rate = 1.0;  // uploads always corrupt...
  FaultInjector injector(config);
  EXPECT_TRUE(injector.Decide(1, 0, CommandKind::kCopyH2D).corrupt);
  // ...downloads and kernels never do.
  EXPECT_FALSE(injector.Decide(1, 0, CommandKind::kCopyD2H).corrupt);
  EXPECT_FALSE(injector.Decide(1, 0, CommandKind::kKernel).corrupt);
}

TEST(FaultInjector, HostCommandsNeverCorrupt) {
  // Host executions are the trusted reference (the audit re-executes against
  // them), so corruption only ever targets device-side commands.
  FaultConfig config;
  config.seed = 5;
  config.corrupt_h2d_rate = 1.0;
  config.corrupt_d2h_rate = 1.0;
  config.corrupt_kernel_rate = 1.0;
  FaultInjector injector(config);
  for (std::uint64_t id = 0; id < 50; ++id) {
    EXPECT_FALSE(injector.Decide(1, id, CommandKind::kHostCompute).corrupt);
  }
}

TEST(FaultInjector, LoudFaultExcludesCorruption) {
  // A command that fails loudly delivers no bytes, so it cannot also deliver
  // corrupted ones: fault and corrupt are mutually exclusive per decision.
  FaultConfig config;
  config.seed = 17;
  config.copy_fault_rate = 0.5;
  config.kernel_fault_rate = 0.5;
  config.corrupt_h2d_rate = 0.5;
  config.corrupt_d2h_rate = 0.5;
  config.corrupt_kernel_rate = 0.5;
  FaultInjector injector(config);
  for (std::uint64_t id = 0; id < 500; ++id) {
    for (CommandKind kind : {CommandKind::kCopyH2D, CommandKind::kCopyD2H,
                             CommandKind::kKernel}) {
      const FaultDecision d = injector.Decide(1, id, kind);
      const bool loud = d.fault == FaultKind::kCopyTransient ||
                        d.fault == FaultKind::kKernelFault;
      EXPECT_FALSE(loud && d.corrupt) << "id " << id;
    }
  }
}

TEST(FaultConfig, FromEnvReadsCorruptionVariables) {
  ::setenv("KF_FAULT_CORRUPT_RATE", "0.25", 1);
  ::setenv("KF_FAULT_CORRUPT_D2H_RATE", "0.5", 1);
  const FaultConfig config = FaultConfig::FromEnv();
  ::unsetenv("KF_FAULT_CORRUPT_RATE");
  ::unsetenv("KF_FAULT_CORRUPT_D2H_RATE");
  // The blanket rate seeds all three kinds; the per-kind variable overrides.
  EXPECT_EQ(config.corrupt_h2d_rate, 0.25);
  EXPECT_EQ(config.corrupt_d2h_rate, 0.5);
  EXPECT_EQ(config.corrupt_kernel_rate, 0.25);
  EXPECT_TRUE(config.CorruptionEnabled());
}

TEST(FaultConfig, FromEnvRejectsMalformedValues) {
  // Each variable must parse whole and lie in its range; a malformed value
  // throws naming the variable and its text instead of running fault-free.
  const std::pair<const char*, const char*> malformed[] = {
      {"KF_FAULT_COPY_RATE", "abc"},     {"KF_FAULT_COPY_RATE", "0.1x"},
      {"KF_FAULT_COPY_RATE", ""},        {"KF_FAULT_KERNEL_RATE", "-0.5"},
      {"KF_FAULT_OOM_RATE", "1.5"},      {"KF_FAULT_STALL_RATE", "nan"},
      {"KF_FAULT_CORRUPT_RATE", "inf"},  {"KF_FAULT_CORRUPT_H2D_RATE", "2"},
      {"KF_FAULT_STALL_MULT", "0.5"},    {"KF_FAULT_STALL_MULT", "inf"},
      {"KF_FAULT_SEED", "-1"},           {"KF_FAULT_SEED", "12x"},
      {"KF_FAULT_SEED", " 7"},           {"KF_FAULT_SEED", "18446744073709551616"},
  };
  for (const auto& [name, text] : malformed) {
    ::setenv(name, text, 1);
    try {
      (void)FaultConfig::FromEnv();
      ADD_FAILURE() << name << "='" << text << "' was accepted";
    } catch (const InvalidArgument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(name), std::string::npos) << what;
      EXPECT_NE(what.find(std::string("'") + text + "'"), std::string::npos) << what;
    }
    ::unsetenv(name);
  }

  // The range ends are valid.
  ::setenv("KF_FAULT_SEED", "18446744073709551615", 1);
  ::setenv("KF_FAULT_COPY_RATE", "1", 1);
  ::setenv("KF_FAULT_STALL_MULT", "1", 1);
  const FaultConfig config = FaultConfig::FromEnv();
  ::unsetenv("KF_FAULT_SEED");
  ::unsetenv("KF_FAULT_COPY_RATE");
  ::unsetenv("KF_FAULT_STALL_MULT");
  EXPECT_EQ(config.seed, 18446744073709551615ull);
  EXPECT_EQ(config.copy_fault_rate, 1.0);
  EXPECT_EQ(config.stall_multiplier, 1.0);
}

TEST(Timeline, CorruptedCommandsSurfaceInStats) {
  FaultConfig config;
  config.seed = 1;
  config.corrupt_kernel_rate = 1.0;
  FaultInjector injector(config);

  Timeline timeline(DeviceSpec::TeslaC2070());
  CommandSpec kernel;
  kernel.kind = CommandKind::kKernel;
  kernel.solo_duration = 1.0;
  kernel.demand = 1.0;
  timeline.AddCommand(0, kernel);
  CommandSpec host;
  host.kind = CommandKind::kHostCompute;
  host.duration = 0.5;
  timeline.AddCommand(0, host);

  const TimelineStats stats = timeline.Run(&injector);
  // Corruption is silent: every command succeeds and timing is unchanged.
  EXPECT_TRUE(stats.AllOk());
  EXPECT_EQ(stats.fault_count, 0u);
  EXPECT_EQ(stats.corrupted_count, 1u);
  EXPECT_TRUE(stats.commands[0].corrupted);
  EXPECT_FALSE(stats.commands[1].corrupted);
}

TEST(Timeline, NoInjectorMeansEveryCommandOk) {
  Timeline timeline(DeviceSpec::TeslaC2070());
  CommandSpec copy;
  copy.kind = CommandKind::kCopyD2H;
  copy.duration = 0.5;
  timeline.AddCommand(0, copy);
  const TimelineStats stats = timeline.Run();
  EXPECT_TRUE(stats.AllOk());
  EXPECT_TRUE(stats.commands[0].ok);
  EXPECT_EQ(stats.commands[0].fault, FaultKind::kNone);
}

}  // namespace
}  // namespace kf::sim
