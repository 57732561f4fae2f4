// Data-integrity layer: options, table checksums, and the corruption model.
//
// Threat model (docs/integrity.md): a copy or kernel command can "succeed"
// while delivering wrong bytes — a silent bit flip injected by
// sim::FaultInjector's KF_FAULT_CORRUPT_* draws. Two detection mechanisms
// guard the data path:
//
//   * transfer verification (`verify_transfers`): every staged buffer is
//     checksummed (kf::Checksummer) before upload and re-verified after
//     download, so any corrupted H2D/D2H copy is caught at the fission
//     segment boundary or at the sink download;
//   * audit sampling (`audit_fraction`): a seeded fraction of clusters is
//     re-executed on the host engine and compared byte-for-byte, which is
//     the only way to catch a kernel that computed wrong bytes on-device.
//
// A detected mismatch makes the owning retry unit re-execute (bounded by
// `kMaxReexecutions`); an *undetected* corruption propagates downstream and
// flips a real bit in every reachable sink table — the executor's reports
// stay honest about what escaped (`corruption_undetected`,
// `silent_corruption`).
#ifndef KF_CORE_INTEGRITY_H_
#define KF_CORE_INTEGRITY_H_

#include <cstdint>

#include "relational/table.h"

namespace kf::core {

struct IntegrityOptions {
  // Checksum staged inputs before upload and verify after download
  // (H2D/D2H). Catches all transfer corruption; costs one host-engine
  // streaming pass per transferred buffer, overlapped with device work.
  bool verify_transfers = false;

  // Fraction of clusters (0..1) whose outputs are re-executed on the host
  // engine and compared. Catches kernel corruption, at host re-execution
  // cost; which clusters are audited is a pure function of
  // (audit_seed, injector epoch, cluster index).
  double audit_fraction = 0.0;
  std::uint64_t audit_seed = 0;

  // Re-execution budget per retry unit when the *only* problem is a
  // detected corruption (loud faults keep ResilienceOptions::kMaxRetries).
  static constexpr int kMaxReexecutions = 3;

  bool Enabled() const { return verify_transfers || audit_fraction > 0.0; }
};

// Checksum of a table's full contents: schema, row count, and every column's
// typed payload. Stable across runs for byte-identical tables.
std::uint64_t ChecksumTable(const relational::Table& table);

// Deterministically flips one bit somewhere in `table`'s column data (the
// silent-corruption model made real). Returns false when the table has no
// data to corrupt (zero rows or zero columns).
bool FlipRandomBit(relational::Table& table, std::uint64_t seed);

// Whether cluster `cluster` is audited this run: a pure Bernoulli draw from
// (audit_seed, run_salt, cluster) against `fraction`. The executor passes
// the injector's epoch as `run_salt`, so the audited subset varies between
// runs but is fixed for one execution (retries stay covered).
bool AuditSampled(std::uint64_t audit_seed, std::uint64_t run_salt,
                  std::size_t cluster, double fraction);

}  // namespace kf::core

#endif  // KF_CORE_INTEGRITY_H_
