// Crypto unit costs measured by direct calls into valcon::crypto, outside
// any cell: one SHA-256 compression block, one sign, one verify of each
// kind, and an aggregate check at each system size the workloads use.
// KeyRegistry::verify_aggregate computes one MAC per voter, so its cost
// grows with n; the per-n figures record that as a measured base.
#pragma once

#include <map>
#include <vector>

namespace perfbench {

struct CryptoUnitCosts {
  double sha256_ns_per_block = 0.0;
  double sign_ns = 0.0;
  double verify_ns = 0.0;
  double verify_threshold_ns = 0.0;
  /// Keyed by registry size n; the aggregate carries n - (n-1)/3 voters.
  std::map<int, double> verify_aggregate_ns;
};

/// Every registry size for which verify_aggregate is probed: each n the
/// workloads run, and each committee size.
[[nodiscard]] const std::vector<int>& aggregate_probe_sizes();

/// Each figure is the median over several batches timed with the thread's
/// CPU clock.
[[nodiscard]] CryptoUnitCosts probe_crypto();

}  // namespace perfbench
