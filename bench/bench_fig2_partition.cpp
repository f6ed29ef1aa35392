// E2 — Theorem 1 / Figure 2: the partitioning construction, executed.
//
// Runs the Lemma 2 split-brain attack on Universal (authenticated vector
// consensus + Strong Validity): group B equivocates between sides A and C
// while the network delays A <-> C traffic (legal before GST). At n = 3t
// both sides muster quorums and Agreement breaks between *correct*
// processes; at n = 3t + 1 the C side stalls and adopts A's decision after
// GST. This is the executable content of "no non-trivial validity property
// is solvable with n <= 3t".
#include <cstdio>
#include <optional>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/table.hpp"

using namespace valcon;

int main() {
  std::printf("==== E2 / Theorem 1 + Figure 2: partition attack at the "
              "n = 3t frontier ====\n\n");
  harness::Table table({"n", "t", "side-A decision", "side-C decision",
                        "agreement violated", "paper predicts"});
  const core::StrongValidity validity;
  for (const int t : {1, 2, 3}) {
    for (const int n : {3 * t, 3 * t + 1}) {
      const auto cfg = harness::partition_scenario(n, t, /*seed=*/1);
      const auto result = harness::run_universal(
          cfg, core::make_lambda(validity, n, t));
      // The last decision on each side: A = [0, n-2t), C = [n-t, n).
      std::optional<Value> side_a;
      std::optional<Value> side_c;
      for (const auto& [pid, v] : result.decisions) {
        (pid < n - 2 * t ? side_a : side_c) = v;
      }
      const auto fmt_value = [](const std::optional<Value>& v) {
        return v.has_value() ? std::to_string(*v) : std::string("-");
      };
      table.add_row({std::to_string(n), std::to_string(t),
                     fmt_value(side_a), fmt_value(side_c),
                     result.agreement() ? "no" : "YES",
                     n == 3 * t ? "violation" : "safe"});
    }
  }
  table.print();
  std::printf(
      "\nReading: at n = 3t the two sides decide different values — the\n"
      "merged execution of Lemma 2 exists, so only trivial validity\n"
      "properties survive n <= 3t (Theorems 1 and 2). One process more\n"
      "(n = 3t + 1) and the C side cannot assemble a quorum: Universal\n"
      "stays safe and C learns A's decision after GST.\n");
  return 0;
}
