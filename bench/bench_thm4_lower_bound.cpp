// E4 — Theorem 4: the extended Dolev-Reischuk bound, measured.
//
// Runs Universal against the E_base adversary (groups A and B; members of
// B behave correctly except they ignore their first ceil(t/2) messages and
// omit sending to B) and reports the number of messages sent by correct
// processes against the paper's (ceil(t/2))^2 threshold. Any algorithm
// solving a non-trivial validity property must exceed the threshold —
// Universal does, with its usual Theta(n^2) margin.
#include <cstdio>
#include <vector>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/table.hpp"

using namespace valcon;

int main() {
  std::printf("==== E4 / Theorem 4: Omega(t^2) message lower bound under "
              "E_base ====\n\n");
  harness::Table table({"n", "t", "ceil(t/2)^2 bound", "measured msgs",
                        "ratio", "> bound", "safe&live"});
  const core::StrongValidity validity;
  std::vector<double> ts;
  std::vector<double> counts;
  for (const auto& [n, t] : std::vector<std::pair<int, int>>{
           {4, 1}, {7, 2}, {10, 3}, {13, 4}, {19, 6}, {25, 8}, {31, 10},
           {43, 14}, {64, 21}}) {
    const auto cfg =
        harness::ebase_scenario(n, t, harness::VcKind::kAuthenticated, 1);
    const auto result = harness::run_universal(
        cfg, core::make_lambda(validity, n, t));
    const std::uint64_t half = (t + 1) / 2;
    const std::uint64_t bound = half * half;
    const std::uint64_t msgs = result.message_complexity;
    table.add_row(
        {std::to_string(n), std::to_string(t), std::to_string(bound),
         std::to_string(msgs),
         harness::fmt(static_cast<double>(msgs) / static_cast<double>(bound),
                      1),
         msgs > bound ? "yes" : "NO",
         (result.all_correct_decided(cfg) && result.agreement()) ? "yes"
                                                                 : "NO"});
    if (t >= 2) {
      ts.push_back(static_cast<double>(t));
      counts.push_back(static_cast<double>(msgs));
    }
  }
  table.print();
  std::printf("\nmeasured message scaling vs t: log-log slope = %.2f "
              "(Theorem 4 requires >= 2 asymptotically; Universal is "
              "Theta(n^2) with t = Theta(n))\n",
              harness::loglog_slope(ts, counts));
  return 0;
}
