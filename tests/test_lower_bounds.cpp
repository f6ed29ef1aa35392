// The paper's adversarial constructions, executed as tests through
// harness::run_universal (harness/strategy.hpp builds both scenarios):
//
//  * Theorem 1 / Lemma 2 — the partition attack violates Agreement at
//    n = 3t (quorum-based consensus is doomed there) and fails to at
//    n = 3t + 1;
//  * Theorem 4 — in E_base, Universal's correct processes always send more
//    than (ceil(t/2))^2 messages, and the protocol stays safe and live
//    under the ignore-first-⌈t/2⌉-messages adversary.
#include <gtest/gtest.h>

#include <optional>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/strategy.hpp"

using namespace valcon;
using harness::RunResult;
using harness::ScenarioConfig;

namespace {

RunResult run(const ScenarioConfig& cfg) {
  const core::StrongValidity validity;
  return harness::run_universal(cfg, core::make_lambda(validity, cfg.n, cfg.t));
}

/// The decisions of one side of the partition: A = [0, n-2t) or
/// C = [n-t, n) (B is faulty and pruned from the decisions).
std::optional<Value> side_value(const RunResult& result, int n, int t,
                                bool side_a) {
  std::optional<Value> seen;
  for (const auto& [pid, v] : result.decisions) {
    if ((pid < n - 2 * t) == side_a) seen = v;
  }
  return seen;
}

/// Runs E_base and checks that correct processes sent more than
/// ceil(t/2)^2 messages, all decided and agreed; returns the count.
std::uint64_t ebase_messages(int n, int t, harness::VcKind vc) {
  const auto cfg = harness::ebase_scenario(n, t, vc, 1);
  const auto result = run(cfg);
  const std::uint64_t half = (t + 1) / 2;
  EXPECT_GT(result.message_complexity, half * half) << "n=" << n << " t=" << t;
  EXPECT_TRUE(result.all_correct_decided(cfg)) << "n=" << n;
  EXPECT_TRUE(result.agreement()) << "n=" << n;
  EXPECT_TRUE(result.queue_drained) << "n=" << n;
  return result.message_complexity;
}

}  // namespace

TEST(PartitionAttack, ViolatesAgreementAtN3T) {
  for (const int t : {1, 2}) {
    const int n = 3 * t;
    const auto result = run(harness::partition_scenario(n, t, 1));
    EXPECT_FALSE(result.agreement()) << "t=" << t;
    EXPECT_EQ(side_value(result, n, t, /*side_a=*/true), 0);
    EXPECT_EQ(side_value(result, n, t, /*side_a=*/false), 1);
    // Every correct process decided (both sides mustered quorums).
    EXPECT_EQ(result.decisions.size(), static_cast<std::size_t>(2 * t));
  }
}

TEST(PartitionAttack, NoViolationAtN3TPlus1) {
  for (const int t : {1, 2}) {
    const int n = 3 * t + 1;
    const auto result = run(harness::partition_scenario(n, t, 1));
    EXPECT_TRUE(result.agreement()) << "t=" << t;
    // After GST the C side adopts the A side's decision.
    const auto side_a = side_value(result, n, t, /*side_a=*/true);
    ASSERT_TRUE(side_a.has_value());
    const auto side_c = side_value(result, n, t, /*side_a=*/false);
    if (side_c.has_value()) {
      EXPECT_EQ(*side_c, *side_a);
    }
  }
}

TEST(PartitionAttack, SeedIndependence) {
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    EXPECT_FALSE(run(harness::partition_scenario(3, 1, seed)).agreement());
    EXPECT_TRUE(run(harness::partition_scenario(4, 1, seed)).agreement());
  }
}

TEST(DolevReischuk, EbaseRespectsQuadraticBound) {
  // Exact counts, pinned: the E_base tables must not drift.
  EXPECT_EQ(ebase_messages(4, 1, harness::VcKind::kAuthenticated), 45u);
  EXPECT_EQ(ebase_messages(7, 2, harness::VcKind::kAuthenticated), 123u);
  EXPECT_EQ(ebase_messages(10, 3, harness::VcKind::kAuthenticated), 214u);
  EXPECT_EQ(ebase_messages(13, 4, harness::VcKind::kAuthenticated), 358u);
}

TEST(DolevReischuk, EbaseNonAuthenticatedAlsoRespectsBound) {
  EXPECT_EQ(ebase_messages(4, 1, harness::VcKind::kNonAuthenticated), 316u);
}
