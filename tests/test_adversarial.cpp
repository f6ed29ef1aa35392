// Adversarial integration suite: Byzantine equivocation, hostile pre-GST
// scheduling, crash storms and combined faults against every protocol
// stack — validated with the formal execution checker (Termination /
// Agreement / Validity as defined in Sections 3.2-3.3).
#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "valcon/core/execution_checker.hpp"
#include "valcon/harness/strategy.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::ScenarioConfig;
using harness::VcKind;

namespace {

/// Runs Universal with a two-faced Byzantine process that plays two full,
/// correct protocol stacks with conflicting proposals (6 towards the lower
/// half, 9 towards the upper) via the "equivocate" adversary strategy. With
/// n > 3t this must never break any property. Going through run_universal
/// (rather than a hand-rolled Simulator loop with a fixed 1e7 horizon) buys
/// the decide-then-grace cutoff: the equivocator's inner stacks can re-arm
/// timers forever, and the cutoff stops the run 10*delta after the last
/// correct decision instead of simulating to the horizon.
ExecutionReport run_split_brain(int n, int t, VcKind kind,
                                std::uint64_t seed) {
  const ProcessId byz = n - 1;
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  cfg.vc = kind;
  for (int p = 0; p < n; ++p) cfg.proposals.push_back(p % 2);
  cfg.proposals[static_cast<std::size_t>(byz)] = 6;  // face-0 proposal
  cfg.faults[byz] = harness::Fault::equivocate(9);   // face-1 proposal

  const StrongValidity validity;
  const auto lambda = make_lambda(validity, n, t, {0, 1, 6, 9}, {0, 1, 6, 9});
  const auto result = harness::run_universal(cfg, lambda);
  return check_execution(validity, n, t, cfg.proposals, {byz},
                         result.decisions);
}

}  // namespace

// ------------------------------------------------ split-brain (n > 3t)

class SplitBrainSweep
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(SplitBrainSweep, AllPropertiesSurviveEquivocation) {
  const auto [kind_int, seed_int] = GetParam();
  const auto report = run_split_brain(
      4, 1, static_cast<VcKind>(kind_int), static_cast<std::uint64_t>(seed_int));
  EXPECT_TRUE(report.ok()) << [&] {
    std::string all;
    for (const auto& v : report.violations) all += v + "; ";
    return all;
  }();
}

INSTANTIATE_TEST_SUITE_P(Kinds, SplitBrainSweep,
                         ::testing::Combine(::testing::Values(0, 1, 2),
                                            ::testing::Range(1, 4)));

TEST(SplitBrain, SevenProcessesAuth) {
  const auto report = run_split_brain(7, 2, VcKind::kAuthenticated, 5);
  EXPECT_TRUE(report.ok());
}

// ------------------------------------------------- hostile pre-GST phase

TEST(LateGst, AuthSurvivesLongAsynchronousPrefix) {
  // GST at 200 delta; before it the adversary delays everything to the
  // model bound on half the links.
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.gst = 200.0;
  cfg.proposals = {1, 0, 1, 0};
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, cfg.n, cfg.t);

  sim::SimConfig sim_cfg;
  sim_cfg.n = cfg.n;
  sim_cfg.t = cfg.t;
  sim_cfg.seed = 3;
  sim_cfg.net.gst = cfg.gst;
  sim::Simulator simulator(sim_cfg);
  std::map<ProcessId, Value> decisions;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    simulator.add_process(
        p, std::make_unique<sim::ComponentHost>(harness::make_universal(
               cfg, cfg.proposals[static_cast<std::size_t>(p)], lambda,
               [&decisions, p](sim::Context&, Value v) { decisions[p] = v; })));
  }
  // Adversarial pre-GST schedule: peer-to-peer delays stretched to the
  // bound on a ring of links.
  for (ProcessId p = 0; p < cfg.n; ++p) {
    simulator.network().hold(p, (p + 1) % cfg.n, cfg.gst);
  }
  simulator.run(1e6);
  const auto report = check_execution(validity, cfg.n, cfg.t, cfg.proposals,
                                      {}, decisions);
  EXPECT_TRUE(report.ok());
  // Nobody may decide "too early" only *because* of asynchrony — but early
  // decision is allowed; what matters is all decisions agree and are valid.
}

TEST(LateGst, EverySeedEveryKind) {
  for (const VcKind kind : {VcKind::kAuthenticated, VcKind::kFast}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      ScenarioConfig cfg;
      cfg.n = 4;
      cfg.t = 1;
      cfg.gst = 60.0;
      cfg.seed = seed;
      cfg.vc = kind;
      cfg.horizon = 1e15;
      cfg.proposals = {2, 2, 2, 2};
      const StrongValidity validity;
      const auto result =
          harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
      EXPECT_TRUE(result.all_correct_decided(cfg))
          << to_string(kind) << " seed " << seed;
      EXPECT_EQ(result.common_decision(), std::optional<Value>(2))
          << to_string(kind) << " seed " << seed;
    }
  }
}

// ----------------------------------------------------------- crash storms

class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, CrashAtArbitraryTimesIsHarmless) {
  // One process crashes at a parameterized time (mid-handshake, mid-Quad,
  // post-decision...). The survivors must still reach valid consensus.
  const double crash_time = 0.5 * GetParam();
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.seed = static_cast<std::uint64_t>(GetParam());
  cfg.proposals = {3, 1, 3, 1};
  cfg.faults[1] = harness::Fault::crash(crash_time);
  const StrongValidity validity;
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg)) << "crash at " << crash_time;
  EXPECT_TRUE(result.agreement()) << "crash at " << crash_time;
  const auto report =
      check_execution(validity, cfg.n, cfg.t, cfg.proposals,
                      {1}, result.decisions);
  EXPECT_TRUE(report.ok()) << "crash at " << crash_time;
}

INSTANTIATE_TEST_SUITE_P(Times, CrashSweep, ::testing::Range(1, 14));

// ------------------------------------------------- checker self-validation

TEST(ExecutionChecker, FlagsAgreementViolation) {
  const StrongValidity validity;
  const std::map<ProcessId, Value> decisions = {{0, 1}, {2, 0}};
  const auto report =
      check_execution(validity, 3, 1, {1, 1, 0}, {1}, decisions);
  EXPECT_FALSE(report.agreement);
  EXPECT_TRUE(report.termination);
}

TEST(ExecutionChecker, FlagsValidityViolation) {
  const StrongValidity validity;
  // Unanimous 5 but somebody decided 6.
  const std::map<ProcessId, Value> decisions = {{0, 6}, {1, 6}, {2, 6}};
  const auto report =
      check_execution(validity, 3, 1, {5, 5, 5}, {}, decisions);
  EXPECT_FALSE(report.validity);
  EXPECT_TRUE(report.agreement);
  ASSERT_FALSE(report.violations.empty());
}

TEST(ExecutionChecker, FlagsMissingDecision) {
  const StrongValidity validity;
  const std::map<ProcessId, Value> decisions = {{0, 5}};
  const auto report =
      check_execution(validity, 3, 1, {5, 5, 5}, {}, decisions);
  EXPECT_FALSE(report.termination);
}

TEST(ExecutionChecker, RejectsTooManyFaults) {
  const StrongValidity validity;
  const auto report = check_execution(validity, 3, 1, {5, 5, 5}, {0, 1}, {});
  EXPECT_FALSE(report.ok());
  ASSERT_FALSE(report.violations.empty());
}

namespace {

/// Forwards to Strong validity and counts admissible() calls.
class CountingValidity final : public ValidityProperty {
 public:
  [[nodiscard]] std::string name() const override { return inner_.name(); }
  [[nodiscard]] bool admissible(const InputConfig& c,
                                Value v) const override {
    ++calls;
    return inner_.admissible(c, v);
  }
  mutable int calls = 0;

 private:
  StrongValidity inner_;
};

/// check_execution as specified: every correct decider judged on its own.
ExecutionReport brute_force_check(const ValidityProperty& val, int n,
                                  const std::vector<Value>& proposals,
                                  const std::set<ProcessId>& faulty,
                                  const std::map<ProcessId, Value>& decisions) {
  ExecutionReport report;
  report.input_config = InputConfig(n);
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) == 0) {
      report.input_config.set(p, proposals[static_cast<std::size_t>(p)]);
    }
  }
  report.termination = true;
  for (ProcessId p = 0; p < n; ++p) {
    if (faulty.count(p) == 0 && decisions.count(p) == 0) {
      report.termination = false;
      report.violations.push_back("Termination: P" + std::to_string(p) +
                                  " never decided");
    }
  }
  report.agreement = true;
  std::optional<Value> seen;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;
    if (seen.has_value() && *seen != v) {
      report.agreement = false;
      report.violations.push_back("Agreement: conflicting decisions " +
                                  std::to_string(*seen) + " and " +
                                  std::to_string(v));
    }
    seen = v;
  }
  report.validity = true;
  for (const auto& [p, v] : decisions) {
    if (faulty.count(p) != 0) continue;
    if (!val.admissible(report.input_config, v)) {
      report.validity = false;
      report.violations.push_back(
          "Validity(" + val.name() + "): P" + std::to_string(p) +
          " decided " + std::to_string(v) + " not in val(" +
          report.input_config.to_string() + ")");
    }
  }
  return report;
}

}  // namespace

TEST(ExecutionChecker, JudgesEachDistinctDecidedValueOnce) {
  const int n = 2000;
  const int t = 666;
  const std::vector<Value> proposals(n, 5);
  std::map<ProcessId, Value> decisions;
  for (ProcessId p = 0; p < n; ++p) decisions[p] = 5;

  CountingValidity validity;
  EXPECT_TRUE(check_execution(validity, n, t, proposals, {}, decisions).ok());
  EXPECT_EQ(validity.calls, 1);

  // Three distinct decided values: three judgments, however many deciders.
  decisions[10] = 6;
  decisions[1500] = 6;
  decisions[1999] = 7;
  validity.calls = 0;
  const auto report = check_execution(validity, n, t, proposals, {}, decisions);
  EXPECT_FALSE(report.validity);
  EXPECT_EQ(validity.calls, 3);
  // Five changes of value in id order, then one line per bad decider.
  EXPECT_EQ(report.violations.size(), 5u + 3u);
}

TEST(ExecutionChecker, MixedDecisionsMatchAPerProcessCheck) {
  // n = 10, t = 3: correct processes propose 4, so Strong validity admits
  // only 4. Several correct processes decide the inadmissible 6, one never
  // decides, and the faulty ones decide anything (ignored).
  const int n = 10;
  const int t = 3;
  const std::set<ProcessId> faulty = {2, 7, 9};
  std::vector<Value> proposals(n, 4);
  proposals[2] = 8;
  proposals[7] = 8;
  const std::map<ProcessId, Value> decisions = {
      {0, 6}, {1, 4}, {2, 9}, {3, 6}, {4, 4},
      {5, 6}, {7, 6}, {8, 4}, {9, 1}};
  CountingValidity counted;
  const auto got = check_execution(counted, n, t, proposals, faulty, decisions);
  const StrongValidity validity;
  const auto want = brute_force_check(validity, n, proposals, faulty, decisions);
  EXPECT_EQ(got.termination, want.termination);
  EXPECT_EQ(got.agreement, want.agreement);
  EXPECT_EQ(got.validity, want.validity);
  EXPECT_EQ(got.violations, want.violations);
  EXPECT_EQ(got.input_config.to_string(), want.input_config.to_string());
  EXPECT_FALSE(got.termination);  // P6 never decided
  EXPECT_FALSE(got.validity);
  EXPECT_EQ(counted.calls, 2);  // values 6 and 4, not 9 or 1
}

// --------------------------------------- the paper's own attack, re-used

TEST(PartitionCheckerIntegration, ViolationIsDetectedByChecker) {
  const auto cfg = harness::partition_scenario(3, 1, 2);
  const StrongValidity validity;
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  ASSERT_FALSE(result.agreement());
  const auto report = check_execution(validity, 3, 1, {0, 0, 1}, {1},
                                      result.decisions);
  EXPECT_FALSE(report.agreement);
}
