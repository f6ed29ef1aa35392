// Adversary-strategy framework (harness/strategy.hpp): registry contents
// and error paths, legacy FaultKind-name aliases (round-trip against the
// pinned "full"-matrix labels), determinism of the new mutation /
// scheduled-equivocation / adaptive strategies across job counts, custom
// strategy registration end to end, and the --strategies matrix filter.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <set>
#include <stdexcept>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/sim/adversary.hpp"

using namespace valcon;
using namespace valcon::core;
using harness::Fault;
using harness::FaultSpec;
using harness::ScenarioConfig;
using harness::ScenarioMatrix;
using harness::Strategy;
using harness::StrategyEnv;
using harness::StrategyRegistry;
using harness::SweepOutcome;
using harness::SweepRunner;
using harness::ValidityKind;
using harness::VcKind;

namespace {

constexpr std::initializer_list<VcKind> kAllVcs = {
    VcKind::kAuthenticated, VcKind::kNonAuthenticated, VcKind::kFast};

ScenarioConfig base_config(VcKind kind = VcKind::kAuthenticated) {
  ScenarioConfig cfg;
  cfg.n = 4;
  cfg.t = 1;
  cfg.vc = kind;
  cfg.proposals = {1, 1, 1, 0};
  return cfg;
}

void expect_equal_results(const std::vector<SweepOutcome>& a,
                          const std::vector<SweepOutcome>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE(a[i].point.label);
    EXPECT_EQ(a[i].result.decisions, b[i].result.decisions);
    EXPECT_EQ(a[i].result.decide_times, b[i].result.decide_times);
    EXPECT_EQ(a[i].result.message_complexity, b[i].result.message_complexity);
    EXPECT_EQ(a[i].result.word_complexity, b[i].result.word_complexity);
    EXPECT_EQ(a[i].result.events, b[i].result.events);
    EXPECT_EQ(a[i].error, b[i].error);
  }
}

}  // namespace

// ------------------------------------------------------------ the registry

TEST(StrategyRegistry, BuiltinsAreRegistered) {
  auto& registry = StrategyRegistry::global();
  for (const char* name : {"silent", "crash", "equivocate", "delay", "mutate",
                           "equivocate-scheduled", "adaptive"}) {
    EXPECT_TRUE(registry.contains(name)) << name;
    EXPECT_NE(registry.make(name), nullptr) << name;
  }
  const auto names = registry.names();
  EXPECT_GE(names.size(), 7u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(StrategyRegistry, UnknownNameThrowsAndListsRegistered) {
  try {
    static_cast<void>(StrategyRegistry::global().make("no-such-strategy"));
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("no-such-strategy"), std::string::npos) << what;
    EXPECT_NE(what.find("crash"), std::string::npos)
        << "message should list registered strategies: " << what;
  }
}

TEST(StrategyRegistry, UnknownStrategyInScenarioIsRejectedUpFront) {
  ScenarioConfig cfg = base_config();
  cfg.faults[3].strategy = "no-such-strategy";
  EXPECT_THROW(harness::validate(cfg), std::invalid_argument);
  const StrongValidity validity;
  EXPECT_THROW(static_cast<void>(harness::run_universal(
                   cfg, make_lambda(validity, cfg.n, cfg.t))),
               std::invalid_argument);
}

TEST(StrategyRegistry, RejectsDuplicatesEmptyNamesAndNullFactories) {
  StrategyRegistry registry;  // a private registry; global() stays clean
  registry.add("mine", [] { return StrategyRegistry::global().make("silent"); });
  EXPECT_TRUE(registry.contains("mine"));
  EXPECT_THROW(registry.add("mine", [] {
    return StrategyRegistry::global().make("silent");
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", [] {
    return StrategyRegistry::global().make("silent");
  }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("null", StrategyRegistry::Factory{}),
               std::invalid_argument);
}

TEST(StrategyRegistry, ParameterValidationGoesThroughTheStrategyHook) {
  const StrongValidity validity;
  const auto lambda = make_lambda(validity, 4, 1);

  ScenarioConfig bad_rate = base_config();
  bad_rate.faults[3] = Fault::mutate(1.5);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_rate, lambda)),
               std::invalid_argument);

  ScenarioConfig bad_victims = base_config();
  bad_victims.faults[3] = Fault::adaptive(/*victims=*/-2);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_victims, lambda)),
               std::invalid_argument);

  ScenarioConfig bad_crash = base_config();
  bad_crash.faults[3] = Fault::crash(-1.0);
  EXPECT_THROW(static_cast<void>(harness::run_universal(bad_crash, lambda)),
               std::invalid_argument);
}

// ------------------------------------------------- legacy-alias round-trip

TEST(LegacyAliases, FaultHelpersNameTheLegacyStrategies) {
  EXPECT_EQ(Fault::silent().strategy, "silent");
  EXPECT_EQ(Fault::crash(1.0).strategy, "crash");
  EXPECT_EQ(Fault::equivocate(9).strategy, "equivocate");
  EXPECT_EQ(Fault::delay().strategy, "delay");
  EXPECT_EQ(Fault::mutate().strategy, "mutate");
  EXPECT_EQ(Fault::scheduled_equivocate(9).strategy, "equivocate-scheduled");
  EXPECT_EQ(Fault::adaptive().strategy, "adaptive");
}

TEST(LegacyAliases, FullMatrixLabelsAndFaultNamesAreThePinnedOnes) {
  // The "full" matrix is the cross-version determinism reference: its cell
  // labels and per-fault strategy names feed the sweep JSON and must not
  // drift now that FaultKind is a registry alias.
  const auto full = harness::named_matrix("full").build();
  ASSERT_EQ(full.size(), 720u);
  EXPECT_EQ(full[0].label,
            "vc=auth(Alg1) val=Strong fault=none n=4 t=1 gst=0.00 delta=1.00"
            " seed=1");
  // The fault-free spec spans sizes x gsts x seeds = 12 cells; the first
  // faulty cell follows it.
  EXPECT_EQ(full[12].label,
            "vc=auth(Alg1) val=Strong fault=silentx1 n=4 t=1 gst=0.00"
            " delta=1.00 seed=1");
  std::set<std::string> fault_names;
  for (const auto& point : full) {
    for (const auto& [pid, fault] : point.config.faults) {
      fault_names.insert(fault.strategy);
    }
  }
  EXPECT_EQ(fault_names,
            (std::set<std::string>{"silent", "crash", "equivocate", "delay"}));
}

TEST(LegacyAliases, EachLegacyStrategyStillReachesConsensus) {
  const StrongValidity validity;
  for (const Fault& fault : {Fault::silent(), Fault::crash(2.0),
                             Fault::equivocate(0), Fault::delay()}) {
    SCOPED_TRACE(fault.strategy);
    ScenarioConfig cfg = base_config();
    cfg.proposals = {1, 1, 1, 1};
    cfg.faults[3] = fault;
    const auto result =
        harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
    EXPECT_TRUE(result.all_correct_decided(cfg));
    EXPECT_TRUE(result.agreement());
    EXPECT_EQ(result.common_decision(), std::optional<Value>(1));
  }
}

// ----------------------------------------------- the new built-in strategies

TEST(NewStrategies, ByzantineMatrixCoversThemAndStaysHealthy) {
  const auto points = harness::named_matrix("byzantine").build();
  std::set<std::string> fault_names;
  for (const auto& point : points) {
    for (const auto& [pid, fault] : point.config.faults) {
      fault_names.insert(fault.strategy);
    }
  }
  for (const char* name :
       {"mutate", "equivocate-scheduled", "adaptive", "silent", "crash",
        "equivocate", "delay"}) {
    EXPECT_EQ(fault_names.count(name), 1u) << name;
  }
  const auto outcomes = SweepRunner(4).run(points);
  const auto summary = SweepRunner::summarize(outcomes, 1.0);
  EXPECT_EQ(summary.decided, points.size());
  EXPECT_EQ(summary.agreement_violations, 0u);
  EXPECT_EQ(summary.validity_violations, 0u);
  EXPECT_EQ(summary.errors, 0u);
}

TEST(NewStrategies, DeterministicAcrossJobCounts) {
  const auto points =
      ScenarioMatrix()
          .vc_kinds({VcKind::kAuthenticated, VcKind::kNonAuthenticated,
                     VcKind::kFast})
          .validities({ValidityKind::kStrong})
          .faults({FaultSpec{"mutate"}, FaultSpec{"equivocate-scheduled"},
                   FaultSpec{"adaptive"}})
          .sizes({{4, 1}})
          .gsts({0.0, 5.0})
          .seeds({1, 2, 3})
          .build();
  const auto jobs1 = SweepRunner(1).run(points);
  const auto jobs4 = SweepRunner(4).run(points);
  const auto jobs8 = SweepRunner(8).run(points);
  expect_equal_results(jobs1, jobs4);
  expect_equal_results(jobs1, jobs8);
}

TEST(NewStrategies, EachSurvivesEveryVcKind) {
  const StrongValidity validity;
  for (const VcKind kind : kAllVcs) {
    for (const Fault& fault :
         {Fault::mutate(0.5), Fault::scheduled_equivocate(9, 2.0),
          Fault::adaptive(/*victims=*/1, /*observe=*/4)}) {
      SCOPED_TRACE(harness::to_string(kind) + " / " + fault.strategy);
      ScenarioConfig cfg = base_config(kind);
      cfg.proposals = {1, 1, 1, 0};
      cfg.faults[3] = fault;
      const auto result = harness::run_universal(
          cfg, make_lambda(validity, cfg.n, cfg.t, {0, 1, 9}, {0, 1, 9}));
      EXPECT_TRUE(result.all_correct_decided(cfg));
      EXPECT_TRUE(result.agreement());
      // All correct processes propose 1, so Strong Validity forces 1.
      EXPECT_EQ(result.common_decision(), std::optional<Value>(1));
    }
  }
}

TEST(NewStrategies, MutateAtRateZeroMatchesNoTampering) {
  // rate = 0 never tampers, so the faulty process behaves correctly and
  // everyone decides the unanimous value.
  const StrongValidity validity;
  ScenarioConfig cfg = base_config();
  cfg.proposals = {2, 2, 2, 2};
  cfg.faults[3] = Fault::mutate(0.0);
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_EQ(result.common_decision(), std::optional<Value>(2));
}

TEST(NewStrategies, AdaptiveShimPicksTheBusiestSenders) {
  // Unit-level check of the victim choice: feed the shim a traffic pattern
  // and verify it targets the top senders, ties towards lower ids.
  sim::AdaptiveOmitShim shim(std::make_unique<sim::SilentProcess>(),
                             /*victims=*/2, /*observe=*/6);
  class NullCtx final : public sim::Context {
   public:
    [[nodiscard]] Time now() const override { return 0.0; }
    [[nodiscard]] ProcessId id() const override { return 0; }
    [[nodiscard]] int n() const override { return 4; }
    [[nodiscard]] int t() const override { return 1; }
    [[nodiscard]] Time delta() const override { return 1.0; }
    void send(ProcessId, sim::PayloadPtr) override {}
    void set_timer(Time, std::uint64_t) override {}
    [[nodiscard]] const crypto::KeyRegistry& keys() const override {
      std::abort();
    }
    [[nodiscard]] const crypto::Signer& signer() const override {
      std::abort();
    }
    [[nodiscard]] sim::Rng& rng() override { return rng_; }

   private:
    sim::Rng rng_{1};
  } ctx;
  const auto msg = sim::make_payload<sim::GarbagePayload>(1);
  // Sender 2: three messages; senders 1 and 3: one each; sender 0: one.
  for (const ProcessId from : {2, 1, 2, 3, 2, 0}) {
    shim.on_message(ctx, from, msg);
  }
  ASSERT_EQ(shim.victims().size(), 2u);
  EXPECT_EQ(shim.victims()[0], 2);  // busiest
  EXPECT_EQ(shim.victims()[1], 0);  // 1-message tie broken towards lower id
}

// ------------------------------------------------------- custom strategies

namespace {

/// Toy plugin: a correct stack that omits all sends to even-numbered peers
/// — registered from outside the harness core, as docs/adversaries.md
/// teaches.
class OmitEvensStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    std::vector<ProcessId> evens;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      if (q % 2 == 0 && q != env.self) evens.push_back(q);
    }
    return std::make_unique<sim::MessageDropShim>(
        env.recorded_stack(env.own_proposal()), /*ignore_count=*/0,
        std::move(evens));
  }
};

}  // namespace

TEST(CustomStrategies, RegisterAndRunEndToEnd) {
  auto& registry = StrategyRegistry::global();
  if (!registry.contains("test-omit-evens")) {
    registry.add("test-omit-evens",
                 [] { return std::make_unique<OmitEvensStrategy>(); });
  }
  const StrongValidity validity;
  ScenarioConfig cfg = base_config();
  cfg.proposals = {1, 1, 1, 1};
  cfg.faults[3].strategy = "test-omit-evens";
  const auto result =
      harness::run_universal(cfg, make_lambda(validity, cfg.n, cfg.t));
  EXPECT_TRUE(result.all_correct_decided(cfg));
  EXPECT_TRUE(result.agreement());
  EXPECT_EQ(result.common_decision(), std::optional<Value>(1));

  // And the sweep engine picks it up like any built-in.
  const auto points = ScenarioMatrix()
                          .faults({FaultSpec{"test-omit-evens"}})
                          .seeds({1, 2})
                          .build();
  const auto outcomes = SweepRunner(2).run(points);
  for (const auto& o : outcomes) {
    EXPECT_TRUE(o.error.empty()) << o.point.label << ": " << o.error;
    EXPECT_TRUE(o.decided) << o.point.label;
    EXPECT_NE(o.point.label.find("test-omit-evensx1"), std::string::npos);
  }
}

// -------------------------------------------------------- strategy filter

TEST(StrategyFilter, KeepsOnlyTheNamedStrategies) {
  const auto points = harness::named_matrix("byzantine")
                          .keep(harness::Axis::kStrategy, {"crash", "none"})
                          .build();
  ASSERT_FALSE(points.empty());
  for (const auto& point : points) {
    for (const auto& [pid, fault] : point.config.faults) {
      EXPECT_EQ(fault.strategy, "crash") << point.label;
    }
  }
  // Both the crash cells and the fault-free ("none") cells survive.
  EXPECT_TRUE(std::any_of(points.begin(), points.end(), [](const auto& p) {
    return p.config.faults.empty();
  }));
  EXPECT_TRUE(std::any_of(points.begin(), points.end(), [](const auto& p) {
    return !p.config.faults.empty();
  }));
}

TEST(StrategyFilter, RejectsUnknownNamesAndUnmatchedRequests) {
  // An empty filter would empty the fault dimension and shrink the matrix
  // to zero cells — a sweep that runs nothing and exits green.
  const auto keep = [](const std::vector<std::string>& names) {
    return harness::named_matrix("smoke").keep(harness::Axis::kStrategy,
                                               names);
  };
  EXPECT_THROW(keep({}), std::invalid_argument);
  EXPECT_THROW(keep({"bogus"}), std::invalid_argument);
  // Registered, but not in the smoke matrix.
  EXPECT_THROW(keep({"equivocate-scheduled"}), std::invalid_argument);
  // A partially-matching request must not silently drop the absent name.
  EXPECT_THROW(keep({"crash", "mutate"}), std::invalid_argument);
}
