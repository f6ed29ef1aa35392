// Unit tests: the signature-free binary consensus (the "Binary DBFT"
// substrate of Algorithm 3) — agreement, termination, the justified-value
// validity Algorithm 3 depends on, late proposals, silent faults, and
// Byzantine equivocation.
#include <gtest/gtest.h>

#include <map>
#include <optional>

#include "valcon/consensus/binary_consensus.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::sim;
using consensus::BinaryConsensus;

namespace {

class BinHost final : public Mux {
 public:
  BinHost(std::optional<bool> input, Time propose_at,
          std::map<ProcessId, bool>* decisions)
      : input_(input), propose_at_(propose_at), decisions_(decisions) {
    bin_ = &make_child<BinaryConsensus>([this](Context& ctx, bool v) {
      decisions_->emplace(ctx.id(), v);
    });
  }

 protected:
  void own_start(Context& ctx) override {
    if (!input_.has_value()) return;
    if (propose_at_ <= 0) {
      bin_->propose(child_context(0), *input_);
    } else {
      set_own_timer(ctx, propose_at_, 1);
    }
  }
  void own_timer(Context&, std::uint64_t) override {
    if (input_.has_value()) bin_->propose(child_context(0), *input_);
  }

 private:
  std::optional<bool> input_;
  Time propose_at_;
  std::map<ProcessId, bool>* decisions_;
  BinaryConsensus* bin_;
};

SimConfig cfg(int n, int t, std::uint64_t seed) {
  SimConfig c;
  c.n = n;
  c.t = t;
  c.seed = seed;
  c.net.delta = 1.0;
  return c;
}

struct Setup {
  int n;
  int t;
  std::uint64_t seed;
};

std::map<ProcessId, bool> run_binary(
    const Setup& setup, const std::vector<std::optional<bool>>& inputs,
    const std::vector<ProcessId>& silent = {}, Time late_at = 0.0) {
  Simulator sim(cfg(setup.n, setup.t, setup.seed));
  std::map<ProcessId, bool> decisions;
  for (ProcessId p = 0; p < setup.n; ++p) {
    const bool is_silent =
        std::find(silent.begin(), silent.end(), p) != silent.end();
    if (is_silent) {
      sim.mark_faulty(p);
      sim.add_process(p, std::make_unique<SilentProcess>());
      continue;
    }
    sim.add_process(
        p, std::make_unique<ComponentHost>(std::make_unique<BinHost>(
               inputs[static_cast<std::size_t>(p)], late_at, &decisions)));
  }
  sim.run(1e6);
  for (const ProcessId p : silent) decisions.erase(p);
  return decisions;
}

}  // namespace

TEST(BinaryConsensus, UnanimousOneDecidesOne) {
  const auto decisions = run_binary({4, 1, 1}, {true, true, true, true});
  ASSERT_EQ(decisions.size(), 4u);
  for (const auto& [p, v] : decisions) EXPECT_TRUE(v);
}

TEST(BinaryConsensus, UnanimousZeroDecidesZero) {
  const auto decisions = run_binary({4, 1, 2}, {false, false, false, false});
  ASSERT_EQ(decisions.size(), 4u);
  for (const auto& [p, v] : decisions) EXPECT_FALSE(v);
}

TEST(BinaryConsensus, MixedInputsAgreeOnAProposedValue) {
  const auto decisions = run_binary({4, 1, 3}, {true, false, true, false});
  ASSERT_EQ(decisions.size(), 4u);
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

TEST(BinaryConsensus, JustifiedValidity_AllCorrectZeroByzantineCannotForceOne) {
  // Three correct processes propose 0; the faulty one is silent. The
  // decision must be 0: 1 is never justified (at most t EST(1) senders).
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const auto decisions =
        run_binary({4, 1, seed}, {false, false, false, std::nullopt}, {3});
    ASSERT_EQ(decisions.size(), 3u) << "seed " << seed;
    for (const auto& [p, v] : decisions) EXPECT_FALSE(v) << "seed " << seed;
  }
}

TEST(BinaryConsensus, ToleratesSilentProposer) {
  // P0 proposes round 0; make it silent — rounds must rotate past it.
  const auto decisions =
      run_binary({4, 1, 4}, {std::nullopt, true, true, true}, {0});
  ASSERT_EQ(decisions.size(), 3u);
  for (const auto& [p, v] : decisions) EXPECT_TRUE(v);
}

TEST(BinaryConsensus, LateProposalsStillTerminate) {
  // Algorithm 3 proposes 0s only after n-t instances decided 1: proposals
  // can arrive long after on_start. Delay all proposals by 30 delta.
  const auto decisions = run_binary({4, 1, 5}, {true, true, false, true}, {},
                                    /*late_at=*/30.0);
  ASSERT_EQ(decisions.size(), 4u);
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

TEST(BinaryConsensus, EquivocatingProcessCannotBreakAgreement) {
  // A two-faced process proposes 0 to one half and 1 to the other.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    Simulator sim(cfg(4, 1, seed));
    std::map<ProcessId, bool> decisions;
    sim.mark_faulty(3);
    for (ProcessId p = 0; p < 3; ++p) {
      sim.add_process(
          p, std::make_unique<ComponentHost>(std::make_unique<BinHost>(
                 p % 2 == 0, 0.0, &decisions)));
    }
    std::map<ProcessId, bool> byz_decisions;
    auto face0 = std::make_unique<ComponentHost>(
        std::make_unique<BinHost>(false, 0.0, &byz_decisions));
    auto face1 = std::make_unique<ComponentHost>(
        std::make_unique<BinHost>(true, 0.0, &byz_decisions));
    sim.add_process(3, std::make_unique<TwoFacedProcess>(
                           std::move(face0), std::move(face1),
                           [](ProcessId p) { return p % 2; }));
    sim.run(1e6);
    ASSERT_EQ(decisions.size(), 3u) << "seed " << seed;
    std::optional<bool> seen;
    for (const auto& [p, v] : decisions) {
      if (seen.has_value()) {
        EXPECT_EQ(v, *seen) << "seed " << seed;
      }
      seen = v;
    }
  }
}

// Parameterized sweep: agreement + termination across system sizes, fault
// patterns and schedules.
class BinarySweep : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(BinarySweep, AgreementAndTermination) {
  const auto [n, seed_int] = GetParam();
  const int t = (n - 1) / 3;
  const auto seed = static_cast<std::uint64_t>(seed_int);
  std::vector<std::optional<bool>> inputs;
  for (int p = 0; p < n; ++p) inputs.emplace_back((p + seed_int) % 2 == 0);
  std::vector<ProcessId> silent;
  for (int f = 0; f < t; ++f) silent.push_back(n - 1 - f);
  const auto decisions = run_binary({n, t, seed}, inputs, silent);
  ASSERT_EQ(decisions.size(), static_cast<std::size_t>(n - t));
  std::optional<bool> seen;
  for (const auto& [p, v] : decisions) {
    if (seen.has_value()) {
      EXPECT_EQ(v, *seen);
    }
    seen = v;
  }
}

INSTANTIATE_TEST_SUITE_P(Sweep, BinarySweep,
                         ::testing::Combine(::testing::Values(4, 7, 10),
                                            ::testing::Range(1, 6)));
