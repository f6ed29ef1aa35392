// Tests for the large-n scaling layer: the lazy hash-keyed Network link
// tables (O(active links) memory, id validation; test_hot_path drives the
// real Network in lockstep against a verbatim reference), lazy key-registry
// allocation, the Topology axis (parsing, validation, wire gating,
// checkpoint identity; the contract every axis shares is in test_axis),
// committee scenarios end to end under both cert modes (including announce
// forgery rejection at the crypto layer), and the committee matrix's
// job-count independence down to the emitted bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/harness/topology.hpp"
#include "valcon/sim/network.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

// -------------------------------------------------------- lazy link tables

TEST(HybridNetwork, LinkTablesAllocateLazily) {
  sim::NetworkConfig cfg;
  sim::Network net(cfg, 50, 3);
  EXPECT_EQ(net.link_table_bytes(), 0u);
  // A clean run queries arrivals without ever touching the tables.
  for (int i = 0; i < 100; ++i) {
    static_cast<void>(net.arrival_time(i % 50, (i + 1) % 50, 0.1 * i));
  }
  EXPECT_EQ(net.link_table_bytes(), 0u);
  net.hold(0, 1, 4.0);
  EXPECT_GT(net.link_table_bytes(), 0u);
}

TEST(HybridNetwork, SparseMemoryIsProportionalToActiveLinks) {
  sim::NetworkConfig cfg;
  sim::Network net(cfg, 100000, 1);
  net.hold(0, 99999, 2.0);
  net.block(99999, 0);
  // Two active links on a 10^10-link id space: far below what even one
  // row of an n x n table would cost.
  EXPECT_LT(net.link_table_bytes(), 4096u);
}

TEST(HybridNetwork, MutationValidatesIdsInBothBackends) {
  sim::NetworkConfig cfg;
  sim::Network net(cfg, 4, 1);
  EXPECT_THROW(net.hold(0, 4, 1.0), std::out_of_range);
  EXPECT_THROW(net.block(-1, 0), std::out_of_range);
}

// ------------------------------------------------------- lazy key registry

TEST(LazyKeyRegistry, DerivesOnlyTouchedSecrets) {
  const crypto::KeyRegistry registry(1000, 667, 42);
  EXPECT_EQ(registry.key_derivations(), 0u);

  const crypto::Hash digest = announce_digest(7);
  const crypto::Signature s0 = registry.signer_for(0).sign(digest);
  const crypto::Signature s1 = registry.signer_for(1).sign(digest);
  EXPECT_EQ(registry.key_derivations(), 2u);

  // Verification of already-derived signers derives nothing new; a fresh
  // signer derives exactly one more slot.
  EXPECT_TRUE(registry.verify(s0));
  EXPECT_TRUE(registry.verify(s1));
  EXPECT_EQ(registry.key_derivations(), 2u);
  EXPECT_TRUE(registry.verify(registry.signer_for(999).sign(digest)));
  EXPECT_EQ(registry.key_derivations(), 3u);
}

TEST(LazyKeyRegistry, DerivationIsAPureFunctionOfSeedAndId) {
  const crypto::KeyRegistry a(50, 34, 9);
  const crypto::KeyRegistry b(50, 34, 9);
  const crypto::Hash digest = announce_digest(3);
  // Touch ids in different orders; signatures must still agree bit-for-bit
  // and cross-verify.
  const crypto::Signature from_a = a.signer_for(20).sign(digest);
  static_cast<void>(b.signer_for(49).sign(digest));
  const crypto::Signature from_b = b.signer_for(20).sign(digest);
  EXPECT_EQ(from_a, from_b);
  EXPECT_TRUE(b.verify(from_a));
}

// ----------------------------------------------------------- topology axis

TEST(TopologyAxis, ParsesNamedForms) {
  EXPECT_TRUE(named_topology("full-mesh").full_mesh());
  const Topology committee = named_topology("committee-10");
  EXPECT_EQ(committee.committee_k, 10);
  EXPECT_EQ(committee.name, "committee-10");
  EXPECT_EQ(Topology::committee_fault_tolerance(10), 3);

  EXPECT_THROW(static_cast<void>(named_topology("committee-0")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("committee-")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("ring")),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(named_topology("")), std::invalid_argument);
}

TEST(TopologyAxis, ValidateRejectsCommitteesLargerThanTheSystem) {
  EXPECT_NO_THROW(named_topology("committee-7").validate(7));
  EXPECT_THROW(named_topology("committee-8").validate(7),
               std::invalid_argument);
  EXPECT_NO_THROW(named_topology("full-mesh").validate(1));
}

TEST(TopologyAxis, WireGatedLikeTheOtherAxes) {
  // Trivial axis (the default full mesh): no tag, no label suffix — the
  // pinned golden sweeps depend on this staying byte-silent.
  const ScenarioMatrix legacy = named_matrix("smoke");
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const SweepPoint p = legacy.point_at(i);
    EXPECT_TRUE(p.tag(Axis::kTopology).empty());
    EXPECT_EQ(p.label.find("topo="), std::string::npos);
  }

  // Non-trivial axis: every point carries its topology in tag and label,
  // and the outcome line grows a "topology" field.
  const ScenarioMatrix wide = named_matrix("smoke").topologies(
      {"full-mesh", "committee-4"});
  EXPECT_EQ(wide.size(), legacy.size() * 2);
  bool saw_committee = false;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SweepPoint p = wide.point_at(i);
    const std::string& tag = p.tag(Axis::kTopology);
    EXPECT_FALSE(tag.empty());
    EXPECT_NE(p.label.find("topo=" + tag), std::string::npos);
    if (tag == "committee-4") saw_committee = true;
  }
  EXPECT_TRUE(saw_committee);
}

TEST(TopologyAxis, CheckpointRoundTripsTopologiesAndSplitsWorkIdentity) {
  io::Checkpoint cp;
  cp.matrix = "committee";
  cp.filter(Axis::kTopology) = "committee-4,committee-7";
  cp.total = 10;
  cp.end = 10;
  const io::Checkpoint back = io::Checkpoint::parse(cp.to_json());
  EXPECT_EQ(back.filters, cp.filters);
  EXPECT_TRUE(cp.same_work(back));

  io::Checkpoint other = cp;
  other.filter(Axis::kTopology) = "committee-4";
  EXPECT_FALSE(cp.same_work(other));
}

// ----------------------------------------------------- committee scenarios

SweepPoint committee_point(int n, int t, const std::string& topology,
                           core::CertMode mode, VcKind vc,
                           std::uint64_t seed) {
  return ScenarioMatrix()
      .vc_kinds({vc})
      .validities({ValidityKind::kStrong})
      .patterns({"unanimous"})
      .faults({FaultSpec{"silent", 0}})
      .sizes({{n, t}})
      .topologies({topology})
      .cert_modes({mode})
      .seeds({seed})
      .point_at(0);
}

TEST(CommitteeScenario, EveryProcessDecidesUnderBothCertModes) {
  for (const core::CertMode mode :
       {core::CertMode::kPerVote, core::CertMode::kAggregate}) {
    for (const VcKind vc :
         {VcKind::kAuthenticated, VcKind::kNonAuthenticated}) {
      const SweepOutcome o =
          run_point(committee_point(25, 8, "committee-7", mode, vc, 1));
      ASSERT_TRUE(o.error.empty()) << o.error;
      EXPECT_TRUE(o.result.agreement());
      // Strong validity with unanimous proposals: listeners included, all
      // 25 processes decide the proposed value.
      EXPECT_EQ(o.result.decisions.size(), 25u);
      ASSERT_TRUE(o.result.common_decision().has_value());
    }
  }
}

TEST(CommitteeScenario, MessageComplexityBeatsFullMeshAtScale) {
  const SweepOutcome mesh = run_point(committee_point(
      60, 19, "full-mesh", core::CertMode::kAggregate,
      VcKind::kAuthenticated, 1));
  const SweepOutcome committee = run_point(committee_point(
      60, 19, "committee-7", core::CertMode::kAggregate,
      VcKind::kAuthenticated, 1));
  ASSERT_TRUE(mesh.error.empty()) << mesh.error;
  ASSERT_TRUE(committee.error.empty()) << committee.error;
  EXPECT_EQ(committee.result.decisions.size(), 60u);
  EXPECT_LT(committee.result.messages_total * 5,
            mesh.result.messages_total)
      << "the committee overlay should cut traffic by far more than 5x "
         "at n=60";
}

TEST(CommitteeScenario, CommitteeTooLargeForSystemIsAValidationError) {
  const SweepOutcome o = run_point(committee_point(
      4, 1, "committee-7", core::CertMode::kPerVote, VcKind::kAuthenticated,
      1));
  EXPECT_FALSE(o.error.empty());
}

TEST(CommitteeScenario, AnnounceDigestBindsTheValue) {
  const auto keys = shared_key_registry(7, 5, 1);
  const crypto::Signature sig =
      keys->signer_for(0).sign(announce_digest(4));
  EXPECT_TRUE(keys->verify(sig));

  // A forged announce re-targeting the signature at another value dies at
  // verification: the digest listeners recompute no longer matches.
  crypto::Signature forged = sig;
  forged.digest = announce_digest(5);
  EXPECT_FALSE(keys->verify(forged));

  // And a signature from outside the committee registry (different seed →
  // different key universe) never verifies.
  const auto other = shared_key_registry(7, 5, 2);
  EXPECT_FALSE(keys->verify(other->signer_for(0).sign(announce_digest(4))));
}

// ----------------------------------------------- committee matrix identity

TEST(CommitteeMatrix, OutcomeBytesAreIdenticalAcrossJobCounts) {
  // One topology slice of the committee matrix (n up to 200, both cert
  // modes); CI byte-compares the full matrix across --jobs via the CLI.
  const ScenarioMatrix matrix =
      named_matrix("committee").keep(Axis::kTopology, {"committee-7"});
  ASSERT_GT(matrix.size(), 0u);
  const auto render = [&](int jobs) {
    std::string all;
    SweepRunner(jobs).run_range(matrix, 0, matrix.size(),
                                [&](SweepOutcome&& o) {
                                  all += io::outcome_line(o);
                                  all += '\n';
                                });
    return all;
  };
  const std::string jobs1 = render(1);
  EXPECT_EQ(jobs1, render(4));
  EXPECT_EQ(jobs1, render(8));
  EXPECT_NE(jobs1.find("\"topology\": \"committee-7\""), std::string::npos);
}

// ------------------------------------------------- sampled overlay profile

TEST(SampledOverlay, MembershipIsDeterministicAndSymmetric) {
  const NetworkProfile profile = named_network_profile("sampled-overlay");
  const sim::Network::DelayPolicy policy = profile.make_delay_policy(5.0);
  ASSERT_TRUE(static_cast<bool>(policy));

  int fast = 0, slow = 0;
  for (ProcessId a = 0; a < 40; ++a) {
    EXPECT_FALSE(policy(a, a, 1.0).has_value()) << "self-links stay fast";
    for (ProcessId b = a + 1; b < 40; ++b) {
      const std::optional<Time> fwd = policy(a, b, 1.0);
      const std::optional<Time> rev = policy(b, a, 9.0);
      EXPECT_EQ(fwd.has_value(), rev.has_value())
          << "overlay membership must be undirected";
      (fwd.has_value() ? slow : fast) += 1;
    }
  }
  // keep_permille=500: both classes are well represented at 780 pairs.
  EXPECT_GT(fast, 200);
  EXPECT_GT(slow, 200);
}

TEST(SampledOverlay, ValidateRejectsDegenerateKeepProbability) {
  NetworkProfile profile = named_network_profile("sampled-overlay");
  profile.overlay_keep_permille = 0;
  EXPECT_THROW(profile.validate(10), std::invalid_argument);
  profile.overlay_keep_permille = 1001;
  EXPECT_THROW(profile.validate(10), std::invalid_argument);
}

}  // namespace
