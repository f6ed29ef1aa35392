// Pins the invariants established by the PR-6 determinism audit (see
// docs/static-analysis.md): output-feeding views are sorted materializations
// independent of intern/hash order, serialization is dense-index order, and
// caller-input validation is a real error path that survives NDEBUG.

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "valcon/consensus/reed_solomon.hpp"
#include "valcon/core/input_config.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/sim/metrics.hpp"
#include "valcon/sim/payload.hpp"

namespace {

using valcon::core::InputConfig;

TEST(DeterminismAudit, ByTypeIsSortedByNameNotInternOrder) {
  // Intern in reverse-lexical order: the ids come out in intern order, but
  // by_type() must re-key by name into a sorted map before anything is
  // serialized from it.
  const auto zeta = valcon::sim::PayloadTypeRegistry::intern("audit/zeta");
  const auto alpha = valcon::sim::PayloadTypeRegistry::intern("audit/alpha");

  valcon::sim::Metrics m;
  m.on_send(true, true, 1, zeta);
  m.on_send(true, true, 1, alpha);
  m.on_send(true, true, 1, zeta);
  m.on_send(false, true, 1, zeta);   // faulty sender: not counted
  m.on_send(true, false, 1, alpha);  // pre-GST: not counted

  const auto by = m.by_type();
  ASSERT_EQ(by.count("audit/alpha"), 1u);
  ASSERT_EQ(by.count("audit/zeta"), 1u);
  EXPECT_EQ(by.at("audit/alpha"), 1u);
  EXPECT_EQ(by.at("audit/zeta"), 2u);

  // std::map iteration is the serialization order: sorted by name.
  std::vector<std::string> keys;
  std::uint64_t sum = 0;
  for (const auto& [name, count] : by) {
    keys.push_back(name);
    sum += count;
  }
  EXPECT_TRUE(std::is_sorted(keys.begin(), keys.end()));
  EXPECT_EQ(sum, m.message_complexity());
}

TEST(DeterminismAudit, RegistryRoundTripAndUnknownIdThrows) {
  const auto id = valcon::sim::PayloadTypeRegistry::intern("audit/roundtrip");
  EXPECT_EQ(valcon::sim::PayloadTypeRegistry::name_of(id), "audit/roundtrip");
  EXPECT_EQ(valcon::sim::PayloadTypeRegistry::intern("audit/roundtrip"), id);
  EXPECT_THROW(valcon::sim::PayloadTypeRegistry::name_of(0xFFFFFFFFu),
               std::out_of_range);
}

TEST(DeterminismAudit, InputConfigDigestIgnoresInsertionOrder) {
  // Slot storage is dense: the digest and the serialized bytes must be a
  // pure function of (n, slot contents), not of the order set() was called.
  const InputConfig a = InputConfig::of(5, {{0, 7}, {3, 2}, {4, 9}});
  const InputConfig b = InputConfig::of(5, {{4, 9}, {0, 7}, {3, 2}});
  EXPECT_EQ(a.digest(), b.digest());
  EXPECT_EQ(a.serialize(), b.serialize());

  const auto back = InputConfig::deserialize(a.serialize());
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->digest(), a.digest());
}

TEST(DeterminismAudit, InputConfigDeserializeRejectsMalformedBytes) {
  // External input gets an error path, not an assert.
  EXPECT_FALSE(InputConfig::deserialize({}).has_value());
  auto bytes = InputConfig::of(3, {{1, 4}}).serialize();
  bytes.pop_back();  // truncated
  EXPECT_FALSE(InputConfig::deserialize(bytes).has_value());
}

TEST(DeterminismAudit, ReedSolomonRejectsBadParameters) {
  using valcon::consensus::ReedSolomon;
  EXPECT_THROW(ReedSolomon(5, 0), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(4, 5), std::invalid_argument);
  EXPECT_THROW(ReedSolomon(256, 2), std::invalid_argument);

  // Valid parameters still round-trip.
  const ReedSolomon rs(4, 2);
  const std::vector<std::uint8_t> data = {1, 2, 3, 4, 5};
  const auto shares = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> received(
      shares.begin(), shares.end());
  const auto decoded = rs.decode(received, 0);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

TEST(DeterminismAudit, PartitionExperimentRejectsBadGeometry) {
  // n must be 3t or 3t+1 with t >= 1: outside that, the Lemma 2
  // construction is meaningless and the call must refuse, not assert.
  EXPECT_THROW(static_cast<void>(valcon::harness::partition_scenario(8, 2, 1)),
               std::invalid_argument);
  EXPECT_THROW(static_cast<void>(valcon::harness::partition_scenario(3, 0, 1)),
               std::invalid_argument);
}

}  // namespace
