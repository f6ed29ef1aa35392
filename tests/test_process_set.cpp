// core::ProcessSet, the dense vote-tally set: seeded random insert / erase /
// contains sequences against a std::set reference (return values and size
// included), ids on both sides of the inline/heap boundary, the negative-id
// contract, and insert_all against per-id inserts for certificate bitsets
// of several capacities.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <vector>

#include "valcon/core/process_set.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/rng.hpp"

using namespace valcon;
using core::ProcessSet;

namespace {

// Ids that straddle the word and inline/heap boundaries, plus a far one.
const std::vector<ProcessId> kEdgeIds = {0, 63, 64, 127, 128, 129, 2000};

void expect_same(const ProcessSet& got, const std::set<ProcessId>& want,
                 ProcessId max_id) {
  ASSERT_EQ(got.size(), static_cast<int>(want.size()));
  for (ProcessId id = 0; id <= max_id; ++id) {
    ASSERT_EQ(got.contains(id), want.contains(id)) << "id " << id;
  }
}

}  // namespace

TEST(ProcessSet, StartsEmpty) {
  const ProcessSet s;
  EXPECT_EQ(s.size(), 0);
  for (const ProcessId id : kEdgeIds) EXPECT_FALSE(s.contains(id));
}

TEST(ProcessSet, EdgeIdsInsertEraseAndCount) {
  ProcessSet s;
  std::set<ProcessId> ref;
  for (const ProcessId id : kEdgeIds) {
    EXPECT_TRUE(s.insert(id)) << id;
    EXPECT_FALSE(s.insert(id)) << id;
    ref.insert(id);
    expect_same(s, ref, 2100);
  }
  for (const ProcessId id : kEdgeIds) {
    EXPECT_TRUE(s.erase(id)) << id;
    EXPECT_FALSE(s.erase(id)) << id;
    ref.erase(id);
    expect_same(s, ref, 2100);
  }
  // Erasing or testing an id beyond anything inserted is a no-op.
  EXPECT_FALSE(s.erase(5000));
  EXPECT_FALSE(s.contains(5000));
}

TEST(ProcessSet, RandomSequencesMatchStdSet) {
  for (const std::uint64_t seed : {1u, 2u, 3u, 4u, 5u}) {
    sim::Rng rng(seed);
    ProcessSet s;
    std::set<ProcessId> ref;
    for (int step = 0; step < 4000; ++step) {
      // Mostly small ids (the inline words), some past them, some edges.
      ProcessId id = 0;
      const std::uint64_t pick = rng.next_below(10);
      if (pick < 6) {
        id = static_cast<ProcessId>(rng.next_below(130));
      } else if (pick < 9) {
        id = static_cast<ProcessId>(rng.next_below(2100));
      } else {
        id = kEdgeIds[rng.next_below(kEdgeIds.size())];
      }
      switch (rng.next_below(3)) {
        case 0:
          ASSERT_EQ(s.insert(id), ref.insert(id).second) << "seed " << seed;
          break;
        case 1:
          ASSERT_EQ(s.erase(id), ref.erase(id) == 1) << "seed " << seed;
          break;
        default:
          ASSERT_EQ(s.contains(id), ref.contains(id)) << "seed " << seed;
          break;
      }
      ASSERT_EQ(s.size(), static_cast<int>(ref.size())) << "seed " << seed;
    }
    expect_same(s, ref, 2100);
  }
}

TEST(ProcessSet, NegativeIdThrowsOnInsertAndReadsAbsent) {
  ProcessSet s;
  EXPECT_THROW(s.insert(-1), std::out_of_range);
  EXPECT_THROW(s.insert(-64), std::out_of_range);
  EXPECT_EQ(s.size(), 0);
  EXPECT_FALSE(s.contains(-1));
  EXPECT_FALSE(s.erase(-1));
}

TEST(ProcessSet, InsertAllEqualsPerIdInserts) {
  for (const int n : {7, 130, 2000}) {
    sim::Rng rng(static_cast<std::uint64_t>(n));
    for (int trial = 0; trial < 20; ++trial) {
      // A set that already holds some ids, then a certificate's voters.
      ProcessSet merged;
      ProcessSet one_by_one;
      for (int k = 0; k < 10; ++k) {
        const auto id = static_cast<ProcessId>(rng.next_below(
            static_cast<std::uint64_t>(n)));
        merged.insert(id);
        one_by_one.insert(id);
      }
      crypto::VoterBitset voters(n);
      for (ProcessId id = 0; id < n; ++id) {
        if (rng.next_below(3) == 0) voters.set(id);
      }
      merged.insert_all(voters);
      for (ProcessId id = 0; id < n; ++id) {
        if (voters.test(id)) one_by_one.insert(id);
      }
      ASSERT_EQ(merged.size(), one_by_one.size()) << "n " << n;
      for (ProcessId id = 0; id < n + 64; ++id) {
        ASSERT_EQ(merged.contains(id), one_by_one.contains(id))
            << "n " << n << " id " << id;
      }
    }
  }
}

TEST(ProcessSet, InsertAllOfAnEmptyBitsetChangesNothing) {
  ProcessSet s;
  s.insert(3);
  s.insert_all(crypto::VoterBitset(2000));
  s.insert_all(crypto::VoterBitset());
  EXPECT_EQ(s.size(), 1);
  EXPECT_TRUE(s.contains(3));
}
