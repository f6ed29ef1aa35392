// Lint fixture: protocol code that tallies senders densely (the file sits
// under a consensus/ directory).  Never compiled; zero findings.
#include <array>
#include <map>
#include <set>
#include <unordered_set>

#include "valcon/core/process_set.hpp"
#include "valcon/crypto/hash.hpp"

struct RoundVotes {
  std::array<valcon::core::ProcessSet, 3> prevotes;  // nil / 0 / 1
  valcon::core::ProcessSet participants;
  // Sets keyed by something other than a process id are not tallies.
  std::set<valcon::crypto::Hash> certified;
  std::multiset<int> multiplicities;
};

// A std::set<ProcessId> in a comment or "std::set<int>" in a string is
// not code.
const char* kNote = "std::set<int> is banned here";

// valcon-lint: allow(set-tally) -- ordered walk over senders feeds output
std::set<int> ordered_senders;
