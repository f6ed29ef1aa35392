// Lint fixture: node-per-vote sender tallies in protocol code (the file
// sits under a consensus/ directory).  Never compiled.
#include <map>
#include <optional>
#include <set>

#include "valcon/common.hpp"

using valcon::ProcessId;

struct RoundVotes {
  std::map<std::optional<bool>, std::set<ProcessId>> prevotes;  // lint-expect: set-tally
  std::set<int> participants;  // lint-expect: set-tally
  std::set< valcon::ProcessId > echoes;  // lint-expect: set-tally
  set<ProcessId> bare;  // lint-expect: set-tally
};

bool first_vote(std::set<ProcessId>& seen, ProcessId from) {  // lint-expect: set-tally
  return seen.insert(from).second;
}
