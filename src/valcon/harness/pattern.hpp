// Pluggable proposal patterns.
//
// The similarity condition at the heart of the paper (Definition 2,
// Theorem 3) is a statement about *adversarially chosen* proposal
// assignments: whether a validity property is solvable hinges on which
// input configurations the adversary can reach. The sweep matrix used to
// hard-code a single assignment — (p + seed) % domain — which made whole
// regions of the input space unreachable (e.g. CorrectProposal validity
// was unsolvable in every matrix at n=4, t=1 purely because the assignment
// never repeated a value over a 3-value domain). A ProposalPattern makes
// the assignment a first-class, enumerable dimension, mirroring the
// adversary-strategy registry (strategy.hpp).
//
// Determinism contract (same as for strategies): a pattern must be a pure
// function of its PatternEnv — no ambient state, no wall clock, no global
// RNG — so every matrix cell stays a deterministic function of
// (configuration, seed) whatever the sweep job count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/harness/registry.hpp"
#include "valcon/harness/validity_kind.hpp"

namespace valcon::harness {

/// Everything a pattern may condition on when assigning proposals.
struct PatternEnv {
  int n = 4;
  int t = 1;
  std::uint64_t seed = 1;
  /// Proposals must land in [0, domain).
  Value domain = 3;
  /// The validity property the cell is judged by — the lever that lets the
  /// "adversarial" pattern pick the assignment most hostile to it.
  ValidityKind validity = ValidityKind::kStrong;
};

/// One proposal assignment rule. Implementations must be stateless (a
/// fresh instance is made per lookup); see the determinism contract above.
class ProposalPattern {
 public:
  virtual ~ProposalPattern() = default;

  /// One proposal per process (index = process id), each in
  /// [0, env.domain). The matrix validates both properties at build time
  /// and rejects violations loudly.
  [[nodiscard]] virtual std::vector<Value> assign(
      const PatternEnv& env) const = 0;
};

/// The proposal-pattern registry (harness/registry.hpp). The global()
/// instance starts with the built-in patterns registered:
///
///   "rotating"    — (p + seed) % domain: the historical default, each
///                   process one step ahead of its predecessor
///   "unanimous"   — every process proposes seed % domain
///   "split"       — the lower half (p < n/2) proposes seed % domain, the
///                   upper half (seed + 1) % domain
///   "adversarial" — the assignment most hostile to the cell's validity
///                   property: all-distinct (p % domain) for
///                   CorrectProposal, unanimity broken by a single
///                   dissenter (process n-1) for Strong/Weak, alternating
///                   extremes {0, domain-1} for Median/ConvexHull
class PatternRegistry : public NamedRegistry<ProposalPattern> {
 public:
  PatternRegistry()  // empty registry (for tests)
      : NamedRegistry("PatternRegistry", "pattern", "proposal pattern") {}

  /// The process-wide registry, with the built-ins pre-registered.
  [[nodiscard]] static PatternRegistry& global();
};

}  // namespace valcon::harness
