#include "valcon/harness/pattern.hpp"

#include <stdexcept>
#include <utility>

namespace valcon::harness {

namespace {

Value mod_domain(std::uint64_t x, Value domain) {
  return static_cast<Value>(x % static_cast<std::uint64_t>(domain));
}

/// "rotating" — (p + seed) % domain, the historical hard-coded assignment.
/// The arithmetic must stay byte-for-byte what ScenarioMatrix used to
/// inline: the pinned "full" matrix is generated through this pattern.
class RotatingPattern final : public ProposalPattern {
 public:
  std::vector<Value> assign(const PatternEnv& env) const override {
    std::vector<Value> out;
    out.reserve(static_cast<std::size_t>(env.n));
    for (int p = 0; p < env.n; ++p) {
      out.push_back((static_cast<Value>(p) + static_cast<Value>(env.seed)) %
                    env.domain);
    }
    return out;
  }
};

/// "unanimous" — everyone proposes seed % domain. The configuration that
/// makes Strong validity bite (unanimity pins the decision).
class UnanimousPattern final : public ProposalPattern {
 public:
  std::vector<Value> assign(const PatternEnv& env) const override {
    return std::vector<Value>(static_cast<std::size_t>(env.n),
                              mod_domain(env.seed, env.domain));
  }
};

/// "split" — the lower half (p < n/2, the same halving the equivocation
/// strategies use) proposes seed % domain, the upper half the next value.
class SplitPattern final : public ProposalPattern {
 public:
  std::vector<Value> assign(const PatternEnv& env) const override {
    const Value lower = mod_domain(env.seed, env.domain);
    const Value upper = mod_domain(env.seed + 1, env.domain);
    const int half = env.n / 2;
    std::vector<Value> out;
    out.reserve(static_cast<std::size_t>(env.n));
    for (int p = 0; p < env.n; ++p) out.push_back(p < half ? lower : upper);
    return out;
  }
};

/// "adversarial" — the assignment most hostile to the cell's validity
/// property:
///
///  * CorrectProposal: maximal diversity, p % domain. Over a small domain
///    this is the pigeonhole configuration — at domain 2 every 3-entry
///    decision vector still repeats a value, which is exactly what makes
///    the property solvable at n=4, t=1 (and what the old 3-value rotating
///    assignment could never reach).
///  * Strong/Weak: unanimity broken by a single dissenter at process n-1
///    (the id the matrix faults first) — correct processes stay unanimous
///    under the highest-ids-fail convention, so the property binds while
///    the dissent rides in the faulty entry of the decision vector.
///  * Median/ConvexHull: alternating extremes {0, domain-1}, maximizing
///    the spread the interval properties must bracket.
class AdversarialPattern final : public ProposalPattern {
 public:
  std::vector<Value> assign(const PatternEnv& env) const override {
    std::vector<Value> out;
    out.reserve(static_cast<std::size_t>(env.n));
    switch (env.validity) {
      case ValidityKind::kCorrectProposal:
        for (int p = 0; p < env.n; ++p) {
          out.push_back(static_cast<Value>(p) % env.domain);
        }
        return out;
      case ValidityKind::kStrong:
      case ValidityKind::kWeak: {
        const Value common = mod_domain(env.seed, env.domain);
        out.assign(static_cast<std::size_t>(env.n), common);
        out.back() = mod_domain(env.seed + 1, env.domain);
        return out;
      }
      case ValidityKind::kMedian:
      case ValidityKind::kConvexHull:
        for (int p = 0; p < env.n; ++p) {
          out.push_back(p % 2 == 0 ? 0 : env.domain - 1);
        }
        return out;
    }
    throw std::invalid_argument("adversarial pattern: unknown ValidityKind");
  }
};

}  // namespace

PatternRegistry& PatternRegistry::global() {
  static PatternRegistry* registry = [] {
    auto* r = new PatternRegistry();
    r->add<RotatingPattern>("rotating");
    r->add<UnanimousPattern>("unanimous");
    r->add<SplitPattern>("split");
    r->add<AdversarialPattern>("adversarial");
    return r;
  }();
  return *registry;
}

}  // namespace valcon::harness
