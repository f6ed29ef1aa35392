// Pluggable Byzantine adversary strategies.
//
// The paper's separation results each hinge on a different adversary
// construction (Lemma 2's partitioner, Theorem 1's equivocator, Theorem 4's
// message-dropper), and new adversarial scenarios should not require edits
// to the harness core. A Strategy builds the sim::Process installed for a
// faulty process — wrapping a correct stack in shims, running several
// stacks side by side, or installing network-level side effects — and the
// string-keyed StrategyRegistry makes every strategy addressable from
// ScenarioConfig, the sweep matrix and the valcon_sweep CLI.
//
// Determinism contract for strategy authors (see docs/adversaries.md): a
// strategy may only draw randomness from the per-process Rng of the
// Context it is given (sim/rng.hpp) and may not consult wall-clock time or
// any other ambient state, so that every run stays a deterministic function
// of (configuration, seed) whatever the sweep job count.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <typeinfo>
#include <vector>

#include "valcon/harness/registry.hpp"
#include "valcon/harness/scenario.hpp"
#include "valcon/sim/simulator.hpp"

namespace valcon::harness {

/// Per-run blackboard for *colluding* strategies: faulty processes built by
/// the same (or cooperating) strategies in one run share state through it —
/// a common partition plan, a joint vote-withholding ledger. run_universal
/// creates one instance per run and hands every StrategyEnv a pointer, so
/// shared state never leaks across runs (or across the concurrent runs of a
/// sweep). Builds within one run are sequential; no locking.
class StrategyShared {
 public:
  /// Returns the slot registered under `key`, default-constructing a T on
  /// first use. All callers for one key must agree on T (checked: a
  /// mismatched type throws std::logic_error).
  template <typename T>
  std::shared_ptr<T> get_or_make(const std::string& key) {
    auto [it, inserted] = slots_.try_emplace(key);
    if (inserted) {
      auto made = std::make_shared<T>();
      it->second = Slot{made, &typeid(T)};
      return made;
    }
    if (*it->second.type != typeid(T)) {
      throw std::logic_error("StrategyShared: key '" + key +
                             "' already holds a different type");
    }
    return std::static_pointer_cast<T>(it->second.value);
  }

 private:
  struct Slot {
    std::shared_ptr<void> value;
    const std::type_info* type = nullptr;
  };
  std::map<std::string, Slot> slots_;
};

/// Everything a Strategy may use while installing the process for one
/// faulty id. The stack factories build a full Universal stack (the same
/// one a correct process runs) proposing a value of the strategy's choice.
struct StrategyEnv {
  const ScenarioConfig& cfg;
  const Fault& fault;   // the parameters for this faulty process
  ProcessId self;       // the faulty process being built
  sim::Simulator& sim;  // for network()-level side effects (holds, blocks)

  /// Stack whose decisions are recorded in the RunResult (and pruned from
  /// the correctness-facing views afterwards, as the process is faulty) —
  /// use for mostly-correct behaviors such as crash or delay.
  std::function<std::unique_ptr<sim::Process>(Value proposal)> recorded_stack;

  /// Stack whose decisions are discarded — use for parallel copies such as
  /// equivocation faces, where per-face decisions are meaningless.
  std::function<std::unique_ptr<sim::Process>(Value proposal)> shadow_stack;

  /// Per-run blackboard for colluding strategies (see StrategyShared).
  /// Null only in hand-rolled test environments that predate collusion.
  StrategyShared* shared = nullptr;

  /// The proposal ScenarioConfig assigns to `self`.
  [[nodiscard]] Value own_proposal() const {
    return cfg.proposals[static_cast<std::size_t>(self)];
  }

  /// The blackboard, for strategies that require one. Throws
  /// std::logic_error if the harness did not provide it.
  [[nodiscard]] StrategyShared& shared_state() const {
    if (shared == nullptr) {
      throw std::logic_error(
          "StrategyEnv.shared is null: colluding strategies need the "
          "run-scoped StrategyShared that run_universal provides");
    }
    return *shared;
  }
};

/// One adversary behavior. Implementations must be stateless across runs
/// (a fresh instance is made per lookup); all per-run state lives in the
/// returned Process.
class Strategy {
 public:
  virtual ~Strategy() = default;

  /// Builds the process installed for env.self (never null). May also
  /// install network-level side effects through env.sim. The caller has
  /// already marked env.self faulty.
  [[nodiscard]] virtual std::unique_ptr<sim::Process> build(
      const StrategyEnv& env) const = 0;

  /// Parameter validation hook, called from harness::validate(). Throw
  /// std::invalid_argument for out-of-range parameters.
  virtual void validate(const Fault& /*fault*/,
                        const ScenarioConfig& /*cfg*/) const {}
};

/// The adversary-strategy registry (harness/registry.hpp). The global()
/// instance starts with the built-ins ("silent", "crash", "equivocate",
/// "delay", "mutate", "equivocate-scheduled", "adaptive", "collude-equivocate",
/// "collude-withhold", "forge-qc", "ebase") registered.
class StrategyRegistry : public NamedRegistry<Strategy> {
 public:
  StrategyRegistry()  // empty registry (for tests)
      : NamedRegistry("StrategyRegistry", "strategy", "adversary strategy") {}

  /// The process-wide registry, with the built-ins pre-registered.
  [[nodiscard]] static StrategyRegistry& global();
};

/// Theorem 4's E_base execution of the extended Dolev-Reischuk bound: GST
/// 0, every process proposes 7, and the group B = the last ceil(t/2) ids
/// runs "ebase". Any algorithm with a non-trivial validity property must
/// make the correct processes send more than ceil(t/2)^2 messages here
/// (RunResult::message_complexity); otherwise Lemma 5's pigeonhole yields
/// a member of B that decides without hearing anyone, and Lemma 7's merge
/// breaks Agreement.
[[nodiscard]] ScenarioConfig ebase_scenario(int n, int t, VcKind vc,
                                            std::uint64_t seed);

/// Theorem 1 / Lemma 2's partition over the authenticated stack. Groups:
/// A = [0, n-2t) proposes 0, B = [n-2t, n-t) runs "collude-equivocate"
/// (face 0 proposes 0 to A, face 1 proposes 1 to C), C = [n-t, n) proposes
/// 1. A <-> C traffic is held until 1e6, well before GST = 2e6.
///
///   n = 3t   : A∪B and C∪B each muster n-t participants and decide 0 and
///              1 — Agreement breaks between correct processes, the
///              contradiction of Lemma 2's merged execution.
///   n = 3t+1 : the C side is one process short of a quorum; it stalls
///              until GST and then adopts A's decision — no violation,
///              the paper's n > 3t solvability frontier.
///
/// Throws std::invalid_argument unless t >= 1 and n is 3t or 3t+1.
[[nodiscard]] ScenarioConfig partition_scenario(int n, int t,
                                                std::uint64_t seed);

}  // namespace valcon::harness
