#include "valcon/harness/strategy.hpp"

#include <set>
#include <stdexcept>
#include <utility>

#include "valcon/core/quorum.hpp"
#include "valcon/sim/adversary.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::harness {

namespace {

[[noreturn]] void bad_param(const std::string& strategy,
                            const std::string& what) {
  throw std::invalid_argument("strategy '" + strategy + "': " + what);
}

/// "silent" — no computational steps at all (canonical executions, §3.1).
class SilentStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv&) const override {
    return std::make_unique<sim::SilentProcess>();
  }
};

/// "crash" — correct until fault.crash_time, then silent.
class CrashStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::CrashShim>(
        env.recorded_stack(env.own_proposal()), env.fault.crash_time);
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.crash_time < 0) bad_param("crash", "crash_time must be >= 0");
  }
};

/// "equivocate" — the Lemma 2 partitioning adversary: two independent
/// correct stacks with conflicting proposals, each confined to its half of
/// the process set (lower half sees the own proposal, upper half sees
/// fault.equivocal_value).
class EquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const int half = env.cfg.n / 2;
    return std::make_unique<sim::TwoFacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        [half](ProcessId q) { return q < half ? 0 : 1; });
  }
};

/// "delay" — the process itself behaves correctly; the adversary holds all
/// its outbound links (the self-link models local computation and stays
/// prompt) until release_time, clipped by the network to the model bound
/// max(send, GST) + delta.
class DelayStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const Time release = env.fault.release_time >= 0
                             ? env.fault.release_time
                             : env.cfg.gst + env.cfg.delta;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      if (q != env.self) env.sim.network().hold(env.self, q, release);
    }
    return env.recorded_stack(env.own_proposal());
  }
};

/// "mutate" — correct stack whose outbound messages are tampered with
/// probability fault.mutate_rate (drop / garble / duplicate).
class MutateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::MutatingShim>(
        env.recorded_stack(env.own_proposal()), env.fault.mutate_rate);
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.mutate_rate < 0.0 || fault.mutate_rate > 1.0) {
      bad_param("mutate", "mutate_rate must be in [0, 1]");
    }
  }
};

/// "equivocate-scheduled" — everyone sees face 0 (own proposal) until
/// fault.switch_time (< 0 resolves to GST); from then on the upper half is
/// handled by a second stack proposing fault.equivocal_value, which joins
/// the run late with conflicting state.
class ScheduledEquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    const Time switch_at =
        env.fault.switch_time >= 0 ? env.fault.switch_time : env.cfg.gst;
    const int half = env.cfg.n / 2;
    return std::make_unique<sim::TwoFacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        sim::TwoFacedProcess::TimedSide(
            [half, switch_at](ProcessId q, Time now) {
              return (now >= switch_at && q >= half) ? 1 : 0;
            }));
  }
};

/// "adaptive" — correct stack that counts inbound deliveries and, after
/// fault.observe of them, permanently omits sends to the fault.victims
/// busiest senders.
class AdaptiveStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<sim::AdaptiveOmitShim>(
        env.recorded_stack(env.own_proposal()), env.fault.victims,
        env.fault.observe);
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.victims < 0) bad_param("adaptive", "victims must be >= 0");
    if (fault.observe < 0) bad_param("adaptive", "observe must be >= 0");
  }
};

/// Shared partition plan of a collude-equivocate group: the sorted colluder
/// ids, the side assignment for every outsider, and whether the cross-side
/// network holds were already installed (the first builder does it once for
/// the whole group).
struct CollusionPlan {
  std::vector<ProcessId> colluders;
  std::vector<int> side;  // indexed by pid; colluders' own entries unused
  bool holds_installed = false;
};

/// Builds (once per run) the partition plan shared by every process whose
/// fault uses `strategy_name`: colluders are all such processes, outsiders
/// are split lower-half / upper-half into sides 0 and 1.
std::shared_ptr<CollusionPlan> collusion_plan(const StrategyEnv& env,
                                              const char* strategy_name) {
  auto plan = env.shared_state().get_or_make<CollusionPlan>(
      std::string(strategy_name) + "/plan");
  if (plan->side.empty()) {
    plan->side.assign(static_cast<std::size_t>(env.cfg.n), 0);
    for (const auto& [pid, fault] : env.cfg.faults) {
      if (fault.strategy == strategy_name) plan->colluders.push_back(pid);
    }
    std::vector<ProcessId> outsiders;
    for (ProcessId q = 0; q < env.cfg.n; ++q) {
      const auto it = env.cfg.faults.find(q);
      if (it == env.cfg.faults.end() || it->second.strategy != strategy_name) {
        outsiders.push_back(q);
      }
    }
    const std::size_t half = (outsiders.size() + 1) / 2;
    for (std::size_t i = 0; i < outsiders.size(); ++i) {
      plan->side[static_cast<std::size_t>(outsiders[i])] = i < half ? 0 : 1;
    }
  }
  return plan;
}

/// "collude-equivocate" — the Lemma 2 partition adversary executed by the
/// whole colluding group at once. Every colluder runs two faces (own
/// proposal vs. fault.equivocal_value) with ONE shared side assignment, and
/// colluder-to-colluder traffic is face-tagged so both world views stay
/// mutually consistent across the group. The first builder additionally
/// holds the outsider-to-outsider cross-side links until release_time
/// (default: the horizon) — the network clips every held delivery to
/// max(send, GST) + delta (sim/network.hpp), so the partition heals itself
/// at GST and the schedule stays within the model. In the sound regime
/// (n > 3t) this cannot create disagreement; at n <= 3t each side can reach
/// quorum alone pre-GST, which is exactly the counterexample the adversary
/// search mines for.
class ColludeEquivocateStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    auto plan = collusion_plan(env, "collude-equivocate");
    if (!plan->holds_installed) {
      plan->holds_installed = true;
      const Time release = env.fault.release_time >= 0
                               ? env.fault.release_time
                               : env.cfg.horizon;
      std::vector<ProcessId> side0;
      std::vector<ProcessId> side1;
      for (ProcessId q = 0; q < env.cfg.n; ++q) {
        const auto it = env.cfg.faults.find(q);
        if (it != env.cfg.faults.end() &&
            it->second.strategy == "collude-equivocate") {
          continue;
        }
        (plan->side[static_cast<std::size_t>(q)] == 0 ? side0 : side1)
            .push_back(q);
      }
      env.sim.network().hold_between(side0, side1, release);
    }
    return std::make_unique<sim::ColludingFacedProcess>(
        env.shadow_stack(env.own_proposal()),
        env.shadow_stack(env.fault.equivocal_value),
        [plan](ProcessId q) {
          return plan->side[static_cast<std::size_t>(q)];
        },
        plan->colluders);
  }
};

/// "collude-withhold" — quorum-edge vote withholding: the group behaves
/// correctly while a SHARED tally of inbound deliveries (summed over all
/// members) is below fault.observe; the delivery that trips it makes every
/// member simultaneously stop sending to the fault.victims lowest-id
/// correct processes. The shared trip wire is what a lone AdaptiveOmitShim
/// cannot do: all colluding votes vanish from the victims' quorums at one
/// logical instant, mid-protocol.
class ColludeWithholdStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    auto ledger = env.shared_state().get_or_make<sim::WithholdLedger>(
        "collude-withhold/ledger");
    if (!ledger->configured) {
      ledger->configured = true;
      ledger->threshold = static_cast<std::uint64_t>(
          env.fault.observe > 0 ? env.fault.observe : 0);
      int want = env.fault.victims;
      for (ProcessId q = 0; q < env.cfg.n && want > 0; ++q) {
        if (env.cfg.faults.count(q) == 0) {
          ledger->victims.push_back(q);
          --want;
        }
      }
    }
    return std::make_unique<sim::ColludingOmitShim>(
        env.recorded_stack(env.own_proposal()), std::move(ledger));
  }
  void validate(const Fault& fault, const ScenarioConfig&) const override {
    if (fault.victims < 0) {
      bad_param("collude-withhold", "victims must be >= 0");
    }
    if (fault.observe < 0) {
      bad_param("collude-withhold", "observe must be >= 0");
    }
  }
};

/// "ebase" — Theorem 4's E_base group B, every process carrying this
/// strategy: a correct stack that ignores its first |B| deliveries and never
/// sends to a member of B, itself included (see ebase_scenario).
class EbaseStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    std::vector<ProcessId> group;
    for (const auto& [pid, fault] : env.cfg.faults) {
      if (fault.strategy == "ebase") group.push_back(pid);
    }
    const int ignore = static_cast<int>(group.size());
    return std::make_unique<sim::MessageDropShim>(
        env.recorded_stack(env.own_proposal()), ignore, std::move(group));
  }
};

/// Shim for "forge-qc": a full correct inner stack, plus a forgery reflex —
/// every genuine QuorumCertificatePayload it observes inbound (unwrapped
/// through the MuxMsg nesting chain, then re-wrapped in the same chain so
/// the forgeries route to the same protocol layer at every receiver) is
/// answered with two forged broadcast variants: one with an inflated voter
/// bitset (a voter the aggregate does not cover) and one with a tampered
/// aggregate MAC over the genuine voter set. One forgery pair per distinct
/// certificate digest keeps the extra traffic bounded; the self-delivered
/// forgeries re-enter maybe_forge with an already-seen digest, so the
/// reflex can never feed itself. Honest receivers recompute the expected
/// digest and pay one verify_aggregate, so every forgery must be rejected
/// — a run with this fault must be indistinguishable (decisions,
/// agreement, validity) from the corresponding fault-free run.
class ForgeQcShim final : public sim::Process {
 public:
  explicit ForgeQcShim(std::unique_ptr<sim::Process> inner)
      : inner_(std::move(inner)) {}

  void on_start(sim::Context& ctx) override { inner_->on_start(ctx); }
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override {
    maybe_forge(ctx, m);
    inner_->on_message(ctx, from, m);
  }
  void on_timer(sim::Context& ctx, std::uint64_t tag) override {
    inner_->on_timer(ctx, tag);
  }

 private:
  /// Re-wraps a forged leaf in the observed MuxMsg chain, outermost first.
  [[nodiscard]] static sim::PayloadPtr rewrap(
      const std::vector<std::uint32_t>& chain, sim::PayloadPtr forged) {
    for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
      forged = sim::make_payload<sim::MuxMsg>(*it, std::move(forged));
    }
    return forged;
  }

  void maybe_forge(sim::Context& ctx, const sim::PayloadPtr& m) {
    std::vector<std::uint32_t> chain;
    const sim::Payload* leaf = m.get();
    while (leaf->mux_child() != sim::Payload::kNotWrapped) {
      // Only MuxMsg answers the routing hook (see Payload::mux_child).
      const auto* mux = static_cast<const sim::MuxMsg*>(leaf);
      chain.push_back(mux->child);
      leaf = mux->inner.get();
    }
    const auto* qc =
        dynamic_cast<const core::QuorumCertificatePayload*>(leaf);
    if (qc == nullptr) return;
    if (!forged_.insert(qc->agg.digest).second) return;
    // Variant 1: inflated bitset — claim the lowest non-voter as a voter.
    // (A full bitset has no non-voter to add; the variant would be the
    // genuine certificate, so it is skipped.)
    crypto::VoterBitset inflated = qc->voters;
    for (ProcessId p = 0; p < inflated.capacity(); ++p) {
      if (!inflated.test(p)) {
        inflated.set(p);
        ctx.broadcast(rewrap(
            chain, sim::make_payload<core::QuorumCertificatePayload>(
                       qc->tag, qc->round, qc->value, std::move(inflated),
                       qc->agg, qc->body)));
        break;
      }
    }
    // Variant 2: tampered aggregate MAC over the genuine voter set.
    crypto::AggregateSignature tampered = qc->agg;
    tampered.mac += 1;
    ctx.broadcast(rewrap(chain,
                         sim::make_payload<core::QuorumCertificatePayload>(
                             qc->tag, qc->round, qc->value, qc->voters,
                             tampered, qc->body)));
  }

  std::unique_ptr<sim::Process> inner_;
  std::set<crypto::Hash> forged_;
};

/// "forge-qc" — correct stack plus the QC forgery reflex above. Only bites
/// under cert_mode=aggregate: in per-vote mode no quorum certificates flow
/// and the stack is simply correct, so the strategy is safe to keep in the
/// default (sound-regime) search pool.
class ForgeQcStrategy final : public Strategy {
 public:
  std::unique_ptr<sim::Process> build(const StrategyEnv& env) const override {
    return std::make_unique<ForgeQcShim>(
        env.recorded_stack(env.own_proposal()));
  }
};

}  // namespace

StrategyRegistry& StrategyRegistry::global() {
  static StrategyRegistry* registry = [] {
    auto* r = new StrategyRegistry();
    r->add<SilentStrategy>("silent");
    r->add<CrashStrategy>("crash");
    r->add<EquivocateStrategy>("equivocate");
    r->add<DelayStrategy>("delay");
    r->add<MutateStrategy>("mutate");
    r->add<ScheduledEquivocateStrategy>("equivocate-scheduled");
    r->add<AdaptiveStrategy>("adaptive");
    r->add<ColludeEquivocateStrategy>("collude-equivocate");
    r->add<ColludeWithholdStrategy>("collude-withhold");
    r->add<ForgeQcStrategy>("forge-qc");
    r->add<EbaseStrategy>("ebase");
    return r;
  }();
  return *registry;
}

ScenarioConfig ebase_scenario(int n, int t, VcKind vc, std::uint64_t seed) {
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.vc = vc;
  cfg.seed = seed;  // GST stays 0: every correct message counts
  cfg.proposals.assign(static_cast<std::size_t>(n), 7);
  for (ProcessId p = n - (t + 1) / 2; p < n; ++p) {
    cfg.faults[p].strategy = "ebase";
  }
  return cfg;
}

ScenarioConfig partition_scenario(int n, int t, std::uint64_t seed) {
  // A throw, not an assert: an NDEBUG build would otherwise run a geometry
  // the proof says nothing about and report it as a result.
  if (t < 1 || (n != 3 * t && n != 3 * t + 1)) {
    throw std::invalid_argument(
        "partition_scenario requires n == 3t or n == 3t+1 with t >= 1, got "
        "n=" + std::to_string(n) + " t=" + std::to_string(t));
  }
  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.seed = seed;
  // Both sides must independently run many views (the C side only decides
  // in C-led views), so the partition gets plenty of pre-GST time.
  cfg.gst = 2e6;
  cfg.horizon = cfg.gst + 200.0;
  for (ProcessId p = 0; p < n; ++p) {
    cfg.proposals.push_back(p < n - t ? 0 : 1);
    if (p >= n - 2 * t && p < n - t) {
      cfg.faults[p] = Fault::collude_equivocate(1, /*release=*/1e6);
    }
  }
  return cfg;
}

}  // namespace valcon::harness
