// Signature-free binary Byzantine consensus for partial synchrony, the
// "Binary DBFT [35]" building block of the non-authenticated vector
// consensus (Algorithm 3, Appendix B.2).
//
// We reproduce the class of protocol DBFT belongs to — deterministic,
// leader/coordinator-rotating, signature-free binary consensus with O(n^2)
// messages per round — using the corrected Tendermint-style rules of
// Buchman-Kwon-Milosevic [22] (a protocol the DBFT paper itself positions
// against), hardened with DBFT's BV-justification idea:
//
//   * every process announces its input (EST); a bit b is *justified* once
//     t+1 distinct processes announced b, so any justified bit is the input
//     of at least one correct process;
//   * correct processes only prevote justified bits, which yields the
//     intrusion-tolerant validity Algorithm 3 needs — a decided 1 for
//     instance j implies a correct process proposed 1, i.e. BRB-delivered
//     P_j's proposal;
//   * rounds rotate the proposer; locking (lockedValue/lockedRound) gives
//     Agreement, validValue/validRound re-proposal gives liveness after GST
//     (no hidden-lock stall), t+1 round-skip certificates keep laggards
//     synchronized.
//
// See DESIGN.md §2 for the substitution rationale.
//
// CertMode::kAggregate batches the two vote rounds (core/quorum.hpp):
// instead of broadcasting prevotes/precommits all-to-all, each process
// sends one signed vote to the round's proposer, who certifies 2t+1
// matching votes and broadcasts one QuorumCertificatePayload. Receivers
// verify the aggregate once and bulk-insert the certified voters into the
// same RoundState tallies the per-vote engine polls, so every decision
// rule below is shared between the two backends. EST, proposals and the
// DECIDED gadget stay broadcast in both modes. Sub-quorum rules (t+1
// round skip, the early round end) fire less often from certificate-only
// information; the round timers carry liveness exactly as they do when
// votes are lost to the network.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>

#include "valcon/core/process_set.hpp"
#include "valcon/core/quorum.hpp"
#include "valcon/crypto/hash.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

class BinaryConsensus final : public sim::Component {
 public:
  using DecideCb = std::function<void(sim::Context&, bool)>;

  /// `instance` names this consensus instance inside its deployment (the
  /// vector-consensus slot index): aggregate-mode vote signatures bind it,
  /// so a certificate from one instance cannot be replayed into another.
  explicit BinaryConsensus(DecideCb on_decide,
                           core::CertMode cert_mode = core::CertMode::kPerVote,
                           int instance = 0)
      : on_decide_(std::move(on_decide)),
        cert_mode_(cert_mode),
        instance_(instance) {}

  /// Proposes a bit. May arrive before or (well) after on_start; processes
  /// participate in rounds regardless, per Algorithm 3's late proposals
  /// ("propose 0 to every instance not yet proposed to").
  void propose(sim::Context& ctx, bool value);

  [[nodiscard]] bool decided() const { return decided_.has_value(); }
  [[nodiscard]] std::optional<bool> decision() const { return decided_; }

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;
  void on_timer(sim::Context& ctx, std::uint64_t tag) override;

 private:
  enum class Step { kPropose, kPrevote, kPrecommit };

  struct MEst;
  struct MProposal;
  struct MPrevote;
  struct MPrecommit;
  struct MDecided;
  struct MVoteSig;

  // QC tags (protocol-local; this Mux child only sees its own traffic).
  static constexpr std::uint32_t kTagPrevoteCert = 1;
  static constexpr std::uint32_t kTagPrecommitCert = 2;
  // Step codes bound into aggregate-mode vote digests.
  static constexpr std::uint32_t kStepPrevote = 0;
  static constexpr std::uint32_t kStepPrecommit = 1;

  struct RoundState {
    std::optional<std::pair<bool, std::int64_t>> proposal;  // (v, validRound)
    bool proposal_seen = false;
    bool proposal_sent = false;
    // prevotes / precommits: senders per value, indexed nil / 0 / 1.
    std::array<core::ProcessSet, 3> prevotes;
    std::array<core::ProcessSet, 3> precommits;
    core::ProcessSet participants;  // senders of any message this round
  };

  [[nodiscard]] ProcessId proposer_of(std::int64_t round, int n) const {
    return static_cast<ProcessId>(round % n);
  }
  [[nodiscard]] bool justified(bool v, sim::Context& ctx) const;
  [[nodiscard]] int count_prevotes(std::int64_t round,
                                   std::optional<bool> v) const;
  [[nodiscard]] int count_precommits(std::int64_t round,
                                     std::optional<bool> v) const;

  void start_round(sim::Context& ctx, std::int64_t round);
  void maybe_send_proposal(sim::Context& ctx);
  void poll(sim::Context& ctx);
  void decide(sim::Context& ctx, bool v);
  void do_prevote(sim::Context& ctx, std::optional<bool> v);
  void do_precommit(sim::Context& ctx, std::optional<bool> v);
  // Aggregate-mode helpers: send one signed vote to the round's proposer
  // (or tally the own vote when we are the proposer), certify a quorum and
  // broadcast the certificate, absorb a received certificate's voters into
  // the RoundState tallies.
  void send_vote(sim::Context& ctx, std::uint32_t step, std::optional<bool> v);
  void maybe_certify_votes(sim::Context& ctx, std::int64_t round,
                           std::uint32_t step, std::optional<bool> v);
  void on_vote_cert(sim::Context& ctx,
                    const core::QuorumCertificatePayload& qc);
  [[nodiscard]] double timeout(std::int64_t round, sim::Context& ctx) const {
    return (4.0 + static_cast<double>(round)) * ctx.delta();
  }

  DecideCb on_decide_;
  core::CertMode cert_mode_;
  int instance_;
  // Aggregate-mode proposer state: the vote tally (digests bind instance,
  // round, step and value, so one collector serves every round we lead)
  // and the certificates already broadcast.
  core::QuorumCollector vote_tally_;
  std::set<crypto::Hash> certified_;
  bool started_ = false;
  std::optional<bool> input_;
  bool est_broadcast_ = false;
  std::optional<bool> decided_;

  std::int64_t round_ = -1;
  Step step_ = Step::kPropose;
  std::optional<bool> locked_value_;
  std::int64_t locked_round_ = -1;
  std::optional<bool> valid_value_;
  std::int64_t valid_round_ = -1;

  std::map<std::int64_t, RoundState> rounds_;
  core::ProcessSet est_senders_[2];  // who announced 0 / 1

  // Termination gadget: deciders broadcast DECIDED and keep participating
  // (a Byzantine vote can complete a quorum for a single process only, so
  // a decider that went silent could strand the rest one vote short).
  // t+1 matching DECIDEDs are a decision (at least one correct decider);
  // n-t DECIDEDs for the decided value mean every correct process is done,
  // so the instance halts and stops scheduling timers.
  core::ProcessSet decided_senders_[2];
  bool halted_ = false;
};

}  // namespace valcon::consensus
