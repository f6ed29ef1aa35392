// Communication topologies: who runs the consensus stack and who listens.
//
// The paper's algorithms are full-mesh: every process runs the whole stack
// and every broadcast reaches all n processes, so message complexity is
// O(n^2) and n=1000 scenarios are dominated by traffic that adds nothing
// to the experiment. A Topology is the harness-level axis that changes
// that shape without touching the protocol code:
//
//   "full-mesh"     — the default. Every process runs the stack exactly as
//                     before; the wire format and every pinned sweep
//                     output are byte-identical.
//   "committee-<k>" — the k lowest-id processes form the consensus
//                     committee (generalizing examples/
//                     blockchain_committee.cpp, leap-style committee-of-k
//                     operation): they run the full Universal stack among
//                     themselves over a k-sized key registry, with inner
//                     fault tolerance t_c = (k - 1) / 3. The remaining
//                     n - k processes are listeners that never run
//                     consensus; they decide from announced decisions:
//
//                       * cert_mode per-vote: every member that decides
//                         sends a signed DecisionAnnounce to every
//                         listener, which decides once plurality(t_c)
//                         distinct members vouch for one value.
//                       * cert_mode aggregate: members exchange announce
//                         votes within the committee; the plurality(t_c)
//                         lowest-ranked members certify a
//                         (k - t_c)-quorum into one PR 9
//                         QuorumCertificatePayload and relay that to the
//                         listeners, so certificate traffic — not vote
//                         traffic — crosses the overlay: O(k^2 + t_c * n)
//                         messages instead of O(n^2).
//
// CommitteeHost implements both roles in one Process keyed off the runtime
// id, so Byzantine strategy shims wrap it exactly like the full-mesh
// stack. Everything here is deterministic: committee membership is a pure
// function of (topology, n), and announces ride the ordinary simulated
// network.
#pragma once

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/core/process_set.hpp"
#include "valcon/core/quorum.hpp"
#include "valcon/core/universal.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/payload.hpp"
#include "valcon/sim/process.hpp"

namespace valcon::harness {

/// One topology-axis value. committee_k == 0 encodes the full mesh (every
/// process runs the stack); committee_k >= 1 selects the committee of the
/// k lowest-id processes.
struct Topology {
  std::string name = "full-mesh";
  int committee_k = 0;

  [[nodiscard]] bool full_mesh() const { return committee_k == 0; }

  /// The committee's internal fault tolerance: the largest t_c with
  /// k > 3 * t_c, i.e. the committee is sized like a sound system of its
  /// own. (System-size derivation, not a vote threshold — the protocol
  /// thresholds below are always the core/thresholds.hpp helpers.)
  [[nodiscard]] static int committee_fault_tolerance(int k) {
    return (k - 1) / 3;
  }

  /// Throws std::invalid_argument for malformed fields: empty name, a
  /// negative committee size, or a committee larger than the system.
  void validate(int n) const;
};

/// Parses a topology token: "full-mesh", or "committee-<k>" with k >= 1
/// (e.g. "committee-10"). Throws std::invalid_argument for anything else,
/// listing the known forms.
[[nodiscard]] Topology named_topology(const std::string& name);

/// The known topology forms, sorted — for error messages and usage text.
[[nodiscard]] std::vector<std::string> topology_names();

/// The domain-separated digest a DecisionAnnounce (and the aggregate-mode
/// certificate) signs: a pure function of the decided value.
[[nodiscard]] crypto::Hash announce_digest(Value value);

/// A committee member's signed decision announcement. `sig` is the
/// member's committee-registry signature over the domain-separated digest
/// of `value`; receivers derive the digest from `value` themselves, so a
/// relayed or replayed announce binds to exactly one value.
///
/// A member sends one announce object to every recipient, so digest()
/// computes announce_digest(value) for the first receiver that asks and
/// hands the same hash to every later one. The memo is derived from the
/// payload's own (const) value, never from the wire, and lives as long as
/// the payload: one run's slab, one thread.
struct DecisionAnnounce final : sim::Payload {
  DecisionAnnounce(Value value_in, crypto::Signature sig_in)
      : value(value_in), sig(sig_in) {}

  VALCON_PAYLOAD_TYPE("topo/announce")

  [[nodiscard]] std::size_t size_words() const override { return 2; }

  [[nodiscard]] const crypto::Hash& digest() const {
    if (!digest_.has_value()) digest_ = announce_digest(value);
    return *digest_;
  }

  const Value value;
  crypto::Signature sig;

 private:
  mutable std::optional<crypto::Hash> digest_;
};

/// One process under a committee topology — member or listener, decided by
/// the runtime id (members are ids [0, committee_k)).
///
/// Members build the inner Universal stack lazily at on_start (listeners
/// never pay for one) and run it behind a context that rescopes n/t/keys/
/// signer to the committee: since members are the k lowest ids, inner ids
/// ARE outer ids and the stock broadcast loop over n() == k reaches
/// exactly the committee. Traffic from non-members never reaches the
/// inner stack. Decisions are recorded through the same DecideCb the
/// full-mesh path uses (the context's id/now are the real ones), then
/// fanned out per the cert mode documented on Topology: one payload
/// object per fan-out, sent to every recipient.
class CommitteeHost final : public sim::Process {
 public:
  /// Builds the inner Universal stack with the given decide callback
  /// (CommitteeHost supplies its own, so it can announce after recording).
  /// Only members call it: a listener may be given an empty factory, while
  /// a member without one throws std::logic_error at on_start.
  using StackFactory = std::function<std::unique_ptr<core::Universal>(
      core::Universal::DecideCb)>;

  CommitteeHost(int committee_k, int committee_t, core::CertMode cert_mode,
                std::shared_ptr<const crypto::KeyRegistry> committee_keys,
                StackFactory make_inner, core::Universal::DecideCb on_decide);
  ~CommitteeHost() override;

  void on_start(sim::Context& ctx) override;
  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;
  void on_timer(sim::Context& ctx, std::uint64_t tag) override;

 private:
  /// Protocol-local tag for the aggregate-mode announce certificate.
  static constexpr std::uint32_t kAnnounceTag = 0;

  void flush_member_decide(sim::Context& ctx);
  void handle_committee_vote(sim::Context& ctx, ProcessId from,
                             const DecisionAnnounce& announce);
  void handle_listener_announce(sim::Context& ctx, ProcessId from,
                                const DecisionAnnounce& announce);
  void handle_listener_cert(sim::Context& ctx,
                            const core::QuorumCertificatePayload& cert);

  int k_;
  int t_c_;
  core::CertMode cert_mode_;
  std::shared_ptr<const crypto::KeyRegistry> keys_;
  StackFactory make_inner_;
  core::Universal::DecideCb on_decide_;

  // Member state (ids < k_).
  std::unique_ptr<core::Universal> inner_;
  std::optional<crypto::Signer> signer_;
  std::optional<Value> pending_decide_;
  bool member_announced_ = false;
  core::QuorumCollector votes_;  // aggregate mode: committee announce votes
  bool relayed_ = false;

  // Listener state (ids >= k_).
  std::map<Value, core::ProcessSet> listener_votes_;  // per-vote mode
  bool listener_decided_ = false;
};

}  // namespace valcon::harness
