#include "valcon/harness/topology.hpp"

#include <charconv>
#include <stdexcept>
#include <string_view>
#include <system_error>
#include <utility>

#include "valcon/core/thresholds.hpp"
#include "valcon/crypto/hash.hpp"

namespace valcon::harness {

namespace {

/// Context a member's inner stack runs under: same id/now/send/timers as
/// the real process (members are the k lowest ids, so no id remapping),
/// but n/t/keys/signer rescoped to the committee. The inherited default
/// broadcast loops send(p) for p < n() == k — exactly the committee. Built
/// on the stack per callback: strategy shims may hand a different base
/// context object each dispatch, so caching one across callbacks would
/// dangle.
class CommitteeCtx final : public sim::ForwardingContext {
 public:
  CommitteeCtx(sim::Context& base, int k, int t_c,
               const crypto::KeyRegistry& keys, const crypto::Signer& signer)
      : ForwardingContext(base),
        k_(k),
        t_c_(t_c),
        keys_(keys),
        signer_(signer) {}

  [[nodiscard]] int n() const override { return k_; }
  [[nodiscard]] int t() const override { return t_c_; }
  [[nodiscard]] const crypto::KeyRegistry& keys() const override {
    return keys_;
  }
  [[nodiscard]] const crypto::Signer& signer() const override {
    return signer_;
  }

 private:
  int k_;
  int t_c_;
  const crypto::KeyRegistry& keys_;
  const crypto::Signer& signer_;
};

/// The digest an announce certificate's quorum signed: a pure function of
/// the certified value (the QuorumCertificatePayload::digest recipe).
crypto::Hash cert_announce_digest(const core::QuorumCertificatePayload& cert) {
  return announce_digest(cert.value);
}

}  // namespace

void Topology::validate(int n) const {
  const auto fail = [this](const std::string& what) {
    throw std::invalid_argument("Topology '" + name + "': " + what);
  };
  if (name.empty()) throw std::invalid_argument("Topology: empty name");
  if (committee_k < 0) {
    fail("committee size must be >= 1 (0 encodes full-mesh), got " +
         std::to_string(committee_k));
  }
  if (committee_k > n) {
    fail("committee size " + std::to_string(committee_k) +
         " exceeds system size n=" + std::to_string(n));
  }
}

Topology named_topology(const std::string& name) {
  if (name == "full-mesh") return Topology{};
  constexpr std::string_view kCommittee = "committee-";
  if (name.size() > kCommittee.size() &&
      name.compare(0, kCommittee.size(), kCommittee) == 0) {
    const char* first = name.data() + kCommittee.size();
    const char* last = name.data() + name.size();
    int k = 0;
    const auto [ptr, ec] = std::from_chars(first, last, k);
    if (ec == std::errc{} && ptr == last && k >= 1) {
      Topology topo;
      topo.name = name;
      topo.committee_k = k;
      return topo;
    }
  }
  std::string known;
  for (const std::string& form : topology_names()) {
    if (!known.empty()) known += ", ";
    known += form;
  }
  throw std::invalid_argument("unknown topology '" + name +
                              "' (known: " + known + ")");
}

std::vector<std::string> topology_names() {
  return {"committee-<k>", "full-mesh"};
}

crypto::Hash announce_digest(Value value) {
  return crypto::Hasher("valcon/topo-announce").add(value).finish();
}

CommitteeHost::CommitteeHost(
    int committee_k, int committee_t, core::CertMode cert_mode,
    std::shared_ptr<const crypto::KeyRegistry> committee_keys,
    StackFactory make_inner, core::Universal::DecideCb on_decide)
    : k_(committee_k),
      t_c_(committee_t),
      cert_mode_(cert_mode),
      keys_(std::move(committee_keys)),
      make_inner_(std::move(make_inner)),
      on_decide_(std::move(on_decide)) {}

CommitteeHost::~CommitteeHost() = default;

void CommitteeHost::on_start(sim::Context& ctx) {
  if (ctx.id() >= k_) return;  // listeners are purely reactive
  if (!make_inner_) {
    throw std::logic_error("CommitteeHost: member " +
                           std::to_string(ctx.id()) +
                           " has no inner-stack factory");
  }
  signer_.emplace(keys_->signer_for(ctx.id()));
  inner_ = make_inner_([this](sim::Context&, Value decided) {
    // Fires synchronously under the committee context, whose id is real
    // but whose n/keys are the committee's — so only latch the value here
    // and let the dispatching callback record/announce with the base
    // context (flush_member_decide).
    if (!pending_decide_.has_value()) pending_decide_ = decided;
  });
  CommitteeCtx cctx(ctx, k_, t_c_, *keys_, *signer_);
  inner_->on_start(cctx);
  flush_member_decide(ctx);
}

void CommitteeHost::on_message(sim::Context& ctx, ProcessId from,
                               const sim::PayloadPtr& m) {
  if (ctx.id() < k_) {
    if (m->mux_child() != sim::Payload::kNotWrapped) {
      // Inner-stack traffic. Only committee peers have a seat in the
      // inner system; anything a (Byzantine) listener injects is dropped
      // before the protocol code can see an out-of-range id.
      if (from < 0 || from >= k_ || inner_ == nullptr) return;
      CommitteeCtx cctx(ctx, k_, t_c_, *keys_, *signer_);
      inner_->on_message(cctx, from, m);
      flush_member_decide(ctx);
      return;
    }
    if (cert_mode_ != core::CertMode::kAggregate) return;
    if (from < 0 || from >= k_) return;
    const auto* announce = dynamic_cast<const DecisionAnnounce*>(m.get());
    if (announce != nullptr) handle_committee_vote(ctx, from, *announce);
    return;
  }
  // Listener: decide at most once, and only on committee-originated fanout.
  if (listener_decided_ || from < 0 || from >= k_) return;
  if (cert_mode_ == core::CertMode::kAggregate) {
    const auto* cert =
        dynamic_cast<const core::QuorumCertificatePayload*>(m.get());
    if (cert != nullptr) handle_listener_cert(ctx, *cert);
    return;
  }
  const auto* announce = dynamic_cast<const DecisionAnnounce*>(m.get());
  if (announce != nullptr) handle_listener_announce(ctx, from, *announce);
}

void CommitteeHost::on_timer(sim::Context& ctx, std::uint64_t tag) {
  if (ctx.id() >= k_ || inner_ == nullptr) return;
  // CommitteeHost arms no timers of its own, so every tag belongs to the
  // inner stack verbatim.
  CommitteeCtx cctx(ctx, k_, t_c_, *keys_, *signer_);
  inner_->on_timer(cctx, tag);
  flush_member_decide(ctx);
}

void CommitteeHost::flush_member_decide(sim::Context& ctx) {
  if (!pending_decide_.has_value() || member_announced_) return;
  member_announced_ = true;
  const Value decided = *pending_decide_;
  if (on_decide_) on_decide_(ctx, decided);
  const crypto::Signature sig = signer_->sign(announce_digest(decided));
  // One announce object for the whole fan-out: payloads are immutable, and
  // the first receiver's digest() serves every later one.
  const sim::PayloadPtr announce =
      sim::make_payload<DecisionAnnounce>(decided, sig);
  if (cert_mode_ == core::CertMode::kAggregate) {
    // Vote within the committee; the relay step (handle_committee_vote)
    // turns a quorum of these into one certificate for the listeners.
    for (ProcessId to = 0; to < k_; ++to) ctx.send(to, announce);
  } else {
    // Per-vote fanout: every deciding member vouches to every listener.
    for (ProcessId to = k_; to < ctx.n(); ++to) ctx.send(to, announce);
  }
}

void CommitteeHost::handle_committee_vote(sim::Context& ctx, ProcessId from,
                                          const DecisionAnnounce& announce) {
  if (announce.sig.signer != from) return;
  const crypto::Hash& digest = announce.digest();
  if (announce.sig.digest != digest) return;
  // Speculative aggregation (core/quorum.hpp): record unverified, pay one
  // verify_aggregate at certify time.
  votes_.add(announce.sig);
  if (relayed_) return;
  // Only the plurality(t_c) lowest-ranked members relay certificates — at
  // least one is correct, and cert traffic stays O(t_c * (n - k)).
  if (ctx.id() >= core::plurality(t_c_)) return;
  const int quorum = core::quorum_n_minus_t(k_, t_c_);
  if (votes_.count(digest) < quorum) return;
  auto cert = core::certify_verified(votes_, *keys_, digest, k_, quorum);
  if (!cert.has_value()) return;
  relayed_ = true;
  const auto [margin, conflicting] = votes_.rivalry(digest);
  ctx.note_quorum(margin, conflicting);
  const sim::PayloadPtr relay =
      sim::make_payload<core::QuorumCertificatePayload>(
          kAnnounceTag, 0, announce.value, std::move(cert->voters), cert->agg);
  for (ProcessId to = k_; to < ctx.n(); ++to) ctx.send(to, relay);
}

void CommitteeHost::handle_listener_announce(sim::Context& ctx,
                                             ProcessId from,
                                             const DecisionAnnounce& announce) {
  if (announce.sig.signer != from) return;
  if (announce.sig.digest != announce.digest()) return;
  if (!keys_->verify(announce.sig)) return;
  auto& vouchers = listener_votes_[announce.value];
  vouchers.insert(from);
  if (vouchers.size() < core::plurality(t_c_)) return;
  listener_decided_ = true;
  if (on_decide_) on_decide_(ctx, announce.value);
}

void CommitteeHost::handle_listener_cert(
    sim::Context& ctx, const core::QuorumCertificatePayload& cert) {
  if (cert.tag != kAnnounceTag) return;
  // Never trust the carried digest: derive it from the value so the
  // certificate binds to exactly this announce step (the forge-qc
  // strategy keeps this check honest). The relayer sends one object to
  // every listener, so the first listener's derivation serves the rest.
  if (cert.agg.digest != cert.digest(cert_announce_digest)) return;
  if (cert.voters.count() < core::quorum_n_minus_t(k_, t_c_)) return;
  if (!keys_->verify_aggregate(cert.voters, cert.agg)) return;
  listener_decided_ = true;
  if (on_decide_) on_decide_(ctx, cert.value);
}

}  // namespace valcon::harness
