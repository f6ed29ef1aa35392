#include "valcon/consensus/fast_vector_consensus.hpp"

#include "valcon/consensus/auth_vector_consensus.hpp"
#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

struct FastVectorConsensus::MProposal final : sim::Payload {
  MProposal(Value v, crypto::Signature s) : value(v), sig(s) {}
  VALCON_PAYLOAD_TYPE("fvc/proposal")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  Value value;
  crypto::Signature sig;
};

FastVectorConsensus::FastVectorConsensus(Quad::Options quad_options) {
  reserve_children(3);
  disseminator_ = &make_child<VectorDissemination>(
      [this](sim::Context& cctx, const crypto::Hash& h,
             const crypto::ThresholdSignature& tsig) {
        on_acquire(cctx, h, tsig);
      });
  quad_ = &make_child<Quad>(
      // verify(H, tsig): the proof is a valid (n-t)-threshold signature
      // over the hash.
      [](sim::Context& qctx, const QuadProposal& value) {
        const auto* hp = dynamic_cast<const HashQuadProposal*>(&value);
        return hp != nullptr && hp->tsig().digest == hp->hash() &&
               qctx.keys().verify(hp->tsig());
      },
      [this](sim::Context& qctx, const QuadProposalPtr& value) {
        on_quad_decide(qctx, value);
      },
      quad_options);
  add_ = &make_child<Add>(
      [this](sim::Context& cctx, const std::vector<std::uint8_t>& m) {
        on_add_output(cctx, m);
      });
}

void FastVectorConsensus::own_start(sim::Context& ctx) {
  if (input_.has_value()) {
    const crypto::Signature sig =
        ctx.signer().sign(proposal_digest(ctx.id(), *input_));
    ctx.broadcast(sim::make_payload<MProposal>(*input_, sig));
  }
}

void FastVectorConsensus::own_message(sim::Context& ctx, ProcessId from,
                                      const sim::PayloadPtr& m) {
  const auto* msg = dynamic_cast<const MProposal*>(m.get());
  if (msg == nullptr || disseminated_) return;
  const int n = ctx.n();
  const int t = ctx.t();
  if (msg->sig.signer != from ||
      msg->sig.digest != proposal_digest(from, msg->value) ||
      !ctx.keys().verify(msg->sig)) {
    return;
  }
  proposals_.emplace(from, std::make_pair(msg->value, msg->sig));
  if (static_cast<int>(proposals_.size()) < core::quorum_n_minus_t(n, t)) {
    return;
  }

  disseminated_ = true;
  core::InputConfig vector(n);
  std::vector<crypto::Signature> proofs;
  int taken = 0;
  for (const auto& [pid, entry] : proposals_) {
    if (taken == core::quorum_n_minus_t(n, t)) break;
    vector.set(pid, entry.first);
    proofs.push_back(entry.second);
    ++taken;
  }
  disseminator_->disseminate(child_context(0), vector, proofs);
}

void FastVectorConsensus::on_acquire(sim::Context& /*ctx*/,
                                     const crypto::Hash& h,
                                     const crypto::ThresholdSignature& tsig) {
  if (proposed_to_quad_) return;
  proposed_to_quad_ = true;
  quad_->propose(child_context(1),
                 std::make_shared<const HashQuadProposal>(h, tsig));
}

void FastVectorConsensus::on_quad_decide(sim::Context& /*ctx*/,
                                         const QuadProposalPtr& value) {
  const auto* hp = dynamic_cast<const HashQuadProposal*>(value.get());
  if (hp == nullptr || fed_add_) return;
  fed_add_ = true;
  std::optional<Add::Bytes> input;
  if (const auto cached = disseminator_->lookup(hp->hash())) {
    input = cached->serialize();
  }
  add_->input(child_context(2), std::move(input));
}

void FastVectorConsensus::on_add_output(sim::Context& ctx,
                                        const std::vector<std::uint8_t>& m) {
  const auto vec = core::InputConfig::deserialize(m);
  if (!vec.has_value()) return;
  deliver_vector(ctx, *vec);
}

}  // namespace valcon::consensus
