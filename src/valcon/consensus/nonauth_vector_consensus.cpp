#include "valcon/consensus/nonauth_vector_consensus.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

namespace {

std::vector<std::uint8_t> encode_value(Value v) {
  std::vector<std::uint8_t> out(8);
  const auto raw = static_cast<std::uint64_t>(v);
  for (int b = 0; b < 8; ++b) {
    out[static_cast<std::size_t>(b)] = static_cast<std::uint8_t>(raw >> (8 * b));
  }
  return out;
}

Value decode_value(const std::vector<std::uint8_t>& bytes) {
  std::uint64_t raw = 0;
  for (std::size_t b = 0; b < 8 && b < bytes.size(); ++b) {
    raw |= static_cast<std::uint64_t>(bytes[b]) << (8 * b);
  }
  return static_cast<Value>(raw);
}

}  // namespace

NonAuthVectorConsensus::NonAuthVectorConsensus(int n, core::CertMode cert_mode)
    : n_(n),
      proposals_(static_cast<std::size_t>(n)),
      decisions_(static_cast<std::size_t>(n)),
      proposed_(static_cast<std::size_t>(n), false) {
  reserve_children(2 * static_cast<std::size_t>(n));
  brb_.reserve(static_cast<std::size_t>(n));
  binary_.reserve(static_cast<std::size_t>(n));
  for (ProcessId j = 0; j < n; ++j) {
    brb_.push_back(&make_child<bcast::ReliableBroadcast>(
        j,
        [this, j](sim::Context& cctx, const std::vector<std::uint8_t>& bytes) {
          on_brb_deliver(cctx, j, bytes);
        },
        /*content_words=*/1, cert_mode));
  }
  for (ProcessId j = 0; j < n; ++j) {
    binary_.push_back(&make_child<BinaryConsensus>(
        [this, j](sim::Context& cctx, bool value) {
          on_binary_decide(cctx, j, value);
        },
        cert_mode, /*instance=*/j));
  }
}

void NonAuthVectorConsensus::own_start(sim::Context& ctx) {
  if (input_.has_value()) {
    brb_[static_cast<std::size_t>(ctx.id())]->broadcast(
        child_context(static_cast<std::size_t>(ctx.id())),
        encode_value(*input_));
  }
}

void NonAuthVectorConsensus::on_brb_deliver(
    sim::Context& /*brb_ctx*/, ProcessId proposer,
    const std::vector<std::uint8_t>& content) {
  const auto idx = static_cast<std::size_t>(proposer);
  if (proposals_[idx].has_value()) return;
  proposals_[idx] = decode_value(content);
  if (proposing_ones_ && !proposed_[idx]) {
    proposed_[idx] = true;
    binary_[idx]->propose(child_context(static_cast<std::size_t>(n_) + idx),
                          true);
  }
  // A late proposal can complete the decision condition (line 21).
  maybe_decide(child_context(idx));
}

void NonAuthVectorConsensus::on_binary_decide(sim::Context& ctx,
                                              ProcessId instance, bool value) {
  const auto idx = static_cast<std::size_t>(instance);
  if (decisions_[idx].has_value()) return;
  decisions_[idx] = value;
  ++decided_count_;
  if (value) ++ones_;

  if (proposing_ones_ && ones_ >= core::quorum_n_minus_t(n_, ctx.t())) {
    // n-t instances decided 1 (line 16): propose 0 everywhere else.
    proposing_ones_ = false;
    for (ProcessId j = 0; j < n_; ++j) {
      const auto jdx = static_cast<std::size_t>(j);
      if (proposed_[jdx]) continue;
      proposed_[jdx] = true;
      binary_[jdx]->propose(child_context(static_cast<std::size_t>(n_) + jdx),
                            false);
    }
  }
  maybe_decide(ctx);
}

void NonAuthVectorConsensus::maybe_decide(sim::Context& ctx) {
  if (has_decided() || decided_count_ < n_) return;
  // The first n-t processes whose instances decided 1, by index (line 21).
  core::InputConfig vector(n_);
  int taken = 0;
  for (ProcessId j = 0; j < n_ && taken < core::quorum_n_minus_t(n_, ctx.t());
       ++j) {
    const auto idx = static_cast<std::size_t>(j);
    if (decisions_[idx] != std::optional<bool>(true)) continue;
    if (!proposals_[idx].has_value()) return;  // wait for the BRB delivery
    vector.set(j, *proposals_[idx]);
    ++taken;
  }
  if (taken < core::quorum_n_minus_t(n_, ctx.t())) return;
  deliver_vector(ctx, vector);
}

}  // namespace valcon::consensus
