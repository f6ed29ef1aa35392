#include "valcon/consensus/add.hpp"

#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

namespace {

std::size_t words_of(std::size_t bytes) { return bytes / 8 + 1; }

}  // namespace

struct Add::MDisperse final : sim::Payload {
  explicit MDisperse(Bytes share_in) : share(std::move(share_in)) {}
  VALCON_PAYLOAD_TYPE("add/disperse")
  [[nodiscard]] std::size_t size_words() const override {
    return words_of(share.size());
  }
  Bytes share;
};

struct Add::MReconstruct final : sim::Payload {
  explicit MReconstruct(Bytes share_in) : share(std::move(share_in)) {}
  VALCON_PAYLOAD_TYPE("add/reconstruct")
  [[nodiscard]] std::size_t size_words() const override {
    return words_of(share.size());
  }
  Bytes share;
};

void Add::input(sim::Context& ctx, std::optional<Bytes> data) {
  if (input_received_) return;
  input_received_ = true;
  received_shares_.resize(static_cast<std::size_t>(ctx.n()));
  if (!data.has_value()) {
    maybe_fix_share(ctx);  // votes may already satisfy the threshold
    return;
  }
  // A non-⊥ input is known-correct by the problem's precondition: output it
  // immediately, but keep dispersing so that ⊥-input processes terminate.
  const ReedSolomon rs(ctx.n(), core::plurality(ctx.t()));
  const auto shares = rs.encode(*data);
  for (ProcessId j = 0; j < ctx.n(); ++j) {
    ctx.send(j, sim::make_payload<MDisperse>(shares[static_cast<std::size_t>(j)]));
  }
  deliver(ctx, *data);
  maybe_fix_share(ctx);
}

void Add::on_message(sim::Context& ctx, ProcessId from,
                     const sim::PayloadPtr& m) {
  if (received_shares_.empty()) {
    received_shares_.resize(static_cast<std::size_t>(ctx.n()));
  }
  if (const auto* disperse = dynamic_cast<const MDisperse*>(m.get())) {
    if (!share_fixed_) {
      disperse_votes_[disperse->share].insert(from);
      maybe_fix_share(ctx);
    }
    return;
  }
  if (const auto* reconstruct = dynamic_cast<const MReconstruct*>(m.get())) {
    auto& slot = received_shares_[static_cast<std::size_t>(from)];
    if (!slot.has_value()) {
      slot = reconstruct->share;
      try_decode(ctx);
    }
    return;
  }
}

void Add::maybe_fix_share(sim::Context& ctx) {
  if (share_fixed_) return;
  for (const auto& [share, senders] : disperse_votes_) {
    if (senders.size() >= core::plurality(ctx.t())) {
      share_fixed_ = true;
      ctx.broadcast(sim::make_payload<MReconstruct>(share));
      return;
    }
  }
}

void Add::try_decode(sim::Context& ctx) {
  if (output_.has_value()) return;
  const int k = core::plurality(ctx.t());
  int count = 0;
  for (const auto& share : received_shares_) {
    if (share.has_value()) ++count;
  }
  if (count < k) return;
  const ReedSolomon rs(ctx.n(), k);
  // Online error correction: try decoding with e = 0..floor((count-k)/2)
  // errors; the agreement check inside decode() rejects wrong codewords.
  const int max_errors = (count - k) / 2;
  for (int e = 0; e <= max_errors; ++e) {
    if (const auto decoded = rs.decode(received_shares_, e)) {
      deliver(ctx, *decoded);
      return;
    }
  }
}

void Add::deliver(sim::Context& ctx, Bytes data) {
  if (output_.has_value()) return;
  output_ = std::move(data);
  if (on_output_) on_output_(ctx, *output_);
}

}  // namespace valcon::consensus
