#include "valcon/consensus/vector_dissemination.hpp"

#include "valcon/consensus/auth_vector_consensus.hpp"
#include "valcon/core/thresholds.hpp"

namespace valcon::consensus {

// ------------------------------------------------------ blob encoding

std::vector<std::uint8_t> encode_vector_blob(
    const core::InputConfig& vec, const std::vector<crypto::Signature>& sigs) {
  std::vector<std::uint8_t> out = vec.serialize();
  const auto append_u64 = [&out](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<std::uint8_t>(v >> (8 * b)));
    }
  };
  append_u64(sigs.size());
  for (const crypto::Signature& sig : sigs) {
    append_u64(static_cast<std::uint64_t>(sig.signer));
    out.insert(out.end(), sig.digest.bytes.begin(), sig.digest.bytes.end());
    append_u64(sig.mac);
  }
  return out;
}

std::optional<std::pair<core::InputConfig, std::vector<crypto::Signature>>>
decode_vector_blob(const std::vector<std::uint8_t>& blob) {
  if (blob.empty()) return std::nullopt;
  const int n = blob[0];
  const std::size_t vec_len = 1 + static_cast<std::size_t>(n) * 9;
  if (blob.size() < vec_len + 8) return std::nullopt;
  const auto vec = core::InputConfig::deserialize(
      std::vector<std::uint8_t>(blob.begin(), blob.begin() + vec_len));
  if (!vec.has_value()) return std::nullopt;

  std::size_t pos = vec_len;
  const auto read_u64 = [&blob, &pos]() {
    std::uint64_t v = 0;
    for (int b = 0; b < 8; ++b) {
      v |= static_cast<std::uint64_t>(blob[pos++]) << (8 * b);
    }
    return v;
  };
  const std::uint64_t count = read_u64();
  constexpr std::size_t kSigBytes = 8 + 32 + 8;
  if (blob.size() != pos + count * kSigBytes) return std::nullopt;
  std::vector<crypto::Signature> sigs;
  sigs.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    crypto::Signature sig;
    sig.signer = static_cast<ProcessId>(read_u64());
    for (std::size_t b = 0; b < 32; ++b) sig.digest.bytes[b] = blob[pos++];
    sig.mac = read_u64();
    sigs.push_back(sig);
  }
  return std::make_pair(*vec, std::move(sigs));
}

// ----------------------------------------------------------- messages

struct VectorDissemination::MStored final : sim::Payload {
  MStored(crypto::Hash h, crypto::Signature p) : hash(h), partial(p) {}
  VALCON_PAYLOAD_TYPE("dissem/stored")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  crypto::Hash hash;
  crypto::Signature partial;
};

struct VectorDissemination::MConfirm final : sim::Payload {
  MConfirm(crypto::Hash h, crypto::ThresholdSignature s) : hash(h), tsig(s) {}
  VALCON_PAYLOAD_TYPE("dissem/confirm")
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  crypto::Hash hash;
  crypto::ThresholdSignature tsig;
};

// ----------------------------------------------------------- protocol

VectorDissemination::VectorDissemination(AcquireCb on_acquire)
    : on_acquire_(std::move(on_acquire)) {
  slow_ = &make_child<bcast::SlowBroadcast>(
      [this](sim::Context& cctx, const std::vector<std::uint8_t>& blob,
             ProcessId from) { on_slow_deliver(cctx, blob, from); });
}

void VectorDissemination::disseminate(
    sim::Context& ctx, const core::InputConfig& vec,
    const std::vector<crypto::Signature>& proposal_sigs) {
  if (my_hash_.has_value() || acquired_) return;
  const CallScope scope(this, ctx);  // external entry point: bind context
  my_hash_ = vec.digest();
  cache_.emplace(*my_hash_, vec);
  slow_->broadcast(child_context(0), encode_vector_blob(vec, proposal_sigs));
}

std::optional<core::InputConfig> VectorDissemination::lookup(
    const crypto::Hash& h) const {
  const auto it = cache_.find(h);
  if (it == cache_.end()) return std::nullopt;
  return it->second;
}

void VectorDissemination::on_slow_deliver(
    sim::Context& slow_ctx, const std::vector<std::uint8_t>& blob,
    ProcessId from) {
  if (acquired_) return;
  if (!acked_.insert(from)) return;  // only the first vector per peer
  const auto decoded = decode_vector_blob(blob);
  if (!decoded.has_value()) return;
  const auto& [vec, sigs] = *decoded;
  // Verify the embedded proposal signatures before caching and signing
  // (Vector Validity hinges on this check; cf. Theorem 11's proof).
  if (vec.n() != slow_ctx.n() ||
      vec.count() != core::quorum_n_minus_t(slow_ctx.n(), slow_ctx.t())) {
    return;
  }
  for (const ProcessId p : vec.processes()) {
    const crypto::Hash expected = proposal_digest(p, *vec.at(p));
    bool ok = false;
    for (const crypto::Signature& sig : sigs) {
      if (sig.signer == p && sig.digest == expected &&
          slow_ctx.keys().verify(sig)) {
        ok = true;
        break;
      }
    }
    if (!ok) return;
  }
  const crypto::Hash h = vec.digest();
  cache_.emplace(h, vec);
  // STORED is a dissemination-level message: send through *this* layer's
  // context (the slow-broadcast child context would mis-route it).
  ctx().send(from, sim::make_payload<MStored>(h, ctx().signer().sign(h)));
}

void VectorDissemination::own_message(sim::Context& ctx, ProcessId from,
                                      const sim::PayloadPtr& m) {
  if (acquired_) return;  // stopped participating
  const int n = ctx.n();
  const int t = ctx.t();

  if (const auto* stored = dynamic_cast<const MStored*>(m.get())) {
    if (!my_hash_.has_value() || confirmed_) return;
    if (stored->hash != *my_hash_) return;
    if (stored->partial.signer != from ||
        stored->partial.digest != *my_hash_ ||
        !ctx.keys().verify(stored->partial)) {
      return;
    }
    if (!stored_from_.insert(from)) return;
    stored_partials_.push_back(stored->partial);
    if (stored_from_.size() >= core::quorum_n_minus_t(n, t)) {
      const auto tsig = ctx.keys().combine(stored_partials_);
      if (tsig.has_value()) {
        confirmed_ = true;
        ctx.broadcast(sim::make_payload<MConfirm>(*my_hash_, *tsig));
      }
    }
    return;
  }

  if (const auto* confirm = dynamic_cast<const MConfirm*>(m.get())) {
    if (confirm->tsig.digest != confirm->hash ||
        !ctx.keys().verify(confirm->tsig)) {
      return;
    }
    acquired_ = true;
    slow_->stop();
    ctx.broadcast(sim::make_payload<MConfirm>(confirm->hash, confirm->tsig));
    if (on_acquire_) on_acquire_(ctx, confirm->hash, confirm->tsig);
    return;
  }
}

}  // namespace valcon::consensus
