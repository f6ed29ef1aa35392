// Quorum certificates: batched votes behind one aggregate check.
//
// Every vote-heavy path used to relay individual signed votes and pay one
// crypto::signatures verify per delivery. This header is the shared QC
// layer that batches them, hotstuff-style (a voter bitset plus one
// aggregated signature, as in leap's quorum_certificate):
//
//  * CertMode          — the ScenarioConfig / sweep-matrix axis selecting
//                        the certificate backend. kPerVote is the default
//                        and leaves every pinned sweep output byte-
//                        identical; kAggregate switches the vote-heavy
//                        paths (BRB echo, binary-consensus prevote and
//                        precommit, Quad certificates) to QCs.
//  * QuorumCollector   — tallies partial signatures per digest, deduped by
//                        signer, and certifies a (bitset, aggregate) pair
//                        once a threshold is met. Thresholds are always
//                        the named helpers of core/thresholds.hpp — the
//                        protomap raw-quorum audit covers this file and
//                        every collector call site in consensus/ and
//                        bcast/ (docs/static-analysis.md, layer 4).
//  * QuorumCertificatePayload — the wire format: one broadcast certificate
//                        in place of O(n) relayed votes. Receivers
//                        recompute the expected digest from the protocol
//                        fields (tag, round, value, body) and pay exactly
//                        one verify_aggregate for the whole quorum.
//
// A receiver must never trust the carried digest alone: the digest binds
// the certificate to a protocol step only if the receiver recomputes it
// from (tag, round, value, body) itself. The forge-qc adversary strategy
// (docs/adversaries.md) exists to keep that check honest.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/core/process_set.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/payload.hpp"

namespace valcon::core {

/// Certificate backend for the vote-heavy protocol paths.
enum class CertMode {
  kPerVote,    // one signed vote per message, one verify per delivery
  kAggregate,  // votes to a collector, one QC broadcast, one verify
};

/// Wire/CLI token for a CertMode ("per-vote" / "aggregate").
[[nodiscard]] std::string cert_mode_token(CertMode mode);

/// Inverse of cert_mode_token; nullopt for unknown tokens.
[[nodiscard]] std::optional<CertMode> cert_mode_from_token(
    const std::string& token);

/// Tallies partial signatures per digest and certifies a quorum as one
/// (VoterBitset, AggregateSignature) pair. The collector does not verify
/// partials: the per-vote backend verifies each vote on receipt, the
/// aggregate backend verifies the whole batch with one verify_aggregate at
/// certify time (speculative aggregation — an invalid partial surfaces as
/// a failed certificate, never as a forged one).
class QuorumCollector {
 public:
  /// One certified quorum, ready to travel in a QuorumCertificatePayload.
  struct Certificate {
    crypto::VoterBitset voters;
    crypto::AggregateSignature agg;
  };

  /// Adds one partial to its digest's tally; a repeated (digest, signer)
  /// pair is ignored. Returns true iff the vote was newly recorded.
  bool add(const crypto::Signature& sig);

  /// Votes recorded for `digest`.
  [[nodiscard]] int count(const crypto::Hash& digest) const;

  /// Every digest with at least one recorded vote, in digest order.
  [[nodiscard]] std::vector<crypto::Hash> digests() const;

  /// The recorded partials for `digest`, in arrival order — the per-vote
  /// backend feeds these to KeyRegistry::combine for a ThresholdSignature.
  [[nodiscard]] const std::vector<crypto::Signature>& partials(
      const crypto::Hash& digest) const;

  /// Certifies `digest` once at least `threshold` distinct voters signed
  /// it: the first `threshold` votes in arrival order form the batch.
  /// `n` is the voter universe (bitset capacity). Returns nullopt below
  /// the threshold or when aggregation rejects the batch.
  [[nodiscard]] std::optional<Certificate> certify(const crypto::Hash& digest,
                                                   int n, int threshold) const;

  /// Near-miss accounting for Context::note_quorum: the winner's margin
  /// over the strongest rival digest, and the total votes all rival
  /// digests collected.
  [[nodiscard]] std::pair<int, std::uint64_t> rivalry(
      const crypto::Hash& winner) const;

  /// Drops every recorded partial the registry rejects and returns how many
  /// were removed. This is the speculative-aggregation fallback: it only
  /// runs after a certificate failed its one verify_aggregate, so honest
  /// vote sets never pay per-partial verification.
  int prune_invalid(const crypto::KeyRegistry& keys);

 private:
  struct Tally {
    std::vector<crypto::Signature> sigs;  // in arrival order
    ProcessSet signers;
  };
  std::map<crypto::Hash, Tally> tallies_;
};

/// Speculative-aggregation driver shared by the protocol call sites:
/// certify `digest`, pay one verify_aggregate, and on failure prune the
/// registry-rejected partials and retry once. An honest vote set costs
/// exactly one aggregate check; a batch poisoned by a Byzantine voter
/// costs the failed check plus the per-partial prune — an attack surcharge
/// the attacker pays for, never the fault-free path.
[[nodiscard]] std::optional<QuorumCollector::Certificate> certify_verified(
    QuorumCollector& collector, const crypto::KeyRegistry& keys,
    const crypto::Hash& digest, int n, int threshold);

/// One broadcast quorum certificate. `tag` is a protocol-local kind
/// discriminator (each Mux child sees only its own traffic, so tags only
/// disambiguate steps within one protocol); `round` and `value` are
/// protocol-defined (value -1 encodes a nil vote); `body` optionally
/// carries the content the quorum certified (BRB), so a receiver that
/// missed the original send can still deliver. Word accounting: one
/// header word, one aggregate-signature word, the bitset words, and the
/// body words.
///
/// A certificate is broadcast or relayed as one object, so digest() keeps
/// the first receiver's digest and hands it to every later receiver that
/// asks with the same recipe. A recipe is a pure function of the
/// certificate's own (const) fields; a digest that depends on receiver
/// state is computed by the receiver, outside the memo.
struct QuorumCertificatePayload final : sim::Payload {
  using DigestRecipe = crypto::Hash (*)(const QuorumCertificatePayload&);

  QuorumCertificatePayload(std::uint32_t tag_in, std::int64_t round_in,
                           std::int64_t value_in, crypto::VoterBitset voters_in,
                           crypto::AggregateSignature agg_in,
                           std::vector<std::uint8_t> body_in = {})
      : tag(tag_in),
        round(round_in),
        value(value_in),
        voters(std::move(voters_in)),
        agg(agg_in),
        body(std::move(body_in)) {}

  VALCON_PAYLOAD_TYPE("core/quorum-cert")

  [[nodiscard]] std::size_t size_words() const override {
    return 2 + voters.words().size() + (body.size() + 7) / 8;
  }

  [[nodiscard]] const crypto::Hash& digest(DigestRecipe recipe) const {
    if (digest_recipe_ != recipe) {
      digest_ = recipe(*this);
      digest_recipe_ = recipe;
    }
    return digest_;
  }

  const std::uint32_t tag;
  const std::int64_t round;
  const std::int64_t value;
  const crypto::VoterBitset voters;
  const crypto::AggregateSignature agg;
  const std::vector<std::uint8_t> body;

 private:
  mutable DigestRecipe digest_recipe_ = nullptr;
  mutable crypto::Hash digest_{};
};

}  // namespace valcon::core
