#include "valcon/core/quorum.hpp"

namespace valcon::core {

std::string cert_mode_token(CertMode mode) {
  switch (mode) {
    case CertMode::kPerVote:
      return "per-vote";
    case CertMode::kAggregate:
      return "aggregate";
  }
  return "per-vote";
}

std::optional<CertMode> cert_mode_from_token(const std::string& token) {
  if (token == "per-vote") return CertMode::kPerVote;
  if (token == "aggregate") return CertMode::kAggregate;
  return std::nullopt;
}

bool QuorumCollector::add(const crypto::Signature& sig) {
  Tally& tally = tallies_[sig.digest];
  if (!tally.signers.insert(sig.signer)) return false;
  tally.sigs.push_back(sig);
  return true;
}

int QuorumCollector::count(const crypto::Hash& digest) const {
  const auto it = tallies_.find(digest);
  if (it == tallies_.end()) return 0;
  return it->second.signers.size();
}

std::optional<QuorumCollector::Certificate> QuorumCollector::certify(
    const crypto::Hash& digest, int n, int threshold) const {
  const auto it = tallies_.find(digest);
  if (it == tallies_.end()) return std::nullopt;
  const Tally& tally = it->second;
  if (static_cast<int>(tally.sigs.size()) < threshold) return std::nullopt;
  std::vector<crypto::Signature> batch(
      tally.sigs.begin(), tally.sigs.begin() + threshold);
  const auto agg = crypto::aggregate(batch);
  if (!agg) return std::nullopt;
  crypto::VoterBitset voters(n);
  for (const crypto::Signature& sig : batch) voters.set(sig.signer);
  return Certificate{std::move(voters), *agg};
}

std::vector<crypto::Hash> QuorumCollector::digests() const {
  std::vector<crypto::Hash> out;
  out.reserve(tallies_.size());
  for (const auto& [digest, tally] : tallies_) out.push_back(digest);
  return out;
}

const std::vector<crypto::Signature>& QuorumCollector::partials(
    const crypto::Hash& digest) const {
  static const std::vector<crypto::Signature> kEmpty;
  const auto it = tallies_.find(digest);
  return it == tallies_.end() ? kEmpty : it->second.sigs;
}

int QuorumCollector::prune_invalid(const crypto::KeyRegistry& keys) {
  int removed = 0;
  for (auto& [digest, tally] : tallies_) {
    std::vector<crypto::Signature> kept;
    kept.reserve(tally.sigs.size());
    for (const crypto::Signature& sig : tally.sigs) {
      if (keys.verify(sig)) {
        kept.push_back(sig);
      } else {
        tally.signers.erase(sig.signer);
        ++removed;
      }
    }
    tally.sigs = std::move(kept);
  }
  return removed;
}

std::pair<int, std::uint64_t> QuorumCollector::rivalry(
    const crypto::Hash& winner) const {
  int winner_count = 0;
  int strongest_rival = 0;
  std::uint64_t conflicting = 0;
  for (const auto& [digest, tally] : tallies_) {
    const int votes = tally.signers.size();
    if (digest == winner) {
      winner_count = votes;
      continue;
    }
    conflicting += static_cast<std::uint64_t>(votes);
    if (votes > strongest_rival) strongest_rival = votes;
  }
  return {winner_count - strongest_rival, conflicting};
}

std::optional<QuorumCollector::Certificate> certify_verified(
    QuorumCollector& collector, const crypto::KeyRegistry& keys,
    const crypto::Hash& digest, int n, int threshold) {
  auto cert = collector.certify(digest, n, threshold);
  if (!cert) return std::nullopt;
  if (keys.verify_aggregate(cert->voters, cert->agg)) return cert;
  if (collector.prune_invalid(keys) == 0) return std::nullopt;
  cert = collector.certify(digest, n, threshold);
  if (!cert) return std::nullopt;
  if (!keys.verify_aggregate(cert->voters, cert->agg)) return std::nullopt;
  return cert;
}

}  // namespace valcon::core
