#include "valcon/crypto/signatures.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <stdexcept>

namespace valcon::crypto {

namespace {

std::uint64_t truncate(const Hash& h) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) out = (out << 8) | h.bytes[i];
  return out;
}

// One cached MAC. The key is the full MAC input (secret, digest) plus the
// epoch it was computed in; epochs start at 1, so an empty slot never hits.
struct MacMemoEntry {
  std::uint64_t epoch = 0;
  std::uint64_t secret = 0;
  Hash digest;
  std::uint64_t mac = 0;
};

constexpr std::size_t kMacMemoSlots = 4096;
static_assert(std::has_single_bit(kMacMemoSlots));
constexpr int kMacMemoShift = 64 - std::countr_zero(kMacMemoSlots);

thread_local std::uint64_t mac_epoch = 1;

// Heap-allocated on a thread's first MAC, so threads that never sign (the
// simulator-only paths) carry no table.
MacMemoEntry* mac_memo() {
  thread_local std::unique_ptr<MacMemoEntry[]> table;
  if (!table) table = std::make_unique<MacMemoEntry[]>(kMacMemoSlots);
  return table.get();
}

std::size_t mac_memo_slot(std::uint64_t secret, const Hash& digest) {
  // Secrets and digests are both hash outputs, so mixing one word of each
  // spreads voters of one digest and digests of one voter alike.
  std::uint64_t head = 0;
  std::memcpy(&head, digest.bytes.data(), sizeof(head));
  return static_cast<std::size_t>(((head ^ secret) * 0x9e3779b97f4a7c15ULL) >>
                                  kMacMemoShift);
}

std::uint64_t memo_mac(MacMemoEntry* memo, std::uint64_t secret,
                       const Hash& digest) {
  MacMemoEntry& entry = memo[mac_memo_slot(secret, digest)];
  if (entry.epoch == mac_epoch && entry.secret == secret &&
      entry.digest == digest) {
    return entry.mac;
  }
  entry = {mac_epoch, secret, digest,
           truncate(Hasher("valcon/sig").add(secret).add(digest).finish())};
  return entry.mac;
}

}  // namespace

void start_mac_epoch() { ++mac_epoch; }

std::size_t detail::MacMemoAccess::slot(const KeyRegistry& keys, ProcessId id,
                                        const Hash& digest) {
  return mac_memo_slot(keys.secret_for(id), digest);
}

VoterBitset::VoterBitset(int n) : n_(n) {
  if (n < 1) throw std::invalid_argument("VoterBitset: need n >= 1");
  words_.assign((static_cast<std::size_t>(n) + 63) / 64, 0);
}

void VoterBitset::set(ProcessId id) {
  if (id < 0 || id >= n_) {
    throw std::out_of_range("VoterBitset::set: id outside [0, n)");
  }
  words_[static_cast<std::size_t>(id) / 64] |=
      std::uint64_t{1} << (static_cast<std::size_t>(id) % 64);
}

bool VoterBitset::test(ProcessId id) const {
  if (id < 0 || id >= n_) return false;
  return (words_[static_cast<std::size_t>(id) / 64] >>
          (static_cast<std::size_t>(id) % 64)) &
         1;
}

int VoterBitset::count() const {
  int total = 0;
  for (const std::uint64_t word : words_) {
    total += std::popcount(word);
  }
  return total;
}

std::optional<AggregateSignature> aggregate(
    const std::vector<Signature>& partials) {
  if (partials.empty()) return std::nullopt;
  const Hash& digest = partials.front().digest;
  // Key-free, so signer ids are unchecked: duplicates are found by sorting
  // rather than by indexing a bitset.
  std::vector<ProcessId> signers;
  signers.reserve(partials.size());
  std::uint64_t sum = 0;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    signers.push_back(partial.signer);
    sum += partial.mac;  // mod 2^64 by unsigned wraparound
  }
  std::sort(signers.begin(), signers.end());
  if (std::adjacent_find(signers.begin(), signers.end()) != signers.end()) {
    return std::nullopt;
  }
  return AggregateSignature{digest, sum};
}

VerifyCounters& verify_counters() {
  thread_local VerifyCounters counters;
  return counters;
}

KeyRegistry::KeyRegistry(int n, int k, std::uint64_t seed)
    : n_(n), k_(k), seed_(seed) {
  root_secret_ =
      truncate(Hasher("valcon/root-secret").add(seed).finish());
  // Per-process secrets are derived on first use (secret_for); the slot
  // array is value-initialized (atomics zeroed, ready=false) and that is
  // the only O(n) cost a registry pays up front.
  secrets_ = std::make_unique<LazySecret[]>(static_cast<std::size_t>(n));
}

std::uint64_t KeyRegistry::secret_for(ProcessId id) const {
  LazySecret& slot = secrets_[static_cast<std::size_t>(id)];
  if (slot.ready.load(std::memory_order_acquire)) {
    return slot.value.load(std::memory_order_relaxed);
  }
  // Shared registries outlive runs, so which run pays a derivation depends
  // on the schedule: keep it out of the per-run block count.
  std::uint64_t& blocks = sha256_blocks();
  const std::uint64_t blocks_before = blocks;
  const std::uint64_t secret = truncate(
      Hasher("valcon/process-secret").add(seed_).add(id).finish());
  blocks = blocks_before;
  slot.value.store(secret, std::memory_order_relaxed);
  slot.ready.store(true, std::memory_order_release);
  derivations_.fetch_add(1, std::memory_order_relaxed);
  return secret;
}

std::uint64_t KeyRegistry::mac_for(ProcessId id, const Hash& digest) const {
  return memo_mac(mac_memo(), secret_for(id), digest);
}

std::uint64_t KeyRegistry::threshold_mac(const Hash& digest) const {
  return truncate(Hasher("valcon/tsig")
                      .add(root_secret_)
                      .add(static_cast<std::int64_t>(k_))
                      .add(digest)
                      .finish());
}

bool KeyRegistry::verify(const Signature& sig) const {
  ++verify_counters().signature;
  if (sig.signer < 0 || sig.signer >= n_) return false;
  return sig.mac == mac_for(sig.signer, sig.digest);
}

std::optional<ThresholdSignature> KeyRegistry::combine(
    const std::vector<Signature>& partials) const {
  if (static_cast<int>(partials.size()) < k_) return std::nullopt;
  // verify() has range-checked a signer before the duplicate test reads it,
  // and this per-partial order fixes how many verifies a rejection costs.
  std::vector<bool> seen(static_cast<std::size_t>(n_));
  const Hash& digest = partials.front().digest;
  for (const Signature& partial : partials) {
    if (partial.digest != digest) return std::nullopt;
    if (!verify(partial)) return std::nullopt;
    const auto signer = static_cast<std::size_t>(partial.signer);
    if (seen[signer]) return std::nullopt;
    seen[signer] = true;
  }
  return ThresholdSignature{digest, threshold_mac(digest)};
}

bool KeyRegistry::verify(const ThresholdSignature& tsig) const {
  ++verify_counters().threshold;
  return tsig.mac == threshold_mac(tsig.digest);
}

bool KeyRegistry::verify_aggregate(const VoterBitset& voters,
                                   const AggregateSignature& agg) const {
  ++verify_counters().aggregate;
  if (voters.capacity() != n_) return false;
  MacMemoEntry* memo = mac_memo();
  const std::vector<std::uint64_t>& words = voters.words();
  std::uint64_t expected = 0;
  int set_bits = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      // set() keeps every bit below capacity() == n_, so id is in range.
      const auto id =
          static_cast<ProcessId>(w * 64 + static_cast<std::size_t>(
                                              std::countr_zero(bits)));
      // mod 2^64, mirroring aggregate()
      expected += memo_mac(memo, secret_for(id), agg.digest);
      ++set_bits;
    }
  }
  if (set_bits == 0) return false;
  return agg.mac == expected;
}

Signer KeyRegistry::signer_for(ProcessId id) const {
  return Signer(this, id);
}

Signature Signer::sign(const Hash& digest) const {
  return Signature{id_, digest, registry_->mac_for(id_, digest)};
}

}  // namespace valcon::crypto
