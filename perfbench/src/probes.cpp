#include "probes.hpp"

#include <functional>
#include <vector>

#include "util.hpp"
#include "valcon/crypto/signatures.hpp"

namespace perfbench {

namespace crypto = valcon::crypto;

namespace {

constexpr int kBatches = 9;
constexpr double kBatchNs = 2e6;

/// Median CPU ns per call of `op` over kBatches batches of about kBatchNs
/// each. `op` returns a value folded into a sink so the calls cannot be
/// elided.
double ns_per_call(const std::function<std::uint64_t()>& op) {
  static volatile std::uint64_t sink = 0;
  double start = thread_cpu_seconds();
  sink = sink + op();  // warm-up, and a first estimate of the call cost
  const double first = std::max(1.0, (thread_cpu_seconds() - start) * 1e9);
  const auto calls = static_cast<std::size_t>(std::max(1.0, kBatchNs / first));
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    std::uint64_t acc = 0;
    start = thread_cpu_seconds();
    for (std::size_t i = 0; i < calls; ++i) acc += op();
    per_call.push_back((thread_cpu_seconds() - start) * 1e9 /
                       static_cast<double>(calls));
    sink = sink + acc;
  }
  return median(per_call);
}

crypto::Hash probe_digest(std::uint64_t salt) {
  return crypto::Hasher("perfbench/probe").add(salt).finish();
}

}  // namespace

const std::vector<int>& aggregate_probe_sizes() {
  static const std::vector<int> sizes{4, 7, 10, 13, 500, 1000, 2000};
  return sizes;
}

CryptoUnitCosts probe_crypto() {
  CryptoUnitCosts c;

  constexpr std::size_t kBlocks = 1024;
  const std::vector<std::uint8_t> buffer(kBlocks * 64, 0x5a);
  // A 64 KiB message compresses kBlocks data blocks plus one padding block.
  c.sha256_ns_per_block =
      ns_per_call([&buffer] {
        return static_cast<std::uint64_t>(
            crypto::Sha256::hash(buffer.data(), buffer.size())[0]);
      }) /
      static_cast<double>(kBlocks + 1);

  const int n = 13;
  const int k = n - (n - 1) / 3;
  const crypto::KeyRegistry registry(n, k, 7);
  const crypto::Hash digest = probe_digest(1);
  const crypto::Signer signer = registry.signer_for(0);
  c.sign_ns = ns_per_call([&] { return signer.sign(digest).mac; });
  const crypto::Signature sig = signer.sign(digest);
  c.verify_ns = ns_per_call(
      [&] { return static_cast<std::uint64_t>(registry.verify(sig)); });

  std::vector<crypto::Signature> partials;
  for (valcon::ProcessId id = 0; id < k; ++id) {
    partials.push_back(registry.signer_for(id).sign(digest));
  }
  const crypto::ThresholdSignature tsig = *registry.combine(partials);
  c.verify_threshold_ns = ns_per_call(
      [&] { return static_cast<std::uint64_t>(registry.verify(tsig)); });

  for (const int size : aggregate_probe_sizes()) {
    const int quorum = size - (size - 1) / 3;
    const crypto::KeyRegistry reg(size, quorum, 7);
    std::vector<crypto::Signature> votes;
    crypto::VoterBitset voters(size);
    for (valcon::ProcessId id = 0; id < quorum; ++id) {
      votes.push_back(reg.signer_for(id).sign(digest));
      voters.set(id);
    }
    const crypto::AggregateSignature agg = *crypto::aggregate(votes);
    c.verify_aggregate_ns[size] = ns_per_call([&] {
      return static_cast<std::uint64_t>(reg.verify_aggregate(voters, agg));
    });
  }
  return c;
}

}  // namespace perfbench
