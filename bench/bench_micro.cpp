// E9 — microbenchmarks (google-benchmark) for the substrate costs:
// SHA-256 (the picked kernel and the portable one, so each kernel's
// per-block cost reads directly), the MAC every simulated signature
// computes, the simulated PKI, threshold combination, aggregate
// verification (one MAC per voter), Reed-Solomon
// encode/decode (with Berlekamp-Welch error correction), similarity
// enumeration and the generic Λ of Definition 2.
//
// KeyRegistry serves MACs from a per-thread memo that a run starts cold
// (crypto::start_mac_epoch). The MAC and aggregate benchmarks therefore
// come in two variants: Cold starts a new epoch every iteration, so every
// MAC is hashed; Warm repeats the same input, so every MAC is a memo hit.
#include <benchmark/benchmark.h>

#include "valcon/consensus/reed_solomon.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/crypto/sha256_kernel.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/rng.hpp"

using namespace valcon;

namespace {

void BM_Sha256(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::Sha256::hash(data.data(), data.size()));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(16384);

void BM_Sha256Portable(benchmark::State& state) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(state.range(0)), 7);
  for (auto _ : state) {
    crypto::Sha256 ctx = crypto::detail::KernelAccess::make(
        &crypto::detail::compress_blocks_portable);
    ctx.update(data.data(), data.size());
    benchmark::DoNotOptimize(ctx.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_Sha256Portable)->Arg(64)->Arg(1024)->Arg(16384);

// The shape of KeyRegistry's per-signature MAC: domain, secret and digest,
// 58 bytes, so two compression blocks after padding.
void BM_HasherMac(benchmark::State& state, bool cold) {
  const crypto::KeyRegistry keys(64, 43, 1);
  const crypto::Hash digest = crypto::Hasher("bench").add("m").finish();
  const auto signer = keys.signer_for(3);
  for (auto _ : state) {
    if (cold) crypto::start_mac_epoch();
    benchmark::DoNotOptimize(signer.sign(digest));
  }
}
BENCHMARK_CAPTURE(BM_HasherMac, Cold, true);
BENCHMARK_CAPTURE(BM_HasherMac, Warm, false);

// One MAC to sign, and a memo hit to verify it: the pattern of a run,
// where a signature's verifiers share the signer's thread.
void BM_SignVerify(benchmark::State& state) {
  const crypto::KeyRegistry keys(64, 43, 1);
  const crypto::Hash digest = crypto::Hasher("bench").add("m").finish();
  const auto signer = keys.signer_for(3);
  for (auto _ : state) {
    crypto::start_mac_epoch();
    const crypto::Signature sig = signer.sign(digest);
    benchmark::DoNotOptimize(keys.verify(sig));
  }
}
BENCHMARK(BM_SignVerify);

// Cold: every iteration hashes the k partial MACs it verifies.
void BM_ThresholdCombine(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = n - (n - 1) / 3;
  const crypto::KeyRegistry keys(n, k, 1);
  const crypto::Hash digest = crypto::Hasher("bench").add("t").finish();
  std::vector<crypto::Signature> partials;
  for (int i = 0; i < k; ++i) {
    partials.push_back(keys.signer_for(i).sign(digest));
  }
  for (auto _ : state) {
    crypto::start_mac_epoch();
    benchmark::DoNotOptimize(keys.combine(partials));
  }
}
BENCHMARK(BM_ThresholdCombine)->Arg(16)->Arg(64);

// verify_aggregate needs one MAC per set voter: hashed when cold, memo
// hits when warm.
void BM_VerifyAggregate(benchmark::State& state, bool cold) {
  const int n = static_cast<int>(state.range(0));
  const crypto::KeyRegistry keys(n, n - (n - 1) / 3, 1);
  const crypto::Hash digest = crypto::Hasher("bench").add("agg").finish();
  std::vector<crypto::Signature> partials;
  crypto::VoterBitset voters(n);
  for (int i = 0; i < n; ++i) {
    partials.push_back(keys.signer_for(i).sign(digest));
    voters.set(i);
  }
  const crypto::AggregateSignature agg = *crypto::aggregate(partials);
  for (auto _ : state) {
    if (cold) crypto::start_mac_epoch();
    benchmark::DoNotOptimize(keys.verify_aggregate(voters, agg));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK_CAPTURE(BM_VerifyAggregate, Cold, true)->Arg(7)->Arg(13)->Arg(1000);
BENCHMARK_CAPTURE(BM_VerifyAggregate, Warm, false)->Arg(7)->Arg(13)->Arg(1000);

void BM_RsEncode(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int k = (n - 1) / 3 + 1;
  const consensus::ReedSolomon rs(n, k);
  std::vector<std::uint8_t> data(512, 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.encode(data));
  }
}
BENCHMARK(BM_RsEncode)->Arg(16)->Arg(64);

void BM_RsDecodeWithErrors(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const int t = (n - 1) / 3;
  const int k = t + 1;
  const consensus::ReedSolomon rs(n, k);
  std::vector<std::uint8_t> data(128, 9);
  const auto shares = rs.encode(data);
  std::vector<std::optional<std::vector<std::uint8_t>>> received(
      static_cast<std::size_t>(n));
  for (int j = 0; j < n; ++j) {
    received[static_cast<std::size_t>(j)] = shares[static_cast<std::size_t>(j)];
  }
  for (int e = 0; e < t; ++e) {
    for (auto& b : *received[static_cast<std::size_t>(e)]) b ^= 0x5a;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(rs.decode(received, t));
  }
}
BENCHMARK(BM_RsDecodeWithErrors)->Arg(10)->Arg(16);

void BM_SimilarityEnumeration(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> domain = {0, 1};
  const core::InputConfig c = [&] {
    core::InputConfig cfg(n);
    for (int p = 0; p + 1 < n; ++p) cfg.set(p, p % 2);
    return cfg;
  }();
  for (auto _ : state) {
    int count = 0;
    core::for_each_similar(c, 1, domain, [&](const core::InputConfig&) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_SimilarityEnumeration)->Arg(4)->Arg(6)->Arg(8);

void BM_GenericLambda(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::vector<Value> domain = {0, 1, 2};
  const core::StrongValidity val;
  core::InputConfig vec(n);
  for (int p = 0; p + 1 < n; ++p) vec.set(p, p % 3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        core::generic_lambda(val, vec, 1, domain, domain));
  }
}
BENCHMARK(BM_GenericLambda)->Arg(4)->Arg(6);

void BM_ClosedFormLambda(benchmark::State& state) {
  const core::StrongValidity val;
  core::InputConfig vec(64);
  sim::Rng rng(5);
  for (int p = 0; p < 43; ++p) vec.set(p, static_cast<Value>(rng.next_below(4)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(val.closed_form_lambda(vec, 64, 21));
  }
}
BENCHMARK(BM_ClosedFormLambda);

}  // namespace

BENCHMARK_MAIN();
