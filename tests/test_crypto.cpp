// Unit tests: SHA-256 (FIPS vectors, both compression kernels in lockstep,
// the per-thread block counter), structured hashing, the simulated PKI,
// the per-thread MAC memo and the (k, n)-threshold signature scheme.
#include <gtest/gtest.h>

#include <algorithm>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "valcon/crypto/hash.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/crypto/sha256_kernel.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/rng.hpp"

using namespace valcon;
using namespace valcon::crypto;

namespace {

std::string hex(const Sha256::Digest& d) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  for (const auto b : d) {
    out.push_back(kHex[b >> 4]);
    out.push_back(kHex[b & 0x0f]);
  }
  return out;
}

}  // namespace

TEST(Sha256, FipsVectorEmpty) {
  EXPECT_EQ(hex(Sha256::hash("", 0)),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855");
}

TEST(Sha256, FipsVectorAbc) {
  EXPECT_EQ(hex(Sha256::hash("abc", 3)),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad");
}

TEST(Sha256, FipsVectorTwoBlocks) {
  const std::string msg =
      "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq";
  EXPECT_EQ(hex(Sha256::hash(msg.data(), msg.size())),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1");
}

TEST(Sha256, MillionAs) {
  Sha256 ctx;
  const std::string chunk(1000, 'a');
  for (int i = 0; i < 1000; ++i) ctx.update(chunk.data(), chunk.size());
  EXPECT_EQ(hex(ctx.digest()),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0");
}

TEST(Sha256, IncrementalMatchesOneShot) {
  const std::string msg = "partially synchronous byzantine consensus";
  Sha256 ctx;
  for (const char c : msg) ctx.update(&c, 1);
  EXPECT_EQ(ctx.digest(), Sha256::hash(msg.data(), msg.size()));
}

// ---------------------------------------------------------------- kernels
//
// Both compression kernels run through the same update()/digest() code.
// The expected digests come from outside this code (FIPS 180-4 and
// Python's hashlib), so a padding bug shared by both kernels still fails.

namespace {

struct Kernel {
  const char* name;
  detail::CompressFn compress;
};

void PrintTo(const Kernel& kernel, std::ostream* os) { *os << kernel.name; }

// One context on `kernel`, fed `msg` in pieces of the given sizes (the
// last piece takes whatever remains).
Sha256::Digest hash_in_chunks(detail::CompressFn kernel,
                              const std::string& msg,
                              const std::vector<std::size_t>& chunks) {
  Sha256 ctx = detail::KernelAccess::make(kernel);
  std::size_t at = 0;
  for (const std::size_t chunk : chunks) {
    const std::size_t take = std::min(chunk, msg.size() - at);
    ctx.update(msg.data() + at, take);
    at += take;
  }
  ctx.update(msg.data() + at, msg.size() - at);
  return ctx.digest();
}

std::string patterned(std::size_t len) {
  std::string msg(len, '\0');
  for (std::size_t i = 0; i < len; ++i) {
    msg[i] = static_cast<char>((i * 131 + 7) & 0xff);
  }
  return msg;
}

class Sha256Kernel : public ::testing::TestWithParam<Kernel> {
 protected:
  void SetUp() override {
    if (GetParam().compress == &detail::compress_blocks_sha_ni &&
        !detail::sha_ni_supported()) {
      GTEST_SKIP() << "this CPU lacks SHA-NI; only the portable kernel runs";
    }
  }
  [[nodiscard]] detail::CompressFn kernel() const {
    return GetParam().compress;
  }
};

}  // namespace

TEST_P(Sha256Kernel, FipsVectors) {
  const std::vector<std::pair<std::string, std::string>> vectors = {
      {"", "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {"abc",
       "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"},
      {"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq",
       "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"},
      {std::string(1000000, 'a'),
       "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"},
  };
  for (const auto& [msg, expected] : vectors) {
    EXPECT_EQ(hex(hash_in_chunks(kernel(), msg, {})), expected)
        << "length " << msg.size();
    EXPECT_EQ(hex(hash_in_chunks(kernel(), msg, {1, 63, 65, 1000})), expected)
        << "length " << msg.size() << ", chunked";
  }
}

TEST_P(Sha256Kernel, PaddingBoundaries) {
  // hashlib.sha256(bytes((i * 131 + 7) & 0xff for i in range(len))).
  const std::vector<std::pair<std::size_t, std::string>> vectors = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "16ed9c4697ca11d5f6fb25ea7900252dd4cb97215d7f6d0b2bb3e2a86ac0ec72"},
      {56, "939ada93b2fe1e9c596d767bb408567c83e253667f0b25e5be8e16f35f2cbac9"},
      {63, "6073f83b09ae82016cdbe24c18996c48f0eaa08ca675d0f6b90b807fc29e0149"},
      {64, "b337ba9b0c69c391364e985fdcb23a889887e59800832c92fbfa22b8a3c40304"},
      {119,
       "9773fbac8194c3d789af101b49b6a26073076895ef6e0f658432849dd477a43f"},
      {120,
       "070a538f085dd94821d4dc197c5c8b791051891d4fa2a1bf25d3c275236676f7"},
  };
  for (const auto& [len, expected] : vectors) {
    EXPECT_EQ(hex(hash_in_chunks(kernel(), patterned(len), {})), expected)
        << "length " << len;
  }
}

TEST_P(Sha256Kernel, RandomChunksMatchPortableOneShot) {
  sim::Rng rng(256);
  for (std::size_t len = 0; len <= 600; ++len) {
    std::string msg(len, '\0');
    for (char& c : msg) c = static_cast<char>(rng.next_below(256));
    const Sha256::Digest reference =
        hash_in_chunks(&detail::compress_blocks_portable, msg, {});
    std::vector<std::size_t> chunks;
    for (std::size_t left = len; left > 0;) {
      const std::size_t chunk = 1 + rng.next_below(150);
      chunks.push_back(chunk);
      left -= std::min(chunk, left);
    }
    ASSERT_EQ(hash_in_chunks(kernel(), msg, chunks), reference)
        << "length " << len << " in " << chunks.size() << " chunks";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kernels, Sha256Kernel,
    ::testing::Values(Kernel{"Portable", &detail::compress_blocks_portable},
                      Kernel{"ShaNi", &detail::compress_blocks_sha_ni}),
    [](const ::testing::TestParamInfo<Kernel>& kernel_info) {
      return std::string(kernel_info.param.name);
    });

TEST(Sha256, DefaultContextRunsThePickedKernel) {
  const detail::CompressFn expected = detail::sha_ni_supported()
                                          ? &detail::compress_blocks_sha_ni
                                          : &detail::compress_blocks_portable;
  EXPECT_EQ(detail::picked_kernel(), expected);
}

TEST(Sha256, BlockCounterCountsEveryCompressedBlock) {
  const auto blocks_for = [](std::size_t len, std::size_t piece) {
    const std::string msg = patterned(len);
    const std::uint64_t before = sha256_blocks();
    Sha256 ctx;
    for (std::size_t at = 0; at < len; at += piece) {
      ctx.update(msg.data() + at, std::min(piece, len - at));
    }
    static_cast<void>(ctx.digest());
    return sha256_blocks() - before;
  };
  // Padding adds 9 bytes, rounded up to whole 64-byte blocks.
  EXPECT_EQ(blocks_for(0, 1), 1u);
  EXPECT_EQ(blocks_for(55, 1), 1u);
  EXPECT_EQ(blocks_for(56, 1), 2u);
  EXPECT_EQ(blocks_for(64, 64), 2u);
  EXPECT_EQ(blocks_for(130, 1), 3u);
  EXPECT_EQ(blocks_for(16384, 1000), 257u);
}

TEST(Hasher, DomainSeparation) {
  const Hash a = Hasher("domain-a").add(std::int64_t{42}).finish();
  const Hash b = Hasher("domain-b").add(std::int64_t{42}).finish();
  EXPECT_NE(a, b);
}

TEST(Hasher, LengthPrefixingPreventsConcatenationCollisions) {
  const Hash a = Hasher("d").add("ab").add("c").finish();
  const Hash b = Hasher("d").add("a").add("bc").finish();
  EXPECT_NE(a, b);
}

TEST(Hasher, Deterministic) {
  const auto make = [] {
    return Hasher("d").add(std::int64_t{-7}).add("x").finish();
  };
  EXPECT_EQ(make(), make());
}

TEST(Hash, HexPrefix) {
  Hash h;
  h.bytes[0] = 0xab;
  h.bytes[1] = 0xcd;
  EXPECT_EQ(h.hex_prefix(4), "abcd");
}

TEST(Signatures, SignVerifyRoundtrip) {
  const KeyRegistry keys(4, 3, 99);
  const Hash digest = Hasher("msg").add("hello").finish();
  const Signature sig = keys.signer_for(2).sign(digest);
  EXPECT_EQ(sig.signer, 2);
  EXPECT_TRUE(keys.verify(sig));
}

TEST(Signatures, TamperedMacRejected) {
  const KeyRegistry keys(4, 3, 99);
  Signature sig = keys.signer_for(1).sign(Hasher("m").add("x").finish());
  sig.mac ^= 1;
  EXPECT_FALSE(keys.verify(sig));
}

TEST(Signatures, WrongSignerClaimRejected) {
  const KeyRegistry keys(4, 3, 99);
  Signature sig = keys.signer_for(1).sign(Hasher("m").add("x").finish());
  sig.signer = 2;  // forged identity: mac no longer matches
  EXPECT_FALSE(keys.verify(sig));
}

TEST(Signatures, DifferentSeedsDifferentKeys) {
  const KeyRegistry keys_a(4, 3, 1);
  const KeyRegistry keys_b(4, 3, 2);
  const Hash digest = Hasher("m").add("x").finish();
  const Signature sig = keys_a.signer_for(0).sign(digest);
  EXPECT_FALSE(keys_b.verify(sig));
}

// ---------------------------------------------------------------- MAC memo
//
// KeyRegistry::mac_for serves MACs from a per-thread memo keyed by the full
// input. Whatever the memo holds, every MAC must equal the documented
// construction hashed afresh: sig(i, d) = SHA256(secret_i || d), truncated.

namespace {

std::uint64_t truncated(const Hash& h) {
  std::uint64_t out = 0;
  for (std::size_t i = 0; i < 8; ++i) out = (out << 8) | h.bytes[i];
  return out;
}

std::uint64_t fresh_mac(std::uint64_t seed, ProcessId id, const Hash& digest) {
  const std::uint64_t secret =
      truncated(Hasher("valcon/process-secret").add(seed).add(id).finish());
  return truncated(Hasher("valcon/sig").add(secret).add(digest).finish());
}

Hash random_digest(sim::Rng& rng) {
  Hash h;
  for (auto& byte : h.bytes) byte = static_cast<std::uint8_t>(rng.next());
  return h;
}

}  // namespace

TEST(MacMemo, HitsAndMissesEqualAFreshMac) {
  sim::Rng rng(2023);
  for (int round = 0; round < 200; ++round) {
    const std::uint64_t seed = rng.next_below(8);
    const KeyRegistry keys(64, 43, seed);
    const auto id = static_cast<ProcessId>(rng.next_below(64));
    const Hash digest = random_digest(rng);
    const Signature first = keys.signer_for(id).sign(digest);
    const Signature again = keys.signer_for(id).sign(digest);
    EXPECT_EQ(first.mac, fresh_mac(seed, id, digest));
    EXPECT_EQ(again.mac, first.mac);
    EXPECT_TRUE(keys.verify(first));
  }
}

TEST(MacMemo, AMissHashesTwoBlocksAndAHitNone) {
  const KeyRegistry keys(4, 3, 5);
  const Hash digest = Hasher("m").add("blocks").finish();
  const Signer signer = keys.signer_for(1);

  start_mac_epoch();
  std::uint64_t before = sha256_blocks();
  const Signature sig = signer.sign(digest);
  // The 58-byte MAC input; deriving the secret first is not counted.
  EXPECT_EQ(sha256_blocks() - before, 2u);
  EXPECT_EQ(keys.key_derivations(), 1u);
  before = sha256_blocks();
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_EQ(sha256_blocks() - before, 0u);

  // A new epoch forgets it: the same check hashes again.
  start_mac_epoch();
  before = sha256_blocks();
  EXPECT_TRUE(keys.verify(sig));
  EXPECT_EQ(sha256_blocks() - before, 2u);
}

TEST(MacMemo, DigestsSharingOneSlotKeepTheirOwnMacs) {
  const std::uint64_t seed = 17;
  const KeyRegistry keys(8, 6, seed);
  const ProcessId id = 3;
  sim::Rng rng(99);
  const Hash anchor = random_digest(rng);
  const std::size_t slot = detail::MacMemoAccess::slot(keys, id, anchor);
  std::vector<Hash> crowd = {anchor};
  while (crowd.size() < 12) {
    const Hash candidate = random_digest(rng);
    if (detail::MacMemoAccess::slot(keys, id, candidate) == slot) {
      crowd.push_back(candidate);
    }
  }
  // Each sign evicts the previous digest from the shared slot; every check
  // afterwards, in any order, still sees its own MAC.
  std::vector<Signature> sigs;
  for (const Hash& digest : crowd) {
    sigs.push_back(keys.signer_for(id).sign(digest));
  }
  for (std::size_t i = 0; i < crowd.size(); ++i) {
    EXPECT_EQ(sigs[i].mac, fresh_mac(seed, id, crowd[i])) << i;
  }
  for (std::size_t i = crowd.size(); i-- > 0;) {
    EXPECT_TRUE(keys.verify(sigs[i])) << i;
    Signature moved = sigs[i];
    moved.digest = crowd[(i + 1) % crowd.size()];
    EXPECT_FALSE(keys.verify(moved)) << i;
  }
}

TEST(MacMemo, TwoRegistriesOnOneThreadKeepTheirOwnMacs) {
  const KeyRegistry keys_a(4, 3, 1);
  const KeyRegistry keys_b(4, 3, 2);
  // A digest whose memo slot is the same under both registries' keys, so
  // the second registry's lookup lands on the first one's entry.
  sim::Rng rng(7);
  Hash digest = random_digest(rng);
  while (detail::MacMemoAccess::slot(keys_a, 0, digest) !=
         detail::MacMemoAccess::slot(keys_b, 0, digest)) {
    digest = random_digest(rng);
  }
  const Signature from_a = keys_a.signer_for(0).sign(digest);
  EXPECT_FALSE(keys_b.verify(from_a));
  const Signature from_b = keys_b.signer_for(0).sign(digest);
  EXPECT_NE(from_a.mac, from_b.mac);
  EXPECT_EQ(from_a.mac, fresh_mac(1, 0, digest));
  EXPECT_EQ(from_b.mac, fresh_mac(2, 0, digest));
  EXPECT_TRUE(keys_a.verify(from_a));
  EXPECT_FALSE(keys_a.verify(from_b));
  EXPECT_TRUE(keys_b.verify(from_b));
}

TEST(MacMemo, CachedTrueMacStillRejectsForgedSignatures) {
  const KeyRegistry keys(4, 3, 99);
  const Hash digest = Hasher("m").add("cached").finish();
  const Signature sig = keys.signer_for(1).sign(digest);
  ASSERT_TRUE(keys.verify(sig));  // the true MAC is now cached

  Signature tampered = sig;
  tampered.mac ^= 1;
  EXPECT_FALSE(keys.verify(tampered));
  Signature claimed = sig;
  claimed.signer = 2;
  EXPECT_FALSE(keys.verify(claimed));
  Signature out_of_range = sig;
  out_of_range.signer = 4;
  EXPECT_FALSE(keys.verify(out_of_range));
}

TEST(MacMemo, VerifyCountsAndKeyDerivationsIgnoreHits) {
  const KeyRegistry keys(4, 3, 31);
  const Hash digest = Hasher("m").add("counts").finish();
  const Signature sig = keys.signer_for(2).sign(digest);
  EXPECT_EQ(keys.key_derivations(), 1u);
  const VerifyCounters before = verify_counters();
  for (int i = 0; i < 3; ++i) EXPECT_TRUE(keys.verify(sig));  // all hits
  EXPECT_EQ(verify_counters().signature - before.signature, 3u);
  EXPECT_EQ(keys.key_derivations(), 1u);

  // A second registry over the same seed finds the MAC cached, yet still
  // derives the secret it keys the lookup with.
  const KeyRegistry twin(4, 3, 31);
  EXPECT_TRUE(twin.verify(sig));
  EXPECT_EQ(twin.key_derivations(), 1u);
}

TEST(Threshold, CombineRequiresKDistinctSigners) {
  const KeyRegistry keys(4, 3, 7);
  const Hash digest = Hasher("m").add("t").finish();
  std::vector<Signature> partials;
  partials.push_back(keys.signer_for(0).sign(digest));
  partials.push_back(keys.signer_for(1).sign(digest));
  EXPECT_FALSE(keys.combine(partials).has_value());  // only 2 < k = 3
  partials.push_back(keys.signer_for(0).sign(digest));
  EXPECT_FALSE(keys.combine(partials).has_value());  // duplicate signer
  partials.pop_back();
  partials.push_back(keys.signer_for(2).sign(digest));
  const auto tsig = keys.combine(partials);
  ASSERT_TRUE(tsig.has_value());
  EXPECT_TRUE(keys.verify(*tsig));
  EXPECT_EQ(tsig->digest, digest);
}

TEST(Threshold, MixedDigestsRejected) {
  const KeyRegistry keys(4, 3, 7);
  const Hash d1 = Hasher("m").add("a").finish();
  const Hash d2 = Hasher("m").add("b").finish();
  std::vector<Signature> partials = {keys.signer_for(0).sign(d1),
                                     keys.signer_for(1).sign(d1),
                                     keys.signer_for(2).sign(d2)};
  EXPECT_FALSE(keys.combine(partials).has_value());
}

TEST(Threshold, InvalidPartialRejected) {
  const KeyRegistry keys(4, 3, 7);
  const Hash digest = Hasher("m").add("t").finish();
  std::vector<Signature> partials = {keys.signer_for(0).sign(digest),
                                     keys.signer_for(1).sign(digest),
                                     keys.signer_for(2).sign(digest)};
  partials[1].mac ^= 1;
  EXPECT_FALSE(keys.combine(partials).has_value());
}

TEST(Threshold, ForgedThresholdSigRejected) {
  const KeyRegistry keys(4, 3, 7);
  ThresholdSignature forged;
  forged.digest = Hasher("m").add("t").finish();
  forged.mac = 0xdeadbeef;
  EXPECT_FALSE(keys.verify(forged));
}

// Values captured from the byte-at-a-time reference kernel this library
// shipped before the compression kernels were split out. A kernel bug
// fails here by name, not only through the pinned sweep golden.
TEST(KnownAnswer, SignCombineAndAggregateMacs) {
  const KeyRegistry keys(7, 5, 20231);
  const Hash digest = Hasher("valcon/kat")
                          .add("known answer")
                          .add(std::int64_t{42})
                          .finish();
  EXPECT_EQ(hex(digest.bytes),
            "921d39d01573081e130e30cc5f64c622d6f34cf3033bb81815a7178222aa7829");
  EXPECT_EQ(keys.signer_for(3).sign(digest).mac, 0x301ebbfceccdbbdeULL);

  std::vector<Signature> partials;
  for (ProcessId id = 0; id < 5; ++id) {
    partials.push_back(keys.signer_for(id).sign(digest));
  }
  const auto tsig = keys.combine(partials);
  ASSERT_TRUE(tsig.has_value());
  EXPECT_EQ(tsig->mac, 0xb76b8fe98925490bULL);
  const auto agg = aggregate(partials);
  ASSERT_TRUE(agg.has_value());
  EXPECT_EQ(agg->mac, 0x40dc3a08eadc9de4ULL);
}
