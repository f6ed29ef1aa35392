// SHA-256 (FIPS 180-4). Used as the collision-resistant hash function the
// paper assumes for Appendix B.3 (vector dissemination and ADD) and as the
// digest underlying the simulated signature scheme.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace valcon::crypto {

namespace detail {
/// A SHA-256 compression kernel: folds `nblocks` consecutive 64-byte
/// blocks at `data` into `state` (see sha256_kernel.hpp).
using CompressFn = void (*)(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);
struct KernelAccess;
}  // namespace detail

/// SHA-256 compression blocks the calling thread has run, over every
/// context and kernel (consumers take deltas). A deterministic unit of
/// hashing work: run_universal reports a run's delta as
/// RunResult::hash_blocks. Mutable so a cache shared across runs can keep
/// its fills out of the count (see KeyRegistry::secret_for).
[[nodiscard]] std::uint64_t& sha256_blocks();

/// Incremental SHA-256 context. Feed bytes with update(), finish with
/// digest(). A context must not be updated after digest() is called.
class Sha256 {
 public:
  static constexpr std::size_t kDigestSize = 32;
  using Digest = std::array<std::uint8_t, kDigestSize>;

  Sha256();

  void update(const void* data, std::size_t len);
  [[nodiscard]] Digest digest();

  /// One-shot convenience.
  [[nodiscard]] static Digest hash(const void* data, std::size_t len);

 private:
  friend struct detail::KernelAccess;
  explicit Sha256(detail::CompressFn compress_blocks);
  /// Runs the kernel on `nblocks` blocks and counts them for sha256_blocks().
  void compress(const std::uint8_t* data, std::size_t nblocks);

  static constexpr std::size_t kBlockSize = 64;

  detail::CompressFn compress_blocks_;
  std::array<std::uint32_t, 8> state_;
  // Two blocks: digest() pads the partial block in place, which spills
  // into a second block when fewer than 9 bytes of the first remain.
  std::array<std::uint8_t, 2 * kBlockSize> buffer_;
  std::size_t buffer_len_ = 0;
  std::uint64_t total_len_ = 0;
};

}  // namespace valcon::crypto
