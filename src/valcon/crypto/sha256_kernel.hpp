// Internal: the SHA-256 compression kernels behind crypto::Sha256.
//
// Not part of the public API. Sha256 runs one kernel, picked once per
// process (SHA-NI where the CPU has it, the portable rounds elsewhere);
// this header exists so tests can run both kernels in lockstep through the
// same update()/digest() code.
#pragma once

#include <cstddef>
#include <cstdint>

#include "valcon/crypto/sha256.hpp"

namespace valcon::crypto::detail {

/// Portable FIPS 180-4 rounds; runs on every host.
void compress_blocks_portable(std::uint32_t* state, const std::uint8_t* data,
                              std::size_t nblocks);

/// x86 SHA-NI rounds. Call only when sha_ni_supported() is true.
void compress_blocks_sha_ni(std::uint32_t* state, const std::uint8_t* data,
                            std::size_t nblocks);

/// Whether this build and CPU can run compress_blocks_sha_ni.
[[nodiscard]] bool sha_ni_supported();

/// The kernel every default-constructed Sha256 runs: SHA-NI when
/// sha_ni_supported(), else portable. Picked on the first call.
[[nodiscard]] CompressFn picked_kernel();

/// A context that runs `kernel` instead of the picked one.
struct KernelAccess {
  [[nodiscard]] static Sha256 make(CompressFn kernel) { return Sha256(kernel); }
};

}  // namespace valcon::crypto::detail
