// Lint fixture: CPU-dependent code outside src/valcon/crypto/sha256.cpp.
// Never compiled.
#include <cstdint>
#include <immintrin.h>  // lint-expect: cpu-dispatch
#include <x86intrin.h>  // lint-expect: cpu-dispatch

__attribute__((target("avx2"))) void wide_sum(const std::uint32_t* v);  // lint-expect: cpu-dispatch
__attribute__((always_inline, target("sse4.2"))) inline void crc() {}  // lint-expect: cpu-dispatch
[[gnu::target("popcnt")]] int bits(unsigned x);  // lint-expect: cpu-dispatch
__attribute__((target_clones("avx2", "default"))) int cloned(int x);  // lint-expect: cpu-dispatch

bool fast_path() {
  return __builtin_cpu_supports("avx2");  // lint-expect: cpu-dispatch
}
