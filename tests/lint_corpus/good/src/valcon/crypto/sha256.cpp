// Lint fixture: the one file allowed to hold CPU-dependent code may probe
// the CPU and carry target attributes. Never compiled; zero findings.
#include <cstdint>
#include <immintrin.h>

__attribute__((target("sha,sse4.1,ssse3"))) void kernel(std::uint32_t* s);

bool has_sha() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("sha");
}
