// Counts heap allocations per thread by replacing the global operator new.
// A thread-local counter costs one increment per allocation and never
// contends between the sweep workers; the traced run reads it around the
// event loop to report sim.heap_allocs_per_msg.
#include <cstdlib>
#include <new>

#include "util.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

std::uint64_t perfbench::thread_allocs() { return t_allocs; }

// GCC cannot see that the replaced operator new below is malloc-based and
// flags the free() in operator delete as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  ++t_allocs;
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  ++t_allocs;
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
