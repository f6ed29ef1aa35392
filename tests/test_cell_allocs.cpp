// Heap allocations of one sweep cell, counted by replacing the global
// operator new (which is why this is its own test binary).
//
// A cell is a fresh Simulator, n protocol stacks and a RunResult. The
// simulator borrows its event-queue buffers and payload-slot tables from
// its thread's spare block (sim/simulator.hpp), so once a thread has run
// one cell, the next identical cell allocates only what it keeps: the same
// count every time, well below a cold cell's. The cell is the fault-free n = 7
// authenticated per-vote cell of bench_sweep's `qc` rows.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <new>

#include "valcon/core/lambda.hpp"
#include "valcon/core/validity.hpp"
#include "valcon/harness/scenario.hpp"

namespace {
thread_local std::uint64_t t_allocs = 0;
}  // namespace

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

namespace {

using namespace valcon;

TEST(CellAllocs, RepeatedCellAllocatesTheSameBoundedCount) {
  harness::ScenarioConfig cfg;
  cfg.n = 7;
  cfg.t = 2;
  cfg.seed = 1;
  cfg.vc = harness::VcKind::kAuthenticated;
  cfg.cert_mode = core::CertMode::kPerVote;
  cfg.proposals = {3, 1, 4, 1, 5, 9, 2};
  const core::StrongValidity validity;
  const core::LambdaFn lambda = core::make_lambda(validity, cfg.n, cfg.t);

  std::uint64_t counts[3] = {};
  for (std::uint64_t& count : counts) {
    const std::uint64_t before = t_allocs;
    const harness::RunResult result = harness::run_universal(cfg, lambda);
    count = t_allocs - before;
    ASSERT_TRUE(result.all_correct_decided(cfg));
    ASSERT_TRUE(result.agreement());
  }
  // The first cell on a thread also makes the thread's spare block and
  // the process-wide caches (key registry, payload-type ids).
  EXPECT_GE(counts[0], counts[1]);
  EXPECT_EQ(counts[1], counts[2]);
  // Measured with GCC and libstdc++, RelWithDebInfo: 303 allocations per
  // warm cell and 469 for the cold first one; before the simulator pooled
  // its storage a warm cell made 530. The ceiling leaves room for
  // standard-library differences, not for the event queue or the payload
  // slots regrowing per cell again.
  EXPECT_LE(counts[1], 340u);
}

}  // namespace
