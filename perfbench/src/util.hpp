// Small helpers shared by the benchmark's translation units: clocks, order
// statistics, seed mixing, line digests and the per-thread allocation
// counter (alloc_counter.cpp replaces the global operator new).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <ctime>
#include <string>
#include <string_view>
#include <vector>

#include "valcon/crypto/sha256.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double ns_between(Clock::time_point a,
                                       Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// CPU time the calling thread has consumed so far. A kernel with
/// paravirtual steal accounting leaves out time the hypervisor stole from
/// the virtual CPU, which wall time includes.
[[nodiscard]] inline double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Heap allocations made so far by the calling thread.
[[nodiscard]] std::uint64_t thread_allocs();

/// Linear-interpolation quantile (q in [0, 1]) — the "inclusive" method, so
/// q = 0.5 is the median. Returns 0 for an empty sample.
[[nodiscard]] inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

[[nodiscard]] inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// `count` consecutive cell seeds for one axis of a workload, derived from
/// the workload seed and a per-axis salt. Kept below 10^9 so outcome lines
/// stay readable.
[[nodiscard]] inline std::vector<std::uint64_t> derived_seeds(
    std::uint64_t seed, std::uint64_t salt, std::size_t count) {
  const std::uint64_t base = splitmix64(seed * 1000003ULL + salt) % 900000000ULL;
  std::vector<std::uint64_t> out(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = base + 1 + i;
  return out;
}

/// 64-bit FNV-1a, used to compare one cell's output line across passes.
[[nodiscard]] inline std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 1469598103934665603ULL;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 1099511628211ULL;
  }
  return h;
}

[[nodiscard]] inline std::string hex(const valcon::crypto::Sha256::Digest& d) {
  static const char* kHex = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t byte : d) {
    out.push_back(kHex[byte >> 4]);
    out.push_back(kHex[byte & 0xf]);
  }
  return out;
}

}  // namespace perfbench
