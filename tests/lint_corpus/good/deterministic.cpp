// Lint fixture: deterministic counterparts of everything bad/ trips on.
// Never compiled; must produce zero findings.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

// Monotonic host timing (progress reporting, benchmarks) is fine: it is
// not wall-clock and it must never feed serialized output.
double elapsed_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// Identifiers merely *containing* "time(" or "rand" must not trip:
// arrival_time(...) is a lookup, operand/rng are names.
double arrival_time(double base, double delta) { return base + delta; }
int operand_count(int operands) { return operands; }

// Point lookups and membership tests on unordered containers are fine —
// only iteration depends on hash order.
std::uint64_t hit_count(
    const std::unordered_map<std::string, std::uint64_t>& counts,
    const std::string& key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0 : it->second;
}

// Iteration that must be ordered goes through a sorted materialization,
// exactly like Metrics::by_type().
std::map<std::string, std::uint64_t> sorted_view(
    const std::unordered_map<std::string, std::uint64_t>& counts) {
  return {counts.find("a"), counts.find("a")};
}

// External input gets a real error path; asserts may still guard internal
// invariants in non-parsing functions.
int parse_count(const std::string& text) {
  if (text.empty() || text[0] < '0' || text[0] > '9') {
    throw std::invalid_argument("parse_count: not a digit: " + text);
  }
  return text[0] - '0';
}

// Stable-id keys instead of pointer keys.
struct Entry {
  int id = 0;
};
std::map<int, Entry> by_id;

// Hashing goes through crypto::Sha256, which picks its CPU kernel itself
// (mentioning __builtin_cpu_supports in a comment is fine), and a plain
// function or string named target is not a target attribute.
int target(int x) { return x; }
const char* kTargetNote = "__attribute__((target(\"avx2\")))";
