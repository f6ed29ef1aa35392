#include "valcon/core/input_config.hpp"

#include <algorithm>
#include <cstring>

namespace valcon::core {

InputConfig InputConfig::of(
    int n, std::initializer_list<std::pair<ProcessId, Value>> pairs) {
  InputConfig c(n);
  for (const auto& [pid, value] : pairs) c.set(pid, value);
  return c;
}

InputConfig InputConfig::of(
    int n, const std::vector<std::pair<ProcessId, Value>>& pairs) {
  InputConfig c(n);
  for (const auto& [pid, value] : pairs) c.set(pid, value);
  return c;
}

int InputConfig::count() const {
  int x = 0;
  for (const auto& slot : slots_) x += slot.has_value() ? 1 : 0;
  return x;
}

std::vector<ProcessId> InputConfig::processes() const {
  std::vector<ProcessId> out;
  out.reserve(static_cast<std::size_t>(count()));
  for (int i = 0; i < n(); ++i) {
    if (participates(i)) out.push_back(i);
  }
  return out;
}

std::vector<Value> InputConfig::proposals() const {
  std::vector<Value> out;
  out.reserve(static_cast<std::size_t>(count()));
  for (const auto& slot : slots_) {
    if (slot.has_value()) out.push_back(*slot);
  }
  return out;
}

std::vector<Value> InputConfig::sorted_proposals() const {
  std::vector<Value> out = proposals();
  std::sort(out.begin(), out.end());
  return out;
}

bool InputConfig::valid_for(int n, int t) const {
  if (this->n() != n) return false;
  const int x = count();
  return x >= n - t && x <= n;
}

bool InputConfig::unanimous(Value* out) const {
  std::optional<Value> seen;
  for (const auto& slot : slots_) {
    if (!slot.has_value()) continue;
    if (seen.has_value() && *seen != *slot) return false;
    seen = *slot;
  }
  if (!seen.has_value()) return false;
  if (out != nullptr) *out = *seen;
  return true;
}

crypto::Hash InputConfig::digest() const {
  // Feeds scenario identity: traversal is dense slot order, so the hash is
  // a pure function of (n, slot contents) — no container order involved.
  crypto::Hasher h("valcon/input-config");
  h.add(static_cast<std::int64_t>(n()));
  for (int i = 0; i < n(); ++i) {
    const auto& slot = slots_[static_cast<std::size_t>(i)];
    h.add(static_cast<std::int64_t>(slot.has_value() ? 1 : 0));
    h.add(slot.value_or(0));
  }
  return h.finish();
}

std::vector<std::uint8_t> InputConfig::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(1 + slots_.size() * 9);
  out.push_back(static_cast<std::uint8_t>(n()));
  for (const auto& slot : slots_) {
    out.push_back(slot.has_value() ? 1 : 0);
    std::uint64_t raw =
        static_cast<std::uint64_t>(slot.value_or(0));
    for (int b = 0; b < 8; ++b) {
      out.push_back(static_cast<std::uint8_t>(raw >> (8 * b)));
    }
  }
  return out;
}

std::optional<InputConfig> InputConfig::deserialize(
    const std::vector<std::uint8_t>& bytes) {
  if (bytes.empty()) return std::nullopt;
  const int n = bytes[0];
  if (bytes.size() != 1 + static_cast<std::size_t>(n) * 9) return std::nullopt;
  InputConfig c(n);
  std::size_t pos = 1;
  for (int i = 0; i < n; ++i) {
    const bool present = bytes[pos++] != 0;
    std::uint64_t raw = 0;
    for (int b = 0; b < 8; ++b) {
      raw |= static_cast<std::uint64_t>(bytes[pos++]) << (8 * b);
    }
    if (present) c.set(i, static_cast<Value>(raw));
  }
  return c;
}

std::string InputConfig::to_string() const {
  std::string out = "{";
  bool first = true;
  for (int i = 0; i < n(); ++i) {
    if (!participates(i)) continue;
    if (!first) out += ", ";
    first = false;
    out += "(P" + std::to_string(i) + "," + std::to_string(*at(i)) + ")";
  }
  out += "}";
  return out;
}

}  // namespace valcon::core
