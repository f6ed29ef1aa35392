#include "valcon/sim/payload.hpp"

#include <mutex>
#include <stdexcept>
#include <unordered_map>
#include <vector>

namespace valcon::sim {

namespace {

struct InternTable {
  std::mutex mu;
  // Point lookups only — never iterated.  Intern order (and thus id
  // assignment) depends on which payload class a run constructs first,
  // which concurrent sweeps do not agree on; anything serialized must
  // re-key by name (see Metrics::by_type).
  std::unordered_map<std::string, PayloadTypeId> ids;
  std::vector<std::string> names;  // id -> name, in intern order
};

// Leaked intentionally: payload classes intern from function-local statics
// whose destruction order relative to a file-scope table is unspecified.
InternTable& table() {
  static auto* t = new InternTable();
  return *t;
}

}  // namespace

PayloadTypeId PayloadTypeRegistry::intern(const char* name) {
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  const auto [it, inserted] =
      t.ids.try_emplace(name, static_cast<PayloadTypeId>(t.names.size()));
  if (inserted) t.names.push_back(it->first);
  return it->second;
}

std::string PayloadTypeRegistry::name_of(PayloadTypeId id) {
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  if (id >= t.names.size()) {
    throw std::out_of_range("payload type id " + std::to_string(id) +
                            " has not been interned (only " +
                            std::to_string(t.names.size()) + " types)");
  }
  return t.names[id];
}

std::map<std::string, std::uint64_t> PayloadTypeRegistry::count_by_name(
    const std::vector<std::uint64_t>& counts) {
  std::map<std::string, std::uint64_t> out;
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  for (PayloadTypeId id = 0; id < counts.size(); ++id) {
    if (counts[id] != 0) out[t.names[id]] += counts[id];
  }
  return out;
}

std::uint32_t PayloadTypeRegistry::size() {
  InternTable& t = table();
  const std::lock_guard<std::mutex> lock(t.mu);
  return static_cast<std::uint32_t>(t.names.size());
}

}  // namespace valcon::sim
