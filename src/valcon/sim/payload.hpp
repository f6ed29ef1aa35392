// Message payloads.
//
// Every protocol message derives from Payload. Payloads are immutable and
// shared: the network hands the same object to every recipient. size_words()
// implements the paper's communication-complexity accounting (footnote 4):
// a word holds a constant number of values, hashes and signatures, so e.g. a
// vector of x proposals costs x words and a threshold signature costs 1.
//
// Payload types are interned: every distinct type_name() maps to a small
// dense PayloadTypeId, which is what Metrics counts by on the per-message
// hot path (an array index instead of a string-keyed map lookup). Concrete
// payload classes declare both name and id with VALCON_PAYLOAD_TYPE, which
// caches the interned id in a function-local static so the registry is
// consulted once per type, not once per message. Wrapper payloads (MuxMsg,
// equivocation envelopes) forward type_id() to the wrapped message, exactly
// as they forward type_name().
//
// make_payload allocates from the current PayloadSlab when a simulator is
// dispatching (see payload_slab.hpp) — the allocation-free fast path — and
// falls back to make_shared outside any simulation scope.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "valcon/sim/payload_slab.hpp"

namespace valcon::sim {

/// Dense index identifying an interned payload type name.
using PayloadTypeId = std::uint32_t;

/// Process-global intern table for payload type names. Registration is
/// mutex-protected (payload classes intern once, from a function-local
/// static initializer); readers get copies, so concurrent sweeps never
/// observe a torn table.
class PayloadTypeRegistry {
 public:
  /// Returns the id for `name`, interning it on first sight. Two classes
  /// using the same name share an id — the same aliasing the string-keyed
  /// map had.
  [[nodiscard]] static PayloadTypeId intern(const char* name);

  /// The name interned for `id`. Throws std::out_of_range for an id no
  /// intern() call has returned.
  [[nodiscard]] static std::string name_of(PayloadTypeId id);

  /// Re-keys per-id counters by name: out[name_of(id)] += counts[id] for
  /// every nonzero counts[id]. One lock acquisition, and only the names of
  /// counted ids are copied (Metrics::by_type runs this once per cell on
  /// every sweep worker).
  [[nodiscard]] static std::map<std::string, std::uint64_t> count_by_name(
      const std::vector<std::uint64_t>& counts);

  /// Number of interned types so far.
  [[nodiscard]] static std::uint32_t size();
};

class Payload {
 public:
  virtual ~Payload() = default;

  /// Stable name used for metrics breakdowns (e.g. "quad/propose").
  [[nodiscard]] virtual const char* type_name() const = 0;

  /// Interned id of type_name(), used by the per-message metrics path.
  /// This default resolves through the registry on every call; hot payload
  /// classes override it via VALCON_PAYLOAD_TYPE, which caches the id.
  [[nodiscard]] virtual PayloadTypeId type_id() const {
    return PayloadTypeRegistry::intern(type_name());
  }

  /// Size in words for communication-complexity accounting.
  [[nodiscard]] virtual std::size_t size_words() const { return 1; }

  /// Protocol-composition routing hook: a multiplexer envelope returns its
  /// child index, every other payload returns kNotWrapped. This is what
  /// lets Mux route a delivery with one predictable virtual call instead
  /// of a dynamic_cast per nesting level. Reserved for sim::MuxMsg — other
  /// payloads must not override it (Mux static_casts on a non-negative
  /// answer, and asserts the type in debug builds).
  static constexpr std::int32_t kNotWrapped = -1;
  [[nodiscard]] virtual std::int32_t mux_child() const { return kNotWrapped; }
};

/// Declares type_name() and a cached-id type_id() for a concrete payload
/// class. The function-local static interns the name exactly once (C++
/// guarantees thread-safe initialization), so per-message calls cost one
/// guarded load.
#define VALCON_PAYLOAD_TYPE(name_literal)                                \
  [[nodiscard]] const char* type_name() const override {                 \
    return (name_literal);                                               \
  }                                                                      \
  [[nodiscard]] ::valcon::sim::PayloadTypeId type_id() const override {  \
    static const ::valcon::sim::PayloadTypeId cached_type_id =           \
        ::valcon::sim::PayloadTypeRegistry::intern(name_literal);        \
    return cached_type_id;                                               \
  }

using PayloadPtr = std::shared_ptr<const Payload>;

template <typename T, typename... Args>
PayloadPtr make_payload(Args&&... args) {
  if (PayloadSlab* slab = PayloadSlab::current()) {
    return std::allocate_shared<T>(SlabAllocator<T>(slab),
                                   std::forward<Args>(args)...);
  }
  return std::make_shared<const T>(std::forward<Args>(args)...);
}

}  // namespace valcon::sim
