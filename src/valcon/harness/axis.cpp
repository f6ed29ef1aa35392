#include "valcon/harness/axis.hpp"

#include <stdexcept>

#include "valcon/core/quorum.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/pattern.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/topology.hpp"

namespace valcon::harness {

// Each check resolves the token the way the axis's semantics will, so a
// token that passes cannot fail later for being unknown; registry make()
// throws with the list of registered names.
//
// The strategy axis names the fault dimension: it shows in labels through
// "fault=<strategy>x<count>" and in outcome lines through the "faults"
// array, so it has no label key of its own; "none" selects the fault-free
// spec. Its checkpoint field predates every other axis.
const std::array<AxisSpec, kAxisCount> kAxes{{
    {Axis::kStrategy, "strategy", "--strategies", "silent", nullptr,
     "strategy", "strategies", false, false,
     [](const std::string& name) {
       if (name != "none" && !StrategyRegistry::global().contains(name)) {
         static_cast<void>(StrategyRegistry::global().make(name));
       }
     }},
    {Axis::kPattern, "pattern", "--patterns", "rotating", "pat", "pattern",
     "patterns", true, false,
     [](const std::string& name) {
       if (!PatternRegistry::global().contains(name)) {
         static_cast<void>(PatternRegistry::global().make(name));
       }
     }},
    {Axis::kNetProfile, "network profile", "--net-profiles", "uniform", "net",
     "net_profile", "net_profiles", true, false,
     [](const std::string& name) {
       static_cast<void>(named_network_profile(name));
     }},
    {Axis::kCertMode, "cert mode", "--cert-modes", "per-vote", "cert",
     "cert_mode", "cert_modes", true, true,
     [](const std::string& token) {
       if (!core::cert_mode_from_token(token).has_value()) {
         throw std::invalid_argument("unknown cert mode '" + token +
                                     "' (expected: per-vote, aggregate)");
       }
     }},
    {Axis::kTopology, "topology", "--topologies", "full-mesh", "topo",
     "topology", "topologies", true, true,
     [](const std::string& name) { static_cast<void>(named_topology(name)); }},
}};

const AxisSpec* axis_for_flag(const std::string& flag) {
  for (const AxisSpec& axis : kAxes) {
    if (flag == axis.flag) return &axis;
  }
  return nullptr;
}

}  // namespace valcon::harness
