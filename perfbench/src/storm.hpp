// The sim-storm workload: a deterministic token-and-vote storm that drives
// only the simulator layer (event queue, Network, Mux routing, Metrics and
// the payload slab). Eight processes each inject tokens that circulate
// around the ring; every delivered token triggers an all-to-all vote wave.
// The storm logic sits under a two-level Mux, and payload names rotate over
// twelve wire names, so every message takes the same wrapping, routing and
// per-type accounting path a protocol message takes. There is no crypto
// and no protocol state.
//
// A storm never quiesces, so a cell runs to a fixed simulated horizon. A
// process "decides" when it has received `quota` tokens; a cell fails when
// some process has not decided by the horizon.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "valcon/sim/simulator.hpp"

namespace perfbench {

inline constexpr int kStormProcesses = 8;
inline constexpr valcon::Time kStormHorizon = 250.0;

struct StormCell {
  std::uint64_t seed = 1;
  int tokens = 4;   // tokens injected per process
  int quota = 200;  // tokens a process receives before it decides

  [[nodiscard]] std::string label() const;
};

/// Per-cell decision record, written by the storm processes.
struct StormTally {
  int decisions = 0;
  valcon::Time last_decision = 0.0;
};

/// Wraps each installed process (the traced run's timing decorator);
/// identity when empty.
using ProcessWrap = std::function<std::unique_ptr<valcon::sim::Process>(
    valcon::ProcessId, std::unique_ptr<valcon::sim::Process>)>;

[[nodiscard]] valcon::sim::SimConfig storm_config(const StormCell& cell);

/// Installs the storm's processes on `simulator`, recording decisions in
/// `tally` (which must outlive the run).
void install_storm(valcon::sim::Simulator& simulator, const StormCell& cell,
                   StormTally& tally, const ProcessWrap& wrap);

struct StormResult {
  std::uint64_t events = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t message_complexity = 0;
  std::uint64_t words = 0;
  int decisions = 0;
  valcon::Time last_decision = 0.0;

  /// The cell's canonical output line (the storm's digest input).
  [[nodiscard]] std::string line(const StormCell& cell) const;
};

[[nodiscard]] StormResult collect_storm(valcon::sim::Simulator& simulator,
                                        std::uint64_t events,
                                        const StormTally& tally);

/// Runs one cell untraced.
[[nodiscard]] StormResult run_storm(const StormCell& cell);

}  // namespace perfbench
