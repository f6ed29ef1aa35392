// The traced run: rebuilds chosen cells through the library's public calls
// (Simulator, add_process, ComponentHost(make_universal(...)),
// CommitteeHost and StrategyRegistry for faulty ids — the same
// construction run_universal performs), wraps every installed process in a
// timing decorator, hands its handlers a ForwardingContext that times
// send/set_timer, and times each Simulator::step. Per cell it also times
// point_at, the Λ build, check_execution and outcome_line. Each rebuilt
// cell must reproduce the untraced run exactly (events, messages,
// verifies, decisions and the outcome line), or the run fails.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "probes.hpp"
#include "workload.hpp"

namespace perfbench {

/// Work and time per layer, summed over a set of traced cells. Times are
/// in ns.
struct LayerTotals {
  std::size_t cells = 0;
  std::size_t sweep_cells = 0;  // cells with harness/core stages
  std::uint64_t events = 0;
  std::uint64_t post_decision_events = 0;  // after every correct decision
  std::uint64_t decisions = 0;
  std::uint64_t messages = 0;
  std::uint64_t allocs = 0;  // heap allocations inside the event loop
  std::uint64_t handler_calls = 0;
  std::uint64_t send_calls = 0;
  std::uint64_t timer_calls = 0;
  std::uint64_t listener_msgs = 0;  // deliveries to committee listeners
  std::uint64_t listeners = 0;
  std::uint64_t verifies_signature = 0;
  std::uint64_t verifies_threshold = 0;
  std::uint64_t verifies_aggregate = 0;
  double step_ns = 0.0;      // inside Simulator::step, handlers included
  double handler_ns = 0.0;   // inside on_start/on_message/on_timer
  double ctx_ns = 0.0;       // inside send/set_timer, called by handlers
  double send_ns = 0.0;
  double member_handler_ns = 0.0;
  double listener_handler_ns = 0.0;
  double est_verify_ns = 0.0;  // verify counts x probed unit costs
  double point_at_ns = 0.0;
  double lambda_ns = 0.0;
  double setup_ns = 0.0;  // Simulator construction to the first step
  double check_ns = 0.0;
  double line_ns = 0.0;
  double traced_ns = 0.0;    // whole traced cells
  double untraced_ns = 0.0;  // the same cells, untraced

  void add(const LayerTotals& other);
};

struct TracedRun {
  LayerTotals own;        // the workload's traced cells
  LayerTotals mesh_ref;   // reference cells, n = 7 full mesh
  LayerTotals committee_ref;  // committee reference cells
  std::vector<std::string> cells;       // labels of the workload's cells
  std::vector<std::string> mismatches;  // self-check failures
  std::string spans;  // JSON lines, one per span or cell summary
};

/// Traces the workload's fault-free and crash cells (evenly spaced, at most
/// Workload::trace_per_segment per segment; the first storm cells for the
/// storm) plus the reference cells, single-threaded. Each cell is first run
/// untraced, then rebuilt traced; the difference is the overhead.
[[nodiscard]] TracedRun run_traced(const Workload& workload,
                                   std::uint64_t seed,
                                   const CryptoUnitCosts& costs);

}  // namespace perfbench
