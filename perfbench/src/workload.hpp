// The benchmark's four workloads, each a fixed list of cells derived from
// the workload seed, and the closed-loop pass that runs one list on a
// worker pool. See perfbench/README.md for why each workload exists.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "storm.hpp"
#include "valcon/harness/sweep.hpp"

namespace perfbench {

inline constexpr const char* kStackNames[3] = {"auth", "nonauth", "fast"};
inline constexpr const char* kModeNames[2] = {"per-vote", "aggregate"};

/// One named matrix (or slice of it) run with SweepRunner::run_range.
struct Segment {
  std::string name;
  valcon::harness::ScenarioMatrix matrix;
  /// True for the pinned `full` matrix, whose document must hash to
  /// tests/golden/full.sha256.
  bool golden = false;
};

struct Workload {
  std::string name;
  std::vector<Segment> segments;  // sweep workloads
  std::vector<StormCell> storm;   // sim-storm
  /// Leading cells of every segment (or of the storm list) re-run at
  /// jobs 1 after the measured window: their lines must not change.
  std::size_t check_cells = 0;
  /// Most fault-free and crash cells the traced run takes per segment
  /// (evenly spaced over the eligible cells); every storm cell up to this
  /// count for the storm.
  std::size_t trace_per_segment = 0;

  [[nodiscard]] std::size_t cells_per_pass() const;
};

/// Builds the named workload's cell list for `seed`. Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(const std::string& name,
                                     std::uint64_t seed);

/// The reference cells for one (stack, cert mode): fault-free n = 7, t = 2
/// full mesh, `seeds` seeds. They supply a metric on a workload whose own
/// cells never reach that stack and mode (see README.md, "Reference
/// cells").
[[nodiscard]] valcon::harness::ScenarioMatrix reference_matrix(
    int stack, int mode, std::uint64_t seed, std::size_t seeds);

/// The committee reference cells: committee-7 at n = 100, both cert
/// modes, fault-free, for topology metrics on full-mesh workloads.
[[nodiscard]] valcon::harness::ScenarioMatrix committee_reference_matrix(
    std::uint64_t seed);

/// What the metrics need of one cell.
struct CellRecord {
  int stack = -1;  // -1: a storm cell
  int mode = -1;
  /// Timed passes: the cell's CPU time (decode, run and serialisation);
  /// SweepRunner passes: SweepOutcome::wall_micros.
  double busy_us = 0.0;
  std::uint64_t decisions = 0;
  std::uint64_t message_complexity = 0;
  std::uint64_t words = 0;
  std::uint64_t messages_total = 0;
  double decide_delta = 0.0;  // last decision time / delta
  bool failed = false;
  std::uint64_t line_hash = 0;
};

struct PassResult {
  std::vector<CellRecord> cells;
  double wall_s = 0.0;
  /// Timed passes: the workers' mean time off the CPU while running cells.
  double off_cpu_s = 0.0;
  std::string digest;  // SHA-256 over the pass's outcome lines
  /// SHA-256 of the golden segment's sweep document; empty unless asked.
  std::string golden_digest;
  std::vector<std::string> failures;  // labels of failed cells
};

/// Runs one pass of `workload` on `jobs` workers: every segment in order
/// through SweepRunner::run_range, serialising each outcome with
/// outcome_line (the storm on a pool of the same size). With `limit` set,
/// only the first `limit` cells of each segment run.
[[nodiscard]] PassResult run_pass(
    const Workload& workload, int jobs, bool golden_document,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

/// Runs one pass for timing: a closed loop of `jobs` workers, each taking
/// the next cell, decoding it with point_at, running it with run_point and
/// serialising it with outcome_line, timed with the thread's CPU clock so
/// that time stolen from the virtual CPUs stays out of the figures.
[[nodiscard]] PassResult run_timed_pass(const Workload& workload, int jobs);

}  // namespace perfbench
