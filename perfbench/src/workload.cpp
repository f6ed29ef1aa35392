#include "workload.hpp"

#include <atomic>
#include <exception>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <utility>

#include "util.hpp"
#include "valcon/crypto/sha256.hpp"
#include "valcon/harness/sweep_io.hpp"

namespace perfbench {

using valcon::core::CertMode;
using valcon::harness::FaultSpec;
using valcon::harness::ScenarioMatrix;
using valcon::harness::SweepOutcome;
using valcon::harness::ValidityKind;
using valcon::harness::VcKind;

namespace {

const std::vector<VcKind> kAllStacks{VcKind::kAuthenticated,
                                     VcKind::kNonAuthenticated, VcKind::kFast};
const std::vector<CertMode> kBothModes{CertMode::kPerVote,
                                       CertMode::kAggregate};

// Per-axis salts, so the segments of one workload draw distinct seeds.
enum Salt : std::uint64_t {
  kFullSalt = 1,
  kByzantineSalt,
  kValiditySalt,
  kCertsSalt,
  kCommitteeSalt,
  kStormSalt,
  kReferenceSalt,
};

Workload sweep_small(std::uint64_t seed) {
  using valcon::harness::named_matrix;
  Workload w;
  w.name = "sweep-small";
  w.segments.push_back({"full (pinned)", named_matrix("full"), true});
  w.segments.push_back(
      {"full", named_matrix("full").seeds(derived_seeds(seed, kFullSalt, 3))});
  w.segments.push_back(
      {"byzantine",
       named_matrix("byzantine").seeds(derived_seeds(seed, kByzantineSalt, 8))});
  w.segments.push_back(
      {"validity",
       named_matrix("validity").seeds(derived_seeds(seed, kValiditySalt, 1))});
  w.check_cells = 120;
  w.trace_per_segment = 48;
  return w;
}

Workload certs_heavy(std::uint64_t seed) {
  Workload w;
  w.name = "certs-heavy";
  w.segments.push_back(
      {"certs-heavy",
       ScenarioMatrix()
           .vc_kinds(kAllStacks)
           .validities({ValidityKind::kStrong})
           .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"},
                    FaultSpec{"equivocate"}, FaultSpec{"forge-qc"}})
           .sizes({{10, 3}, {13, 4}})
           .cert_modes(kBothModes)
           .seeds(derived_seeds(seed, kCertsSalt, 8))});
  w.check_cells = 48;
  w.trace_per_segment = 48;
  return w;
}

Workload committee_large_n(std::uint64_t seed) {
  Workload w;
  w.name = "committee-large-n";
  w.segments.push_back(
      {"committee-large-n",
       ScenarioMatrix()
           .vc_kinds(kAllStacks)
           .validities({ValidityKind::kStrong})
           .patterns({"unanimous"})
           .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"}})
           .sizes({{500, 166}, {1000, 333}, {2000, 666}})
           .topologies({"committee-7", "committee-10"})
           .cert_modes(kBothModes)
           .seeds(derived_seeds(seed, kCommitteeSalt, 3))});
  w.check_cells = 24;
  w.trace_per_segment = 72;
  return w;
}

Workload sim_storm(std::uint64_t seed) {
  Workload w;
  w.name = "sim-storm";
  // Three load levels, so the tail is set by the heaviest cells rather
  // than by scheduling jitter alone; the quota scales with the load so
  // every level decides at about the same simulated time.
  const std::vector<std::uint64_t> seeds = derived_seeds(seed, kStormSalt, 60);
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    StormCell cell;
    cell.seed = seeds[i];
    cell.tokens = 2 << (i % 3);
    cell.quota = 50 * cell.tokens;
    w.storm.push_back(cell);
  }
  w.check_cells = 8;
  w.trace_per_segment = 8;
  return w;
}

int stack_index(VcKind vc) {
  switch (vc) {
    case VcKind::kAuthenticated:
      return 0;
    case VcKind::kNonAuthenticated:
      return 1;
    case VcKind::kFast:
      return 2;
  }
  return 0;
}

int mode_index(CertMode mode) { return mode == CertMode::kPerVote ? 0 : 1; }

/// A cell failed: it threw, did not terminate, broke agreement or
/// validity, or was cut by the horizon.
bool failed(const SweepOutcome& o) {
  const bool horizon_cut =
      !o.result.queue_drained &&
      (o.result.grace_cutoff < 0 ||
       o.result.grace_cutoff >= o.point.config.horizon);
  return !o.error.empty() || !o.decided || !o.agreement || !o.validity_ok ||
         horizon_cut;
}

/// One finished cell: its record, its output line and, when it failed, a
/// description.
struct CellRun {
  CellRecord rec;
  std::string line;
  std::string failure;
};

CellRun sweep_cell(const std::string& segment, const SweepOutcome& o,
                   double busy_us) {
  CellRun c;
  c.line = valcon::harness::io::outcome_line(o);
  c.rec.stack = stack_index(o.point.config.vc);
  c.rec.mode = mode_index(o.point.config.cert_mode);
  c.rec.busy_us = busy_us;
  c.rec.decisions = o.result.decisions.size();
  c.rec.message_complexity = o.result.message_complexity;
  c.rec.words = o.result.word_complexity;
  c.rec.messages_total = o.result.messages_total;
  c.rec.decide_delta = o.result.last_decision_time / o.point.config.delta;
  c.rec.failed = failed(o);
  if (c.rec.failed) {
    c.failure = segment + ": " + o.point.label +
                (o.error.empty() ? "" : " (" + o.error + ")");
  }
  return c;
}

CellRun storm_cell(const StormCell& cell, const StormResult& r,
                   double busy_us) {
  CellRun c;
  c.line = r.line(cell);
  c.rec.busy_us = busy_us;
  c.rec.decisions = static_cast<std::uint64_t>(r.decisions);
  c.rec.message_complexity = r.message_complexity;
  c.rec.words = r.words;
  c.rec.messages_total = r.messages_total;
  c.rec.decide_delta = r.last_decision;  // delta = 1
  c.rec.failed = r.decisions < kStormProcesses;
  if (c.rec.failed) c.failure = cell.label();
  return c;
}

/// Appends cells to a pass in index order, folding their lines into the
/// pass digest.
struct PassCollector {
  PassResult pass;
  valcon::crypto::Sha256 sha;

  void add(CellRun&& c) {
    sha.update(c.line.data(), c.line.size());
    sha.update("\n", 1);
    c.rec.line_hash = fnv1a(c.line);
    if (c.rec.failed) pass.failures.push_back(std::move(c.failure));
    pass.cells.push_back(c.rec);
  }

  PassResult finish() {
    pass.digest = hex(sha.digest());
    return std::move(pass);
  }
};

/// The leading `limit` cells of every segment (or of the storm list), as
/// (segment, index) pairs; segment -1 is the storm list.
std::vector<std::pair<int, std::size_t>> cell_list(const Workload& w,
                                                   std::size_t limit) {
  std::vector<std::pair<int, std::size_t>> cells;
  for (std::size_t s = 0; s < w.segments.size(); ++s) {
    const std::size_t end = std::min(limit, w.segments[s].matrix.size());
    for (std::size_t i = 0; i < end; ++i) {
      cells.emplace_back(static_cast<int>(s), i);
    }
  }
  for (std::size_t i = 0; i < std::min(limit, w.storm.size()); ++i) {
    cells.emplace_back(-1, i);
  }
  return cells;
}

/// Runs the cells on `jobs` workers, closed loop, timing each with its
/// thread's CPU clock. A worker's wall time minus its CPU time while it
/// ran cells is time it was kept off the CPU, by the hypervisor above
/// all; the pass records the workers' mean.
PassResult run_pool(const Workload& w, int jobs, std::size_t limit) {
  const std::vector<std::pair<int, std::size_t>> cells = cell_list(w, limit);
  std::vector<CellRun> runs(cells.size());
  std::vector<double> off_cpu_s(static_cast<std::size_t>(jobs), 0.0);
  std::atomic<std::size_t> next{0};
  std::mutex failure_mu;
  std::exception_ptr failure;
  const auto worker = [&](std::size_t id) {
    try {
      for (std::size_t i = next.fetch_add(1); i < cells.size();
           i = next.fetch_add(1)) {
        const auto [segment, index] = cells[i];
        const auto wall = Clock::now();
        const double cpu = thread_cpu_seconds();
        if (segment < 0) {
          const StormResult r = run_storm(w.storm[index]);
          const double busy = thread_cpu_seconds() - cpu;
          runs[i] = storm_cell(w.storm[index], r, busy * 1e6);
        } else {
          const Segment& s = w.segments[static_cast<std::size_t>(segment)];
          const SweepOutcome o =
              valcon::harness::run_point(s.matrix.point_at(index));
          runs[i] = sweep_cell(s.name, o, 0.0);
          runs[i].rec.busy_us = (thread_cpu_seconds() - cpu) * 1e6;
        }
        off_cpu_s[id] += seconds_since(wall) - runs[i].rec.busy_us / 1e6;
      }
    } catch (...) {
      // Rethrown on the calling thread once every worker has joined.
      const std::lock_guard<std::mutex> lock(failure_mu);
      if (!failure) failure = std::current_exception();
      next.store(cells.size());
    }
  };
  PassCollector collector;
  const auto start = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (int j = 1; j < jobs; ++j) {
      pool.emplace_back(worker, static_cast<std::size_t>(j));
    }
    worker(0);
  }
  if (failure) std::rethrow_exception(failure);
  collector.pass.wall_s = seconds_since(start);
  double off_cpu = 0.0;
  for (const double s : off_cpu_s) off_cpu += s;
  collector.pass.off_cpu_s = off_cpu / static_cast<double>(jobs);
  for (CellRun& c : runs) collector.add(std::move(c));
  return collector.finish();
}

}  // namespace

std::size_t Workload::cells_per_pass() const {
  std::size_t total = storm.size();
  for (const Segment& s : segments) total += s.matrix.size();
  return total;
}

Workload make_workload(const std::string& name, std::uint64_t seed) {
  if (name == "sweep-small") return sweep_small(seed);
  if (name == "certs-heavy") return certs_heavy(seed);
  if (name == "committee-large-n") return committee_large_n(seed);
  if (name == "sim-storm") return sim_storm(seed);
  throw std::invalid_argument(
      "unknown workload '" + name +
      "' (expected sweep-small, certs-heavy, committee-large-n, sim-storm)");
}

ScenarioMatrix reference_matrix(int stack, int mode, std::uint64_t seed,
                                std::size_t seeds) {
  return ScenarioMatrix()
      .vc_kinds({kAllStacks[static_cast<std::size_t>(stack)]})
      .validities({ValidityKind::kStrong})
      .faults({FaultSpec{"silent", 0}})
      .sizes({{7, 2}})
      .cert_modes({kBothModes[static_cast<std::size_t>(mode)]})
      .seeds(derived_seeds(seed, kReferenceSalt, seeds));
}

ScenarioMatrix committee_reference_matrix(std::uint64_t seed) {
  return ScenarioMatrix()
      .vc_kinds({VcKind::kAuthenticated})
      .validities({ValidityKind::kStrong})
      .patterns({"unanimous"})
      .faults({FaultSpec{"silent", 0}})
      .sizes({{100, 33}})
      .topologies({"committee-7"})
      .cert_modes(kBothModes)
      .seeds(derived_seeds(seed, kReferenceSalt, 1));
}

PassResult run_pass(const Workload& workload, int jobs, bool golden_document,
                    std::size_t limit) {
  if (!workload.storm.empty()) return run_pool(workload, jobs, limit);
  namespace io = valcon::harness::io;
  const valcon::harness::SweepRunner runner(jobs);
  PassCollector collector;
  const auto start = Clock::now();
  for (const Segment& segment : workload.segments) {
    const std::size_t total = segment.matrix.size();
    const std::size_t end = std::min(limit, total);
    const bool document = golden_document && segment.golden && end == total;
    std::ostringstream doc;
    io::JsonSummary summary;
    if (document) io::document_header(doc, "full", std::nullopt, total);
    runner.run_range(segment.matrix, 0, end, [&](SweepOutcome&& o) {
      CellRun c = sweep_cell(segment.name, o, o.wall_micros);
      if (document) {
        summary.add(io::parse_outcome_line(c.line));
        doc << c.line << (o.point.index + 1 < total ? ",\n" : "\n");
      }
      collector.add(std::move(c));
    });
    if (document) {
      io::document_footer(doc, summary);
      const std::string text = doc.str();
      collector.pass.golden_digest =
          hex(valcon::crypto::Sha256::hash(text.data(), text.size()));
    }
  }
  collector.pass.wall_s = seconds_since(start);
  return collector.finish();
}

PassResult run_timed_pass(const Workload& workload, int jobs) {
  return run_pool(workload, jobs, std::numeric_limits<std::size_t>::max());
}

}  // namespace perfbench
