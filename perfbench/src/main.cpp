// valcon_perfbench: one workload per invocation, driven through the
// library's public calls.
//
//   valcon_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                    --root DIR [--out-dir DIR]
//
// A run sets the workload up from scratch, runs one untimed first pass
// through SweepRunner::run_range (its outputs fix the digest, the golden
// document hash and every deterministic metric) and warms up; then, for S
// seconds on min(4, nproc) workers, it alternates timed passes with one
// more set-up (setup_s is the median) and a round of reference cells.
// Afterwards it re-runs the leading cells of every segment at jobs 1 and,
// with --trace 1, traces a fixed set of cells. The last stdout line is the JSON result: end-to-end
// metrics with --trace 0, per-layer metrics with --trace 1. Exit status: 0
// when every check holds, 1 when a verdict, digest, golden hash or
// traced-run self-check fails, 2 on usage errors.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "probes.hpp"
#include "traced.hpp"
#include "util.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/harness/validity_kind.hpp"
#include "workload.hpp"

namespace perfbench {
namespace {

namespace harness = valcon::harness;

constexpr int kMinPasses = 3;
constexpr double kWarmupSeconds = 1.5;
constexpr std::size_t kReferenceSeeds = 16;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string root;
  std::string out_dir;
  int jobs = 1;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "valcon_perfbench: " << why
            << "\nusage: valcon_perfbench --workload NAME --seed N --seconds S"
               " --trace 0|1 --root DIR [--out-dir DIR]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  bool have_root = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        o.trace = value == "1";
      } else if (flag == "--root") {
        o.root = value;
        have_root = true;
      } else if (flag == "--out-dir") {
        o.out_dir = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload || !have_root) usage("--workload and --root are required");
  if (!(o.seconds > 0)) usage("--seconds must be positive");
  // The same worker count on every run: four, or fewer on a smaller
  // machine.
  o.jobs = static_cast<int>(
      std::min(4U, std::max(1U, std::thread::hardware_concurrency())));
  return o;
}

// ----------------------------------------------------------------- setup

/// One set-up of the workload from scratch: build its matrices, decode
/// every cell with point_at, construct a fresh key registry for every
/// distinct (n, k, seed) the cells use (the committee's too), build Λ for
/// every distinct (validity, n, t), and for the storm construct every
/// cell's simulator with its processes installed.
Workload set_up(const Options& opt) {
  Workload w = make_workload(opt.workload, opt.seed);
  std::set<std::tuple<int, int, std::uint64_t>> registries;
  std::set<std::tuple<int, int, int>> lambdas;
  for (const Segment& segment : w.segments) {
    for (std::size_t i = 0; i < segment.matrix.size(); ++i) {
      const harness::SweepPoint point = segment.matrix.point_at(i);
      const harness::ScenarioConfig& cfg = point.config;
      registries.emplace(cfg.n, cfg.n - cfg.t, cfg.seed);
      if (!cfg.topology.full_mesh()) {
        const int k = cfg.topology.committee_k;
        registries.emplace(
            k, k - harness::Topology::committee_fault_tolerance(k), cfg.seed);
      }
      lambdas.emplace(static_cast<int>(point.validity), cfg.n, cfg.t);
    }
  }
  for (const auto& [n, k, seed] : registries) {
    const valcon::crypto::KeyRegistry registry(n, k, seed);
    static_cast<void>(registry.signer_for(0));
  }
  for (const auto& [kind, n, t] : lambdas) {
    const auto validity =
        harness::make_validity(static_cast<harness::ValidityKind>(kind), n, t);
    static_cast<void>(valcon::core::make_lambda(*validity, n, t));
  }
  for (const StormCell& cell : w.storm) {
    valcon::sim::Simulator simulator(storm_config(cell));
    StormTally tally;
    install_storm(simulator, cell, tally, nullptr);
  }
  return w;
}

// --------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

/// Busy time and decisions per (stack, cert mode) over some cells.
struct ComboSums {
  std::array<std::array<double, 2>, 3> busy_us{};
  std::array<std::array<std::uint64_t, 2>, 3> decisions{};

  void add(const CellRecord& c) {
    if (c.stack < 0) return;
    const auto s = static_cast<std::size_t>(c.stack);
    const auto m = static_cast<std::size_t>(c.mode);
    busy_us[s][m] += c.busy_us;
    decisions[s][m] += c.decisions;
  }
  [[nodiscard]] double per_decision(int s, int m) const {
    const auto si = static_cast<std::size_t>(s);
    const auto mi = static_cast<std::size_t>(m);
    return decisions[si][mi] > 0
               ? busy_us[si][mi] / static_cast<double>(decisions[si][mi])
               : 0.0;
  }
};

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double peak_rss_mb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string read_golden(const std::string& root) {
  const std::string path = root + "/tests/golden/full.sha256";
  std::ifstream in(path);
  std::string hash;
  if (!(in >> hash) || hash.size() != 64) {
    std::cerr << "valcon_perfbench: cannot read the golden hash " << path
              << "\n";
    std::exit(2);
  }
  return hash;
}

/// First-pass records of the leading `limit` cells of every segment, in the
/// order run_pass(limit) emits them.
std::vector<const CellRecord*> prefix_records(const Workload& w,
                                              const PassResult& pass,
                                              std::size_t limit) {
  std::vector<const CellRecord*> out;
  std::size_t offset = 0;
  std::vector<std::size_t> sizes;
  for (const Segment& s : w.segments) sizes.push_back(s.matrix.size());
  if (!w.storm.empty()) sizes.push_back(w.storm.size());
  for (const std::size_t size : sizes) {
    for (std::size_t i = 0; i < std::min(limit, size); ++i) {
      out.push_back(&pass.cells[offset + i]);
    }
    offset += size;
  }
  return out;
}

/// Each cell's record with its least busy time over `passes`, which all
/// ran the same cells in the same order.
std::vector<CellRecord> best_times(const std::vector<PassResult>& passes) {
  if (passes.empty()) return {};
  std::vector<CellRecord> best = passes.front().cells;
  for (const PassResult& pass : passes) {
    for (std::size_t i = 0; i < best.size(); ++i) {
      best[i].busy_us = std::min(best[i].busy_us, pass.cells[i].busy_us);
    }
  }
  return best;
}

void print_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                  const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", metrics[i].value);
    out += (i > 0 ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
           value + ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  out += "}}";
  std::cout << out << std::endl;
}

int run(const Options& opt) {
  std::vector<double> setup_s;
  auto start = Clock::now();
  const Workload w = set_up(opt);
  setup_s.push_back(seconds_since(start));
  const bool pinned =
      std::any_of(w.segments.begin(), w.segments.end(),
                  [](const Segment& s) { return s.golden; });
  const std::string golden = pinned ? read_golden(opt.root) : "";

  std::uint64_t attempted = 0;
  std::uint64_t failed_cells = 0;
  std::vector<std::string> problems;
  const auto tally = [&](const PassResult& pass) {
    attempted += pass.cells.size();
    failed_cells += pass.failures.size();
    for (const std::string& f : pass.failures) problems.push_back("failed: " + f);
  };

  // The first pass: untimed, it fills the shared key registries and fixes
  // the digest, the golden document hash and the deterministic metrics.
  const auto warmup = Clock::now();
  const PassResult first = run_pass(w, opt.jobs, pinned);
  tally(first);
  // Peak memory of set-up plus one sweep of the workload, as a user pays
  // it; later passes would only add allocator fragmentation that grows
  // with the number of passes a window holds.
  const double rss_mb = peak_rss_mb();
  if (pinned && first.golden_digest != golden) {
    problems.push_back("golden: full-matrix document hashes to " +
                       first.golden_digest + ", expected " + golden);
  }
  ComboSums first_combos;
  for (const CellRecord& c : first.cells) first_combos.add(c);

  // Reference cells for every (stack, cert mode) the workload never runs
  // (README.md, "Reference cells"), one segment per missing pair.
  Workload reference;
  std::vector<std::pair<int, int>> missing;
  for (int s = 0; s < 3; ++s) {
    for (int m = 0; m < 2; ++m) {
      if (first_combos.decisions[s][m] > 0) continue;
      missing.emplace_back(s, m);
      reference.segments.push_back(
          {"reference", reference_matrix(s, m, opt.seed, kReferenceSeeds)});
    }
  }
  // Warm-up: untimed passes until kWarmupSeconds have gone since the
  // first pass began, so the window starts with every worker busy and
  // every lazy structure built.
  if (!missing.empty()) tally(run_timed_pass(reference, opt.jobs));
  while (seconds_since(warmup) < kWarmupSeconds) {
    tally(run_timed_pass(w, opt.jobs));
  }

  // The measured window: workload passes, each followed by one more
  // set-up from scratch and one round of reference cells, so that every
  // timed figure samples the same stretch of machine time.
  std::vector<PassResult> passes;
  std::vector<PassResult> reference_rounds;
  const auto window = Clock::now();
  while (seconds_since(window) < opt.seconds ||
         static_cast<int>(passes.size()) < kMinPasses) {
    passes.push_back(run_timed_pass(w, opt.jobs));
    tally(passes.back());
    if (passes.back().digest != first.digest) {
      problems.push_back("digest: pass " + std::to_string(passes.size()) +
                         " differs from the first pass");
    }
    start = Clock::now();
    static_cast<void>(set_up(opt));
    setup_s.push_back(seconds_since(start));
    if (!missing.empty()) {
      reference_rounds.push_back(run_timed_pass(reference, opt.jobs));
      tally(reference_rounds.back());
    }
  }
  const double window_s = seconds_since(window);

  // Job-count independence: the leading cells of every segment at jobs 1.
  const PassResult single = run_pass(w, 1, false, w.check_cells);
  tally(single);
  const std::vector<const CellRecord*> expected =
      prefix_records(w, first, w.check_cells);
  for (std::size_t i = 0; i < single.cells.size(); ++i) {
    if (i >= expected.size() ||
        single.cells[i].line_hash != expected[i]->line_hash) {
      problems.push_back("digest: cell " + std::to_string(i) +
                         " differs between jobs " + std::to_string(opt.jobs) +
                         " and jobs 1");
      break;
    }
  }

  // Timed figures. Every pass runs the same cells in the same order, so
  // each cell has one CPU-time sample per pass; its best (least) sample is
  // its cost with the least interference from other tenants, and the
  // figures are built from those (README.md, "Best times").
  const std::vector<CellRecord> best = best_times(passes);
  double best_us = 0.0;
  double messages = 0.0;
  std::vector<double> cell_ms;
  ComboSums combos;
  for (const CellRecord& c : best) {
    best_us += c.busy_us;
    messages += static_cast<double>(c.messages_total);
    cell_ms.push_back(c.busy_us / 1e3);
    combos.add(c);
  }
  for (const CellRecord& c : best_times(reference_rounds)) combos.add(c);
  std::vector<double> busy_ratio;
  for (const PassResult& pass : passes) {
    double busy_us = 0.0;
    for (const CellRecord& c : pass.cells) busy_us += c.busy_us;
    busy_ratio.push_back(busy_us / 1e6 /
                         ((pass.wall_s - pass.off_cpu_s) * opt.jobs));
  }

  // Deterministic figures from the first pass.
  double mc = 0.0, words = 0.0, decisions = 0.0, delta_sum = 0.0;
  std::size_t decided_cells = 0;
  for (const CellRecord& c : first.cells) {
    mc += static_cast<double>(c.message_complexity);
    words += static_cast<double>(c.words);
    decisions += static_cast<double>(c.decisions);
    if (c.decisions > 0) {
      delta_sum += c.decide_delta;
      ++decided_cells;
    }
  }

  std::vector<Metric> metrics;
  if (!opt.trace) {
    metrics.push_back({"setup_s", median(setup_s), "s"});
    metrics.push_back({"cells_per_s",
                       ratio(static_cast<double>(best.size()) * opt.jobs,
                             best_us / 1e6),
                       "1/s"});
    metrics.push_back({"cell_ms_p50", quantile(cell_ms, 0.5), "ms"});
    metrics.push_back({"cell_ms_p99", quantile(cell_ms, 0.99), "ms"});
    metrics.push_back({"host_ns_per_msg", ratio(best_us * 1e3, messages), "ns"});
    metrics.push_back({"peak_rss_mb", rss_mb, "MB"});
    for (int s = 0; s < 3; ++s) {
      for (int m = 0; m < 2; ++m) {
        metrics.push_back({std::string("us_per_decision.") + kStackNames[s] +
                               "." + kModeNames[m],
                           combos.per_decision(s, m), "us"});
      }
    }
    metrics.push_back({"msgs_per_decision", ratio(mc, decisions), "msgs"});
    metrics.push_back({"words_per_decision", ratio(words, decisions), "words"});
    metrics.push_back({"decide_time_delta",
                       ratio(delta_sum, static_cast<double>(decided_cells)),
                       "delta"});
    metrics.push_back({"pass_ratio",
                       1.0 - ratio(static_cast<double>(failed_cells),
                                   static_cast<double>(attempted)),
                       "share"});
  } else {
    const CryptoUnitCosts costs = probe_crypto();
    const TracedRun traced = run_traced(w, opt.seed, costs);
    for (const std::string& m : traced.mismatches) {
      problems.push_back("traced run diverged: " + m);
    }
    const LayerTotals& own = traced.own;
    const LayerTotals& sweep = own.sweep_cells > 0 ? own : traced.mesh_ref;
    const LayerTotals& listen =
        own.listeners > 0 ? own : traced.committee_ref;
    const auto dec = static_cast<double>(own.decisions);
    metrics.push_back({"crypto.verifies_per_decision.signature",
                       ratio(static_cast<double>(own.verifies_signature), dec),
                       "count"});
    metrics.push_back({"crypto.verifies_per_decision.threshold",
                       ratio(static_cast<double>(own.verifies_threshold), dec),
                       "count"});
    metrics.push_back({"crypto.verifies_per_decision.aggregate",
                       ratio(static_cast<double>(own.verifies_aggregate), dec),
                       "count"});
    metrics.push_back({"crypto.sha256_ns_per_block", costs.sha256_ns_per_block,
                       "ns"});
    metrics.push_back({"crypto.sign_ns", costs.sign_ns, "ns"});
    metrics.push_back({"crypto.verify_ns", costs.verify_ns, "ns"});
    metrics.push_back({"crypto.verify_threshold_ns", costs.verify_threshold_ns,
                       "ns"});
    for (const auto& [n, ns] : costs.verify_aggregate_ns) {
      metrics.push_back(
          {"crypto.verify_aggregate_ns.n" + std::to_string(n), ns, "ns"});
    }
    metrics.push_back({"crypto.est_verify_share",
                       ratio(own.est_verify_ns, own.traced_ns), "share"});
    metrics.push_back({"sim.events_per_decision",
                       ratio(static_cast<double>(own.events), dec), "count"});
    metrics.push_back({"sim.heap_allocs_per_msg",
                       ratio(static_cast<double>(own.allocs),
                             static_cast<double>(own.messages)),
                       "count"});
    metrics.push_back({"sim.step_self_ns_per_event",
                       ratio(own.step_ns - own.handler_ns,
                             static_cast<double>(own.events)),
                       "ns"});
    metrics.push_back({"sim.send_ns_per_call",
                       ratio(own.send_ns, static_cast<double>(own.send_calls)),
                       "ns"});
    metrics.push_back({"sim.post_decision_event_share",
                       ratio(static_cast<double>(own.post_decision_events),
                             static_cast<double>(own.events)),
                       "share"});
    metrics.push_back({"protocol.handler_calls_per_decision",
                       ratio(static_cast<double>(own.handler_calls), dec),
                       "count"});
    metrics.push_back({"protocol.handler_self_ns_per_call",
                       ratio(own.handler_ns - own.ctx_ns,
                             static_cast<double>(own.handler_calls)),
                       "ns"});
    metrics.push_back({"protocol.share_of_run",
                       ratio(own.handler_ns - own.ctx_ns, own.traced_ns),
                       "share"});
    const auto sweep_cells = static_cast<double>(sweep.sweep_cells);
    metrics.push_back({"core.lambda_build_us_per_cell",
                       ratio(sweep.lambda_ns / 1e3, sweep_cells), "us"});
    metrics.push_back({"core.check_execution_us_per_cell",
                       ratio(sweep.check_ns / 1e3, sweep_cells), "us"});
    metrics.push_back({"harness.point_at_us_per_cell",
                       ratio(sweep.point_at_ns / 1e3, sweep_cells), "us"});
    metrics.push_back({"harness.cell_setup_us",
                       ratio(own.setup_ns / 1e3, static_cast<double>(own.cells)),
                       "us"});
    metrics.push_back({"harness.outcome_line_us_per_cell",
                       ratio(sweep.line_ns / 1e3, sweep_cells), "us"});
    metrics.push_back({"harness.pool_busy_ratio", median(busy_ratio), "share"});
    metrics.push_back({"topology.listener_handler_ns_per_decision",
                       ratio(listen.listener_handler_ns,
                             static_cast<double>(listen.decisions)),
                       "ns"});
    metrics.push_back({"topology.member_handler_ns_per_decision",
                       ratio(own.member_handler_ns, dec), "ns"});
    metrics.push_back({"topology.msgs_per_listener",
                       ratio(static_cast<double>(listen.listener_msgs),
                             static_cast<double>(listen.listeners)),
                       "count"});
    metrics.push_back({"trace.overhead_s",
                       (own.traced_ns - own.untraced_ns) / 1e9, "s"});
    metrics.push_back({"trace.overhead_share",
                       ratio(own.traced_ns - own.untraced_ns, own.untraced_ns),
                       "share"});
    attempted += own.cells + traced.mesh_ref.cells + traced.committee_ref.cells;

    if (!opt.out_dir.empty()) {
      const std::string path = opt.out_dir + "/trace-" + opt.workload + "-s" +
                               std::to_string(opt.seed) + ".jsonl";
      std::ofstream out(path);
      for (const std::string& label : traced.cells) {
        out << "{\"traced_cell\": \"" << label << "\"}\n";
      }
      out << traced.spans;
      std::cout << "# traced " << traced.cells.size()
                << " cells (listed with their spans in " << path << ")\n";
    }
    std::cout << "# trace overhead: traced " << own.traced_ns / 1e9
              << " s - untraced " << own.untraced_ns / 1e9 << " s\n";
  }

  std::cout << "# workload=" << w.name << " seed=" << opt.seed
            << " jobs=" << opt.jobs << " cells_per_pass=" << w.cells_per_pass()
            << " passes=" << passes.size() << " window_s=" << window_s
            << " cells_timed=" << best.size() * passes.size() << "\n";
  std::cout << "# digest=" << first.digest
            << (pinned ? " golden=" + first.golden_digest : std::string())
            << "\n";
  std::cout << "# fail_ratio=" << ratio(static_cast<double>(failed_cells),
                                        static_cast<double>(attempted))
            << " (" << failed_cells << "/" << attempted << ")\n";
  constexpr std::size_t kShown = 20;
  for (std::size_t i = 0; i < std::min(kShown, problems.size()); ++i) {
    std::cout << "# FAIL " << problems[i] << "\n";
  }
  if (problems.size() > kShown) {
    std::cout << "# FAIL ... and " << problems.size() - kShown << " more\n";
  }
  const bool correct = problems.empty();
  print_result(correct, attempted, failed_cells, metrics);
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options opt = perfbench::parse(argc, argv);
  try {
    return perfbench::run(opt);
  } catch (const std::exception& e) {
    std::cerr << "valcon_perfbench: " << e.what() << "\n";
    return 2;
  }
}
