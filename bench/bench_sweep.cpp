// Sweep throughput: scenarios/sec of the ScenarioMatrix engine as a
// function of worker threads, plus a cross-check that every per-scenario
// result is independent of the job count (each run is a deterministic
// function of (config, seed); the pool only changes wall-clock time).
//
// Speedup is bounded by the machine: on a single hardware thread the pool
// can only add overhead, so the table prints hardware_concurrency first.
//
// `bench_sweep --json [--out FILE]` instead emits the machine-readable
// perf-baseline document (BENCH_*.json): the simulator hot path driven by a
// token-storm workload (events/sec, messages/sec, ns/message, heap
// allocations per message measured by a global operator-new counter),
// full-matrix sweep throughput (cells/sec), and the quorum-certificate
// section — the same fault-free workload under cert_mode per-vote and
// aggregate, normalized per decision (messages_per_decision,
// verifies_per_decision, hash_blocks_per_decision, ns_per_decision) with
// the section's heap allocations per message, and the large-n scaling
// section — one committee-topology cell per n in {10, 50, 100, 500,
// 1000}, recording messages per decision, wall seconds and peak RSS
// against the quadratic Dolev-Reischuk curve, plus the fitted log-log
// scaling exponent CI gates on (strictly below quadratic). Every section
// carries both the machine's `hardware_concurrency` and the `jobs` the
// section actually used; the two were previously conflated, which made
// documents from jobs-capped runs unreadable. docs/performance.md
// describes the schema and how to read the numbers.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <new>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/table.hpp"
#include "valcon/sim/component.hpp"
#include "valcon/sim/simulator.hpp"

using namespace valcon;
using namespace valcon::harness;

// ------------------------------------------------------------ alloc probe
//
// Counts every heap allocation made by this binary. The hot-path section
// resets it around Simulator::run() to measure allocations per simulated
// message — the number the zero-allocation acceptance criterion is about.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// GCC cannot see that the replaced operator new below is itself
// malloc-based and flags the free() in operator delete as mismatched.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif

void* operator new(std::size_t size) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }

namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

// ------------------------------------------------------------- hot path
//
// A deterministic token-and-vote storm exercising the full per-message
// path exactly as a sweep cell does: messages flow through the real
// two-level Mux composition layer (as Universal -> vector consensus ->
// Quad nests), every token hop triggers an all-to-all vote broadcast (the
// paper's protocols broadcast every phase), and payload type names rotate
// over twelve realistic wire names spanning both sides of the SSO
// boundary. Everything below the storm logic — MuxMsg wrapping and
// routing, Metrics accounting, Network delay sampling, the event queue,
// payload allocation — is the library's own hot path.
//
// This source also builds against the pre-interning library (for
// measuring the committed baseline): the shim below maps the new macros
// onto the old virtual-only API.
#ifndef VALCON_PAYLOAD_TYPE
#define VALCON_NO_PAYLOAD_INTERNING
#endif

namespace names {
const char* const kTypes[12] = {
    "storm/propose",     "storm/prepare-vote", "storm/commit-vote",
    "storm/view-change", "storm/precommit",    "storm/decide",
    "storm/epoch-over",  "storm/epoch-cert",   "storm/est",
    "storm/stored",      "storm/confirm",      "storm/echo"};
}  // namespace names

// valcon-lint: allow(payload-type) -- storm token interns 12 names by phase
struct Token final : sim::Payload {
  Token(int phase_in, bool vote_in) : phase(phase_in % 12), vote(vote_in) {}
  [[nodiscard]] const char* type_name() const override {
    return names::kTypes[phase];
  }
#ifndef VALCON_NO_PAYLOAD_INTERNING
  [[nodiscard]] sim::PayloadTypeId type_id() const override {
    static const sim::PayloadTypeId ids[12] = {
        sim::PayloadTypeRegistry::intern(names::kTypes[0]),
        sim::PayloadTypeRegistry::intern(names::kTypes[1]),
        sim::PayloadTypeRegistry::intern(names::kTypes[2]),
        sim::PayloadTypeRegistry::intern(names::kTypes[3]),
        sim::PayloadTypeRegistry::intern(names::kTypes[4]),
        sim::PayloadTypeRegistry::intern(names::kTypes[5]),
        sim::PayloadTypeRegistry::intern(names::kTypes[6]),
        sim::PayloadTypeRegistry::intern(names::kTypes[7]),
        sim::PayloadTypeRegistry::intern(names::kTypes[8]),
        sim::PayloadTypeRegistry::intern(names::kTypes[9]),
        sim::PayloadTypeRegistry::intern(names::kTypes[10]),
        sim::PayloadTypeRegistry::intern(names::kTypes[11])};
    return ids[phase];
  }
#endif
  [[nodiscard]] std::size_t size_words() const override { return 2; }
  int phase;
  bool vote;
};

/// The protocol logic: circulates tokens around the ring; every delivered
/// token triggers an all-to-all vote wave. Runs as the leaf of a
/// two-level Mux stack, so every send below is wrapped and routed by the
/// library's composition layer.
class StormCore final : public sim::Component {
 public:
  explicit StormCore(int tokens) : tokens_(tokens) {}

  void on_start(sim::Context& ctx) override {
    next_ = (ctx.id() + 1) % ctx.n();
    for (int k = 0; k < tokens_; ++k) {
      ctx.send(next_, sim::make_payload<Token>(k, false));
    }
  }

  void on_message(sim::Context& ctx, ProcessId,
                  const sim::PayloadPtr& m) override {
    const auto* token = dynamic_cast<const Token*>(m.get());
    if (token == nullptr || token->vote) return;  // votes: absorb
    ++received_;
    ctx.broadcast(
        sim::make_payload<Token>(static_cast<int>(received_), true));
    ctx.send(next_, sim::make_payload<Token>(static_cast<int>(received_),
                                             false));
  }

 private:
  int tokens_;
  ProcessId next_ = 0;
  std::uint64_t received_ = 0;
};

class StormMid final : public sim::Mux {
 public:
  explicit StormMid(int tokens) { make_child<StormCore>(tokens); }
};

class StormRoot final : public sim::Mux {
 public:
  explicit StormRoot(int tokens) { make_child<StormMid>(tokens); }
};

struct HotPathResult {
  int processes = 0;
  int tokens = 0;
  double horizon = 0.0;
  std::uint64_t events = 0;
  std::uint64_t messages = 0;
  std::uint64_t heap_allocs = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double messages_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(messages) / wall_seconds : 0;
  }
  [[nodiscard]] double events_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(events) / wall_seconds : 0;
  }
  [[nodiscard]] double ns_per_message() const {
    return messages > 0 ? wall_seconds * 1e9 / static_cast<double>(messages)
                        : 0;
  }
  [[nodiscard]] double allocs_per_message() const {
    return messages > 0
               ? static_cast<double>(heap_allocs) / static_cast<double>(messages)
               : 0;
  }
};

HotPathResult run_hot_path(int n, int tokens_per_process, Time horizon) {
  sim::SimConfig cfg;
  cfg.n = n;
  cfg.t = 0;
  cfg.seed = 7;
  cfg.net.gst = 0.0;  // every send is post-GST, so Metrics takes the
                      // correct-sender per-type branch on each message
  cfg.net.delta = 1.0;
  sim::Simulator simulator(cfg);
  for (ProcessId p = 0; p < n; ++p) {
    simulator.add_process(p, std::make_unique<sim::ComponentHost>(
                                 std::make_unique<StormRoot>(
                                     tokens_per_process)));
  }
  HotPathResult r;
  r.processes = n;
  r.tokens = n * tokens_per_process;
  r.horizon = horizon;
  g_heap_allocs.store(0, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  r.events = simulator.run(horizon);
  r.wall_seconds = seconds_since(start);
  r.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  r.messages = simulator.metrics().messages_total();
  return r;
}

struct SweepThroughput {
  std::string matrix;
  int jobs = 0;
  std::size_t cells = 0;
  std::uint64_t messages = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double cells_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(cells) / wall_seconds : 0;
  }
  [[nodiscard]] double messages_per_second() const {
    return wall_seconds > 0 ? static_cast<double>(messages) / wall_seconds : 0;
  }
  [[nodiscard]] double ns_per_message() const {
    return messages > 0 ? wall_seconds * 1e9 / static_cast<double>(messages)
                        : 0;
  }
};

SweepThroughput run_sweep_throughput(const std::string& matrix_name, int jobs) {
  const ScenarioMatrix matrix = named_matrix(matrix_name);
  SweepThroughput r;
  r.matrix = matrix_name;
  r.jobs = jobs;
  const auto start = std::chrono::steady_clock::now();
  SweepRunner(jobs).run_range(matrix, 0, matrix.size(), [&](SweepOutcome&& o) {
    ++r.cells;
    r.messages += o.result.messages_total;
  });
  r.wall_seconds = seconds_since(start);
  return r;
}

// ---------------------------------------------------------------- QC bench
//
// The headline measurement of the aggregate-certificate backend
// (core/quorum.hpp): the same fault-free workload run under both cert
// modes, normalized per decision. messages_per_decision falls under
// aggregation because a quorum-reaching process broadcasts one certificate
// instead of every process relaying every vote; verifies_per_decision
// falls to about one check per quorum because the aggregate is verified
// once at certification instead of once per incoming vote. The auth stack
// (Quad) is signature-heavy, so it shows the verify win; the nonauth stack
// shows the message win. hash_blocks_per_decision counts SHA-256 blocks,
// the hashing work behind the verify calls (a memoized MAC costs none).
// heap_allocs counts every operator new the sweep made, pool bookkeeping
// included: per-vote tallies used to pay a tree node per vote, and the
// bench-smoke CI step holds nonauth per-vote allocations per message under
// a ceiling.
struct QcModeResult {
  std::string stack;  // "auth" or "nonauth"
  std::string mode;   // cert_mode_token()
  int jobs = 0;
  std::size_t cells = 0;
  std::uint64_t decisions = 0;
  std::uint64_t messages = 0;
  std::uint64_t verifies = 0;
  std::uint64_t hash_blocks = 0;
  std::uint64_t heap_allocs = 0;
  double wall_seconds = 0.0;

  [[nodiscard]] double messages_per_decision() const {
    return decisions > 0
               ? static_cast<double>(messages) / static_cast<double>(decisions)
               : 0;
  }
  [[nodiscard]] double verifies_per_decision() const {
    return decisions > 0
               ? static_cast<double>(verifies) / static_cast<double>(decisions)
               : 0;
  }
  [[nodiscard]] double hash_blocks_per_decision() const {
    return decisions > 0 ? static_cast<double>(hash_blocks) /
                               static_cast<double>(decisions)
                         : 0;
  }
  [[nodiscard]] double ns_per_decision() const {
    return decisions > 0
               ? wall_seconds * 1e9 / static_cast<double>(decisions)
               : 0;
  }
  [[nodiscard]] double allocs_per_message() const {
    return messages > 0
               ? static_cast<double>(heap_allocs) / static_cast<double>(messages)
               : 0;
  }
};

QcModeResult run_qc_mode(VcKind vc, const char* stack, core::CertMode mode,
                         int jobs) {
  std::vector<std::uint64_t> seeds(8);
  for (std::size_t s = 0; s < seeds.size(); ++s) seeds[s] = s + 1;
  const ScenarioMatrix matrix = ScenarioMatrix()
                                    .vc_kinds({vc})
                                    .validities({ValidityKind::kStrong})
                                    .faults({FaultSpec{"silent", 0}})
                                    .sizes({{7, 2}})
                                    .cert_modes({mode})
                                    .seeds(seeds);
  QcModeResult r;
  r.stack = stack;
  r.mode = core::cert_mode_token(mode);
  r.jobs = jobs;
  g_heap_allocs.store(0, std::memory_order_relaxed);
  const auto start = std::chrono::steady_clock::now();
  SweepRunner(jobs).run_range(matrix, 0, matrix.size(), [&](SweepOutcome&& o) {
    ++r.cells;
    r.decisions += o.result.decisions.size();
    r.messages += o.result.messages_total;
    r.verifies += o.result.verifies_total;
    r.hash_blocks += o.result.hash_blocks;
  });
  r.wall_seconds = seconds_since(start);
  r.heap_allocs = g_heap_allocs.load(std::memory_order_relaxed);
  return r;
}

std::vector<QcModeResult> run_qc_section(int jobs) {
  std::vector<QcModeResult> out;
  for (const auto& [vc, stack] :
       {std::pair<VcKind, const char*>{VcKind::kAuthenticated, "auth"},
        std::pair<VcKind, const char*>{VcKind::kNonAuthenticated,
                                       "nonauth"}}) {
    for (const core::CertMode mode :
         {core::CertMode::kPerVote, core::CertMode::kAggregate}) {
      out.push_back(run_qc_mode(vc, stack, mode, jobs));
    }
  }
  return out;
}

// ------------------------------------------------------------ large-n bench
//
// The scaling measurement behind the topology axis: one committee-7 cell
// (auth stack, aggregate certificates, fault-free, unanimous proposals)
// per system size. The committee runs the full stack among 7 processes
// whatever n is; everything past the committee is listener fanout, so
// total traffic grows like O(k^2 + t_c * n) — the fitted log-log exponent
// of messages against n must stay strictly below 2, which is the CI gate.
// The quadratic (ceil(t/2))^2 Dolev-Reischuk curve at the full-mesh
// tolerance t = (n-1)/3 is emitted alongside as the contrast: the floor
// any full-mesh protocol with non-trivial validity must pay, and what the
// committee trades t for.
struct LargeNResult {
  int n = 0;
  int committee_k = 0;
  int t = 0;  // the full-mesh tolerance the Dolev-Reischuk curve assumes
  std::size_t decisions = 0;
  std::uint64_t messages_total = 0;
  std::uint64_t events = 0;
  std::uint64_t dolev_reischuk_bound = 0;  // (ceil(t/2))^2
  double wall_seconds = 0.0;
  /// getrusage peak RSS in KiB after the cell ran — process-wide and
  /// monotone over the sequence, so per-n values are a ceiling, not a
  /// delta; the acceptance gate only needs the n=1000 ceiling.
  long max_rss_kb = 0;

  [[nodiscard]] double messages_per_decision() const {
    return decisions > 0 ? static_cast<double>(messages_total) /
                               static_cast<double>(decisions)
                         : 0;
  }
};

LargeNResult run_large_n_cell(int n) {
  constexpr int kCommittee = 7;
  const int t = (n - 1) / 3;
  const SweepPoint point = ScenarioMatrix()
                               .vc_kinds({VcKind::kAuthenticated})
                               .validities({ValidityKind::kStrong})
                               .patterns({"unanimous"})
                               .faults({FaultSpec{"silent", 0}})
                               .sizes({{n, t}})
                               .topologies({"committee-" +
                                            std::to_string(kCommittee)})
                               .cert_modes({core::CertMode::kAggregate})
                               .seeds({1})
                               .point_at(0);
  LargeNResult r;
  r.n = n;
  r.committee_k = kCommittee;
  r.t = t;
  const std::uint64_t half = (static_cast<std::uint64_t>(t) + 1) / 2;
  r.dolev_reischuk_bound = half * half;
  const auto start = std::chrono::steady_clock::now();
  const SweepOutcome outcome = run_point(point);
  r.wall_seconds = seconds_since(start);
  r.decisions = outcome.result.decisions.size();
  r.messages_total = outcome.result.messages_total;
  r.events = outcome.result.events;
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) == 0) r.max_rss_kb = usage.ru_maxrss;
  return r;
}

std::vector<LargeNResult> run_large_n_section() {
  std::vector<LargeNResult> out;
  for (const int n : {10, 50, 100, 500, 1000}) {
    out.push_back(run_large_n_cell(n));
  }
  return out;
}

/// Fitted log-log exponents of the large-n curves (scenario.hpp's
/// loglog_slope): how message totals and per-decision messages actually
/// grow with n. Sub-quadratic total growth is the committee topology's
/// whole point.
struct LargeNSlopes {
  double messages = 0.0;
  double messages_per_decision = 0.0;
};

LargeNSlopes large_n_slopes(const std::vector<LargeNResult>& cells) {
  std::vector<double> xs, total, per_decision;
  for (const LargeNResult& r : cells) {
    xs.push_back(static_cast<double>(r.n));
    total.push_back(static_cast<double>(r.messages_total));
    per_decision.push_back(r.messages_per_decision());
  }
  LargeNSlopes s;
  s.messages = loglog_slope(xs, total);
  s.messages_per_decision = loglog_slope(xs, per_decision);
  return s;
}

// Minimal JSON emitter: every value here is a number or a fixed string, so
// escaping never comes up. Field order is fixed for easy diffing.
std::string json_document(const HotPathResult& hot, const SweepThroughput& sw,
                          const std::vector<QcModeResult>& qc,
                          const std::vector<LargeNResult>& large_n,
                          unsigned hw) {
  std::ostringstream out;
  out.precision(17);
  const char* build_type =
#ifdef NDEBUG
      "release";
#else
      "debug";
#endif
  out << "{\n"
      << "  \"bench\": \"sweep-throughput\",\n"
      << "  \"schema\": \"valcon-bench-v2\",\n"
      << "  \"build_type\": \"" << build_type << "\",\n"
      << "  \"hardware_concurrency\": " << hw << ",\n"
      << "  \"hot_path\": {\n"
      << "    \"hardware_concurrency\": " << hw << ",\n"
      << "    \"jobs\": 1,\n"
      << "    \"processes\": " << hot.processes << ",\n"
      << "    \"tokens\": " << hot.tokens << ",\n"
      << "    \"horizon\": " << hot.horizon << ",\n"
      << "    \"events\": " << hot.events << ",\n"
      << "    \"messages\": " << hot.messages << ",\n"
      << "    \"wall_seconds\": " << hot.wall_seconds << ",\n"
      << "    \"events_per_second\": " << hot.events_per_second() << ",\n"
      << "    \"messages_per_second\": " << hot.messages_per_second() << ",\n"
      << "    \"ns_per_message\": " << hot.ns_per_message() << ",\n"
      << "    \"heap_allocs\": " << hot.heap_allocs << ",\n"
      << "    \"heap_allocs_per_message\": " << hot.allocs_per_message()
      << "\n"
      << "  },\n"
      << "  \"sweep\": {\n"
      << "    \"matrix\": \"" << sw.matrix << "\",\n"
      << "    \"hardware_concurrency\": " << hw << ",\n"
      << "    \"jobs\": " << sw.jobs << ",\n"
      << "    \"cells\": " << sw.cells << ",\n"
      << "    \"messages\": " << sw.messages << ",\n"
      << "    \"wall_seconds\": " << sw.wall_seconds << ",\n"
      << "    \"cells_per_second\": " << sw.cells_per_second() << ",\n"
      << "    \"messages_per_second\": " << sw.messages_per_second() << ",\n"
      << "    \"ns_per_message\": " << sw.ns_per_message() << "\n"
      << "  },\n"
      << "  \"qc\": [\n";
  for (std::size_t i = 0; i < qc.size(); ++i) {
    const QcModeResult& r = qc[i];
    out << "    {\n"
        << "      \"stack\": \"" << r.stack << "\",\n"
        << "      \"cert_mode\": \"" << r.mode << "\",\n"
        << "      \"hardware_concurrency\": " << hw << ",\n"
        << "      \"jobs\": " << r.jobs << ",\n"
        << "      \"cells\": " << r.cells << ",\n"
        << "      \"decisions\": " << r.decisions << ",\n"
        << "      \"messages\": " << r.messages << ",\n"
        << "      \"verifies\": " << r.verifies << ",\n"
        << "      \"hash_blocks\": " << r.hash_blocks << ",\n"
        << "      \"heap_allocs\": " << r.heap_allocs << ",\n"
        << "      \"wall_seconds\": " << r.wall_seconds << ",\n"
        << "      \"messages_per_decision\": " << r.messages_per_decision()
        << ",\n"
        << "      \"verifies_per_decision\": " << r.verifies_per_decision()
        << ",\n"
        << "      \"hash_blocks_per_decision\": "
        << r.hash_blocks_per_decision() << ",\n"
        << "      \"heap_allocs_per_message\": " << r.allocs_per_message()
        << ",\n"
        << "      \"ns_per_decision\": " << r.ns_per_decision() << "\n"
        << "    }" << (i + 1 < qc.size() ? "," : "") << "\n";
  }
  out << "  ],\n";
  const LargeNSlopes slopes = large_n_slopes(large_n);
  out << "  \"large_n\": {\n"
      << "    \"topology\": \"committee-" << large_n.front().committee_k
      << "\",\n"
      << "    \"stack\": \"auth\",\n"
      << "    \"cert_mode\": \"aggregate\",\n"
      << "    \"jobs\": 1,\n"
      << "    \"messages_slope\": " << slopes.messages << ",\n"
      << "    \"messages_per_decision_slope\": "
      << slopes.messages_per_decision << ",\n"
      << "    \"cells\": [\n";
  for (std::size_t i = 0; i < large_n.size(); ++i) {
    const LargeNResult& r = large_n[i];
    out << "      {\n"
        << "        \"n\": " << r.n << ",\n"
        << "        \"t\": " << r.t << ",\n"
        << "        \"committee_k\": " << r.committee_k << ",\n"
        << "        \"decisions\": " << r.decisions << ",\n"
        << "        \"messages\": " << r.messages_total << ",\n"
        << "        \"events\": " << r.events << ",\n"
        << "        \"messages_per_decision\": " << r.messages_per_decision()
        << ",\n"
        << "        \"dolev_reischuk_bound\": " << r.dolev_reischuk_bound
        << ",\n"
        << "        \"wall_seconds\": " << r.wall_seconds << ",\n"
        << "        \"max_rss_kb\": " << r.max_rss_kb << "\n"
        << "      }" << (i + 1 < large_n.size() ? "," : "") << "\n";
  }
  out << "    ]\n"
      << "  }\n"
      << "}\n";
  return out.str();
}

int run_json_mode(const std::string& out_path) {
  const unsigned hw = std::thread::hardware_concurrency();
  // Warm-up pass absorbs one-time costs (payload-type interning, freshly
  // mapped pages); of the three measured passes the fastest wins, which
  // filters scheduler noise without gaming the number.
  static_cast<void>(run_hot_path(8, 4, 200.0));
  HotPathResult hot = run_hot_path(8, 4, 8000.0);
  for (int pass = 1; pass < 3; ++pass) {
    const HotPathResult again = run_hot_path(8, 4, 8000.0);
    if (again.wall_seconds < hot.wall_seconds) hot = again;
  }
  const int jobs = hw > 1 ? static_cast<int>(std::min(hw, 8u)) : 1;
  const SweepThroughput sweep = run_sweep_throughput("full", jobs);
  const std::vector<QcModeResult> qc = run_qc_section(jobs);
  // Ascending n so each cell's getrusage peak is attributable to sizes up
  // to and including its own; jobs=1 so RSS is not inflated by pool peers.
  const std::vector<LargeNResult> large_n = run_large_n_section();
  const std::string doc = json_document(hot, sweep, qc, large_n, hw);
  if (out_path.empty()) {
    std::cout << doc;
  } else {
    std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
    if (!file) {
      std::cerr << "bench_sweep: cannot open " << out_path << "\n";
      return 2;
    }
    file << doc;
  }
  return 0;
}

// ----------------------------------------------------- human-readable mode

bool same_results(const std::vector<SweepOutcome>& a,
                  const std::vector<SweepOutcome>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const RunResult& x = a[i].result;
    const RunResult& y = b[i].result;
    if (x.decisions != y.decisions || x.decide_times != y.decide_times ||
        x.message_complexity != y.message_complexity ||
        x.word_complexity != y.word_complexity || x.events != y.events ||
        x.last_decision_time != y.last_decision_time ||
        x.verifies_total != y.verifies_total ||
        x.hash_blocks != y.hash_blocks || a[i].error != b[i].error) {
      return false;
    }
  }
  return true;
}

// Lazy indexing at scale: decodes a slice of a >= 1e6-cell matrix through
// point_at — no point vector is ever materialized, which is the property
// that makes sharded million-cell sweeps possible at all (memory stays
// O(jobs), not O(matrix)).
void bench_lazy_indexing() {
  std::vector<std::uint64_t> seeds(5000);
  for (std::size_t s = 0; s < seeds.size(); ++s) seeds[s] = s + 1;
  const ScenarioMatrix matrix = named_matrix("full").seeds(seeds);
  const std::size_t total = matrix.size();
  // Stride so the bench touches the whole index space in ~100k decodes.
  const std::size_t stride = total / 100000 + 1;
  std::size_t decoded = 0;
  std::size_t label_bytes = 0;
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < total; i += stride) {
    label_bytes += matrix.point_at(i).label.size();
    ++decoded;
  }
  const double wall = seconds_since(start);
  std::cout << "lazy indexing: matrix of " << total << " cells, decoded "
            << decoded << " points via point_at in " << fmt(wall, 3)
            << "s (" << fmt(static_cast<double>(decoded) / wall, 0)
            << " decodes/s, " << label_bytes
            << " label bytes, no point vector materialized)\n\n";
}

// The simulator hot path in isolation: the token storm from the --json
// section, printed for humans, with the allocation counter that
// demonstrates the zero-allocation steady state.
void bench_hot_path() {
  static_cast<void>(run_hot_path(8, 4, 200.0));  // warm-up
  const HotPathResult r = run_hot_path(8, 4, 8000.0);
  std::cout << "simulator hot path (token storm, n=" << r.processes
            << ", tokens=" << r.tokens << "): " << r.messages
            << " messages / " << r.events << " events in "
            << fmt(r.wall_seconds, 3) << "s ("
            << fmt(r.messages_per_second() / 1e6, 2) << "M msg/s, "
            << fmt(r.ns_per_message(), 0) << " ns/msg, "
            << fmt(r.allocs_per_message(), 4) << " heap allocs/msg)\n\n";
}

// The "validity" matrix: every validity property x every proposal pattern
// x every network profile. Beyond throughput, this checks the refactor's
// headline at bench scale: zero errors means Λ is defined everywhere —
// including CorrectProposal, which the old hard-coded 3-value assignment
// made unsolvable in every matrix.
bool bench_validity_matrix() {
  const ScenarioMatrix matrix = named_matrix("validity");
  const auto start = std::chrono::steady_clock::now();
  std::size_t cells = 0, errors = 0, cut = 0;
  SweepRunner(4).run_range(matrix, 0, matrix.size(), [&](SweepOutcome&& o) {
    ++cells;
    if (!o.error.empty()) ++errors;
    if (o.error.empty() && !o.result.queue_drained) ++cut;
  });
  const double wall = seconds_since(start);
  std::cout << "validity matrix (jobs=4): " << cells << " scenarios in "
            << fmt(wall, 3) << "s ("
            << fmt(static_cast<double>(cells) / wall, 1) << " scen/s), "
            << errors << " lambda errors, " << cut
            << " runs cut by the grace window\n";
  return errors == 0;
}

// The QC section for humans: the per-decision table plus the direction
// checks the CI smoke run enforces — aggregation must cut messages per
// decision on the nonauth stack (votes stop being relayed all-to-all) and
// verifies per decision on the auth stack (one aggregate check replaces
// the per-vote checks).
bool bench_qc() {
  const std::vector<QcModeResult> qc = run_qc_section(4);
  Table table({"stack", "cert_mode", "cells", "decisions", "msg/decision",
               "verify/decision", "blocks/decision", "allocs/msg",
               "ns/decision"});
  for (const QcModeResult& r : qc) {
    table.add_row({r.stack, r.mode, std::to_string(r.cells),
                   std::to_string(r.decisions),
                   fmt(r.messages_per_decision(), 1),
                   fmt(r.verifies_per_decision(), 1),
                   fmt(r.hash_blocks_per_decision(), 1),
                   fmt(r.allocs_per_message(), 2),
                   fmt(r.ns_per_decision(), 0)});
  }
  std::cout << "quorum certificates (jobs=4, n=7, t=2, fault-free):\n";
  table.print();
  bool ok = true;
  // run_qc_section order: auth/per-vote, auth/aggregate, nonauth/per-vote,
  // nonauth/aggregate.
  if (qc[1].verifies_per_decision() >= qc[0].verifies_per_decision()) {
    std::cerr << "FAIL: aggregate did not cut verifies/decision (auth)\n";
    ok = false;
  }
  if (qc[3].messages_per_decision() >= qc[2].messages_per_decision()) {
    std::cerr << "FAIL: aggregate did not cut msg/decision (nonauth)\n";
    ok = false;
  }
  std::cout << "\n";
  return ok;
}

// run_range streaming vs run() on the materialized vector: same outcomes,
// comparable throughput, O(jobs) buffering.
bool bench_run_range(const std::vector<SweepOutcome>& baseline) {
  const ScenarioMatrix matrix = named_matrix("full");
  std::vector<SweepOutcome> streamed;
  streamed.reserve(matrix.size());
  const auto start = std::chrono::steady_clock::now();
  SweepRunner(4).run_range(matrix, 0, matrix.size(), [&](SweepOutcome&& o) {
    streamed.push_back(std::move(o));
  });
  const double wall = seconds_since(start);
  const bool identical = same_results(baseline, streamed);
  std::cout << "run_range streaming (jobs=4): " << streamed.size()
            << " scenarios in " << fmt(wall, 3) << "s ("
            << fmt(static_cast<double>(streamed.size()) / wall, 1)
            << " scen/s), results==run(): " << (identical ? "yes" : "NO")
            << "\n";
  return identical;
}

}  // namespace

int main(int argc, char** argv) {
  bool json = false;
  std::string out_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json") {
      json = true;
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else {
      std::cerr << "usage: bench_sweep [--json [--out FILE]]\n";
      return 2;
    }
  }
  if (json) return run_json_mode(out_path);

  const unsigned hw = std::thread::hardware_concurrency();
  std::cout << "sweep throughput (matrix=full, hardware_concurrency=" << hw
            << ")\n\n";

  bench_hot_path();
  bench_lazy_indexing();

  const std::vector<SweepPoint> points = named_matrix("full").build();

  std::vector<SweepOutcome> baseline;
  Table table({"jobs", "scenarios", "wall(s)", "scen/s", "speedup",
               "results==jobs1"});
  double base_wall = 0.0;
  for (const int jobs : {1, 2, 4, 8}) {
    const SweepRunner runner(jobs);
    const auto start = std::chrono::steady_clock::now();
    const std::vector<SweepOutcome> outcomes = runner.run(points);
    const double wall = seconds_since(start);
    bool identical = true;
    if (jobs == 1) {
      baseline = outcomes;
      base_wall = wall;
    } else {
      identical = same_results(baseline, outcomes);
    }
    table.add_row({std::to_string(jobs), std::to_string(points.size()),
                   fmt(wall, 3),
                   fmt(static_cast<double>(points.size()) / wall, 1),
                   fmt(base_wall / wall), identical ? "yes" : "NO"});
    if (!identical) {
      table.print();
      std::cerr << "FAIL: results changed with jobs=" << jobs << "\n";
      return 1;
    }
  }
  table.print();
  std::cout << "\n";
  if (!bench_run_range(baseline)) {
    std::cerr << "FAIL: run_range results differ from run()\n";
    return 1;
  }
  if (!bench_validity_matrix()) {
    std::cerr << "FAIL: lambda errors in the validity matrix\n";
    return 1;
  }
  std::cout << "\n";
  if (!bench_qc()) return 1;
  return 0;
}
