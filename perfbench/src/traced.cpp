#include "traced.hpp"

#include <memory>
#include <optional>
#include <set>
#include <sstream>
#include <utility>

#include "util.hpp"
#include "valcon/core/execution_checker.hpp"
#include "valcon/core/lambda.hpp"
#include "valcon/harness/strategy.hpp"
#include "valcon/harness/sweep_io.hpp"
#include "valcon/harness/topology.hpp"
#include "valcon/harness/validity_kind.hpp"
#include "valcon/sim/component.hpp"

namespace perfbench {

namespace core = valcon::core;
namespace crypto = valcon::crypto;
namespace harness = valcon::harness;
namespace io = valcon::harness::io;
namespace sim = valcon::sim;
using valcon::ProcessId;
using valcon::Time;
using valcon::Value;

void LayerTotals::add(const LayerTotals& o) {
  cells += o.cells;
  sweep_cells += o.sweep_cells;
  events += o.events;
  post_decision_events += o.post_decision_events;
  decisions += o.decisions;
  messages += o.messages;
  allocs += o.allocs;
  handler_calls += o.handler_calls;
  send_calls += o.send_calls;
  timer_calls += o.timer_calls;
  listener_msgs += o.listener_msgs;
  listeners += o.listeners;
  verifies_signature += o.verifies_signature;
  verifies_threshold += o.verifies_threshold;
  verifies_aggregate += o.verifies_aggregate;
  step_ns += o.step_ns;
  handler_ns += o.handler_ns;
  ctx_ns += o.ctx_ns;
  send_ns += o.send_ns;
  member_handler_ns += o.member_handler_ns;
  listener_handler_ns += o.listener_handler_ns;
  est_verify_ns += o.est_verify_ns;
  point_at_ns += o.point_at_ns;
  lambda_ns += o.lambda_ns;
  setup_ns += o.setup_ns;
  check_ns += o.check_ns;
  line_ns += o.line_ns;
  traced_ns += o.traced_ns;
  untraced_ns += o.untraced_ns;
}

namespace {

// ------------------------------------------------------------ decorators

/// Times the calls a handler makes back into the simulator.
class TimingContext final : public sim::ForwardingContext {
 public:
  TimingContext(sim::Context& base, LayerTotals& totals)
      : ForwardingContext(base), totals_(totals) {}

  void send(ProcessId to, sim::PayloadPtr payload) override {
    const auto start = Clock::now();
    ForwardingContext::send(to, std::move(payload));
    const double ns = ns_between(start, Clock::now());
    totals_.send_ns += ns;
    totals_.ctx_ns += ns;
    ++totals_.send_calls;
  }

  void set_timer(Time delay, std::uint64_t tag) override {
    const auto start = Clock::now();
    ForwardingContext::set_timer(delay, tag);
    totals_.ctx_ns += ns_between(start, Clock::now());
    ++totals_.timer_calls;
  }

 private:
  LayerTotals& totals_;
};

/// Wraps one installed process and times its three handlers. The
/// simulator hands a process the same Context on every call, so one
/// TimingContext per process serves every call (and any reference the
/// protocol keeps to it stays valid).
class TimedProcess final : public sim::Process {
 public:
  TimedProcess(std::unique_ptr<sim::Process> inner, LayerTotals& totals,
               bool listener)
      : inner_(std::move(inner)), totals_(totals), listener_(listener) {}

  void on_start(sim::Context& base) override {
    timed([&](sim::Context& ctx) { inner_->on_start(ctx); }, base);
  }
  void on_message(sim::Context& base, ProcessId from,
                  const sim::PayloadPtr& m) override {
    if (listener_) ++totals_.listener_msgs;
    timed([&](sim::Context& ctx) { inner_->on_message(ctx, from, m); }, base);
  }
  void on_timer(sim::Context& base, std::uint64_t tag) override {
    timed([&](sim::Context& ctx) { inner_->on_timer(ctx, tag); }, base);
  }

 private:
  template <typename Call>
  void timed(const Call& call, sim::Context& base) {
    if (!ctx_) ctx_.emplace(base, totals_);
    const auto start = Clock::now();
    call(*ctx_);
    const double ns = ns_between(start, Clock::now());
    totals_.handler_ns += ns;
    (listener_ ? totals_.listener_handler_ns : totals_.member_handler_ns) +=
        ns;
    ++totals_.handler_calls;
  }

  std::unique_ptr<sim::Process> inner_;
  LayerTotals& totals_;
  bool listener_;
  std::optional<TimingContext> ctx_;
};

// ----------------------------------------------------------------- spans

struct Span {
  std::size_t cell;
  const char* name;
  const char* parent;
  double start_ns;
  double end_ns;
};

struct SpanLog {
  Clock::time_point origin = Clock::now();
  std::vector<Span> spans;

  void add(std::size_t cell, const char* name, const char* parent,
           Clock::time_point a, Clock::time_point b) {
    spans.push_back({cell, name, parent, ns_between(origin, a),
                     ns_between(origin, b)});
  }
};

double aggregate_cost(const CryptoUnitCosts& costs, int registry_n) {
  // The probe at the nearest probed size (every workload size is probed).
  auto it = costs.verify_aggregate_ns.lower_bound(registry_n);
  if (it == costs.verify_aggregate_ns.end()) --it;
  return it->second;
}

void count_verifies(const crypto::VerifyCounters& before,
                    const CryptoUnitCosts& costs, int registry_n,
                    LayerTotals& cell) {
  const crypto::VerifyCounters& now = crypto::verify_counters();
  cell.verifies_signature = now.signature - before.signature;
  cell.verifies_threshold = now.threshold - before.threshold;
  cell.verifies_aggregate = now.aggregate - before.aggregate;
  cell.est_verify_ns =
      static_cast<double>(cell.verifies_signature) * costs.verify_ns +
      static_cast<double>(cell.verifies_threshold) * costs.verify_threshold_ns +
      static_cast<double>(cell.verifies_aggregate) *
          aggregate_cost(costs, registry_n);
}

// ------------------------------------------------- rebuilt run_universal

/// run_universal's construction and event loop, with every installed
/// process decorated and every step timed.
harness::RunResult traced_universal(const harness::ScenarioConfig& cfg,
                                    const core::LambdaFn& lambda,
                                    const CryptoUnitCosts& costs,
                                    LayerTotals& cell, SpanLog& log,
                                    std::size_t cell_id) {
  using harness::CommitteeHost;
  using harness::RunResult;
  harness::validate(cfg);
  const auto setup_start = Clock::now();

  sim::SimConfig sim_cfg;
  sim_cfg.n = cfg.n;
  sim_cfg.t = cfg.t;
  sim_cfg.seed = cfg.seed;
  sim_cfg.net.gst = cfg.gst;
  sim_cfg.net.delta = cfg.delta;
  sim_cfg.keys = harness::shared_key_registry(cfg.n, cfg.n - cfg.t, cfg.seed);
  if (cfg.net_profile.pre_gst_cap >= 0) {
    sim_cfg.net.default_pre_gst_cap = cfg.net_profile.pre_gst_cap;
  }
  if (cfg.net_profile.min_delay >= 0) {
    sim_cfg.net.min_delay = cfg.net_profile.min_delay;
  }
  sim::Simulator simulator(sim_cfg);
  if (auto policy = cfg.net_profile.make_delay_policy(cfg.gst)) {
    simulator.network().set_delay_policy(std::move(policy));
  }

  auto result = std::make_shared<RunResult>();
  auto correct_decided = std::make_shared<int>(0);

  const bool committee = !cfg.topology.full_mesh();
  const int committee_k = committee ? cfg.topology.committee_k : cfg.n;
  const int committee_t = committee ? harness::Topology::committee_fault_tolerance(
                                          committee_k)
                                    : cfg.t;
  std::shared_ptr<const crypto::KeyRegistry> committee_keys;
  std::shared_ptr<const harness::ScenarioConfig> inner_cfg;
  if (committee) {
    committee_keys = harness::shared_key_registry(
        committee_k, committee_k - committee_t, cfg.seed);
    auto inner = std::make_shared<harness::ScenarioConfig>(cfg);
    inner->n = committee_k;
    inner->t = committee_t;
    inner_cfg = std::move(inner);
    cell.listeners = static_cast<std::uint64_t>(cfg.n - committee_k);
  }

  const auto make_stack = [&](Value v, bool record,
                              bool is_correct) -> std::unique_ptr<sim::Process> {
    auto on_decide =
        record ? core::Universal::DecideCb(
                     [result, correct_decided, is_correct](sim::Context& ctx,
                                                           Value decided) {
                       result->decisions[ctx.id()] = decided;
                       result->decide_times[ctx.id()] = ctx.now();
                       if (is_correct) ++*correct_decided;
                     })
               : core::Universal::DecideCb([](sim::Context&, Value) {});
    if (!committee) {
      return std::make_unique<sim::ComponentHost>(
          harness::make_universal(cfg, v, lambda, std::move(on_decide)));
    }
    CommitteeHost::StackFactory factory =
        [inner_cfg, v, lambda](core::Universal::DecideCb inner_decide) {
          return harness::make_universal(*inner_cfg, v, lambda,
                                         std::move(inner_decide));
        };
    return std::make_unique<CommitteeHost>(committee_k, committee_t,
                                           cfg.cert_mode, committee_keys,
                                           std::move(factory),
                                           std::move(on_decide));
  };
  const auto timed = [&](ProcessId p, std::unique_ptr<sim::Process> process) {
    return std::make_unique<TimedProcess>(std::move(process), cell,
                                          committee && p >= committee_k);
  };

  harness::StrategyShared shared;
  for (ProcessId p = 0; p < cfg.n; ++p) {
    const auto fault = cfg.faults.find(p);
    if (fault == cfg.faults.end()) {
      simulator.add_process(
          p, timed(p, make_stack(cfg.proposals[static_cast<std::size_t>(p)],
                                 /*record=*/true, /*is_correct=*/true)));
      continue;
    }
    simulator.mark_faulty(p);
    harness::StrategyEnv env{
        cfg,
        fault->second,
        p,
        simulator,
        [&make_stack](Value v) {
          return make_stack(v, /*record=*/true, /*is_correct=*/false);
        },
        [&make_stack](Value v) {
          return make_stack(v, /*record=*/false, /*is_correct=*/false);
        },
        &shared,
    };
    simulator.add_process(
        p, timed(p, harness::StrategyRegistry::global()
                        .make(fault->second.strategy)
                        ->build(env)));
  }

  const int n_correct = cfg.n - static_cast<int>(cfg.faults.size());
  Time cutoff = cfg.horizon;
  bool grace_armed = false;
  std::uint64_t events = 0;
  const crypto::VerifyCounters verifies_before = crypto::verify_counters();
  const std::uint64_t allocs_before = thread_allocs();
  const auto loop_start = Clock::now();
  log.add(cell_id, "setup", "run", setup_start, loop_start);
  cell.setup_ns = ns_between(setup_start, loop_start);
  for (;;) {
    const auto start = Clock::now();
    const bool stepped = simulator.step(cutoff);
    const auto end = Clock::now();
    if (!stepped) break;
    cell.step_ns += ns_between(start, end);
    ++events;
    if (grace_armed) {
      ++cell.post_decision_events;
    } else if (*correct_decided == n_correct) {
      grace_armed = true;
      cutoff = std::min(cfg.horizon,
                        simulator.now() + cfg.grace_multiplier * cfg.delta);
    }
  }
  cell.allocs = thread_allocs() - allocs_before;
  log.add(cell_id, "event_loop", "run", loop_start, Clock::now());
  count_verifies(verifies_before, costs,
                 committee ? committee_k : cfg.n, cell);

  result->events = events;
  result->verifies_total = cell.verifies_signature + cell.verifies_threshold +
                           cell.verifies_aggregate;
  result->queue_drained = simulator.idle();
  result->end_time = simulator.now();
  result->grace_cutoff = grace_armed ? cutoff : -1.0;
  result->message_complexity = simulator.metrics().message_complexity();
  result->word_complexity = simulator.metrics().communication_complexity();
  result->messages_total = simulator.metrics().messages_total();
  result->by_type = simulator.metrics().by_type();
  result->min_vote_margin = simulator.metrics().near_miss().min_vote_margin;
  result->conflicting_votes = simulator.metrics().near_miss().conflicting_votes;
  for (const auto& [pid, fault] : cfg.faults) {
    result->decisions.erase(pid);
    result->decide_times.erase(pid);
  }
  result->last_decision_time = 0.0;
  for (const auto& [pid, when] : result->decide_times) {
    result->last_decision_time = std::max(result->last_decision_time, when);
  }
  return *result;
}

// ------------------------------------------------------------ cell runs

struct Tracer {
  const CryptoUnitCosts& costs;
  SpanLog log;
  std::ostringstream summaries;
  std::vector<std::string> mismatches;
  std::size_t next_id = 0;

  void summarize(std::size_t id, const std::string& label,
                 const LayerTotals& c) {
    summaries << "{\"cell\": " << id << ", \"label\": \"" << label
              << "\", \"events\": " << c.events
              << ", \"messages\": " << c.messages
              << ", \"decisions\": " << c.decisions
              << ", \"step_ns\": " << c.step_ns
              << ", \"handler_ns\": " << c.handler_ns
              << ", \"ctx_ns\": " << c.ctx_ns
              << ", \"traced_ns\": " << c.traced_ns
              << ", \"untraced_ns\": " << c.untraced_ns << "}\n";
  }

  /// One sweep cell: untraced through run_point, then rebuilt traced.
  std::string sweep_cell(const harness::ScenarioMatrix& matrix,
                         std::size_t index, LayerTotals& totals) {
    const std::size_t id = next_id++;
    const auto u0 = Clock::now();
    const harness::SweepOutcome untraced =
        harness::run_point(matrix.point_at(index));
    const std::string untraced_line = io::outcome_line(untraced);
    const double untraced_ns = ns_between(u0, Clock::now());

    LayerTotals cell;
    const auto c0 = Clock::now();
    harness::SweepOutcome outcome;
    outcome.point = matrix.point_at(index);
    const auto c1 = Clock::now();
    const harness::ScenarioConfig& cfg = outcome.point.config;
    const auto validity =
        harness::make_validity(outcome.point.validity, cfg.n, cfg.t);
    const core::LambdaFn lambda = core::make_lambda(*validity, cfg.n, cfg.t);
    const auto c2 = Clock::now();
    std::string error;
    try {
      outcome.result = traced_universal(cfg, lambda, costs, cell, log, id);
    } catch (const std::exception& e) {
      error = e.what();
    }
    const auto c3 = Clock::now();
    std::set<ProcessId> faulty;
    for (const auto& [pid, fault] : cfg.faults) faulty.insert(pid);
    outcome.report = core::check_execution(*validity, cfg.n, cfg.t,
                                           cfg.proposals, faulty,
                                           outcome.result.decisions);
    outcome.decided = outcome.report.termination;
    outcome.agreement = outcome.report.agreement;
    outcome.validity_ok = outcome.report.validity;
    const auto c4 = Clock::now();
    const std::string line = io::outcome_line(outcome);
    const auto c5 = Clock::now();

    log.add(id, "point_at", "cell", c0, c1);
    log.add(id, "lambda", "cell", c1, c2);
    log.add(id, "run", "cell", c2, c3);
    log.add(id, "check_execution", "cell", c3, c4);
    log.add(id, "outcome_line", "cell", c4, c5);
    log.add(id, "cell", "", c0, c5);
    cell.cells = 1;
    cell.sweep_cells = 1;
    cell.events = outcome.result.events;
    cell.decisions = outcome.result.decisions.size();
    cell.messages = outcome.result.messages_total;
    cell.point_at_ns = ns_between(c0, c1);
    cell.lambda_ns = ns_between(c1, c2);
    cell.check_ns = ns_between(c3, c4);
    cell.line_ns = ns_between(c4, c5);
    cell.traced_ns = ns_between(c0, c5);
    cell.untraced_ns = untraced_ns;

    const harness::RunResult& a = untraced.result;
    const harness::RunResult& b = outcome.result;
    const std::string& label = outcome.point.label;
    if (!error.empty() || a.events != b.events ||
        a.messages_total != b.messages_total ||
        a.verifies_total != b.verifies_total || a.decisions != b.decisions ||
        untraced_line != line) {
      mismatches.push_back(label + (error.empty() ? "" : " (" + error + ")"));
    }
    summarize(id, label, cell);
    totals.add(cell);
    return label;
  }

  /// One storm cell: untraced, then rebuilt traced.
  std::string storm_cell(const StormCell& storm, LayerTotals& totals) {
    const std::size_t id = next_id++;
    const auto u0 = Clock::now();
    const StormResult untraced = run_storm(storm);
    const double untraced_ns = ns_between(u0, Clock::now());

    LayerTotals cell;
    const auto c0 = Clock::now();
    sim::Simulator simulator(storm_config(storm));
    StormTally tally;
    install_storm(simulator, storm, tally,
                  [&cell](ProcessId, std::unique_ptr<sim::Process> process) {
                    return std::make_unique<TimedProcess>(std::move(process),
                                                          cell, false);
                  });
    const std::uint64_t allocs_before = thread_allocs();
    const auto loop_start = Clock::now();
    std::uint64_t events = 0;
    for (;;) {
      const auto start = Clock::now();
      const bool stepped = simulator.step(kStormHorizon);
      const auto end = Clock::now();
      if (!stepped) break;
      cell.step_ns += ns_between(start, end);
      ++events;
      if (tally.decisions == kStormProcesses) ++cell.post_decision_events;
    }
    cell.allocs = thread_allocs() - allocs_before;
    const StormResult traced = collect_storm(simulator, events, tally);
    const auto c1 = Clock::now();

    log.add(id, "setup", "run", c0, loop_start);
    log.add(id, "event_loop", "run", loop_start, c1);
    log.add(id, "cell", "", c0, c1);
    cell.cells = 1;
    cell.events = events;
    cell.decisions = static_cast<std::uint64_t>(traced.decisions);
    cell.messages = traced.messages_total;
    cell.setup_ns = ns_between(c0, loop_start);
    cell.traced_ns = ns_between(c0, c1);
    cell.untraced_ns = untraced_ns;
    const std::string label = storm.label();
    if (traced.line(storm) != untraced.line(storm)) {
      mismatches.push_back(label);
    }
    summarize(id, label, cell);
    totals.add(cell);
    return label;
  }
};

/// Indices of a segment's fault-free and crash cells, thinned to at most
/// `limit`: one from each of `limit` equal runs of eligible cells, at an
/// offset that cycles through the run, so a fast-varying axis (the cert
/// mode, the seed) is not sampled at a single value.
std::vector<std::size_t> traced_indices(const harness::ScenarioMatrix& matrix,
                                        std::size_t limit) {
  std::vector<std::size_t> eligible;
  for (std::size_t i = 0; i < matrix.size(); ++i) {
    bool keep = true;
    for (const auto& [pid, fault] : matrix.point_at(i).config.faults) {
      keep = keep && fault.strategy == "crash";
    }
    if (keep) eligible.push_back(i);
  }
  if (eligible.size() <= limit) return eligible;
  const std::size_t run = eligible.size() / limit;
  std::vector<std::size_t> picked;
  for (std::size_t j = 0; j < limit; ++j) {
    picked.push_back(eligible[j * run + j % run]);
  }
  return picked;
}

}  // namespace

TracedRun run_traced(const Workload& workload, std::uint64_t seed,
                     const CryptoUnitCosts& costs) {
  Tracer tracer{costs, {}, {}, {}, 0};
  TracedRun run;
  for (const Segment& segment : workload.segments) {
    for (const std::size_t i :
         traced_indices(segment.matrix, workload.trace_per_segment)) {
      run.cells.push_back(segment.name + ": " +
                          tracer.sweep_cell(segment.matrix, i, run.own));
    }
  }
  const std::size_t storm_cells =
      std::min(workload.trace_per_segment, workload.storm.size());
  for (std::size_t i = 0; i < storm_cells; ++i) {
    run.cells.push_back(tracer.storm_cell(workload.storm[i], run.own));
  }

  for (int stack = 0; stack < 3; ++stack) {
    for (int mode = 0; mode < 2; ++mode) {
      const harness::ScenarioMatrix matrix =
          reference_matrix(stack, mode, seed, 2);
      for (std::size_t i = 0; i < matrix.size(); ++i) {
        static_cast<void>(tracer.sweep_cell(matrix, i, run.mesh_ref));
      }
    }
  }
  const harness::ScenarioMatrix committee = committee_reference_matrix(seed);
  for (std::size_t i = 0; i < committee.size(); ++i) {
    static_cast<void>(tracer.sweep_cell(committee, i, run.committee_ref));
  }

  run.mismatches = std::move(tracer.mismatches);
  std::ostringstream spans;
  spans.precision(17);
  for (const Span& s : tracer.log.spans) {
    spans << "{\"cell\": " << s.cell << ", \"span\": \"" << s.name
          << "\", \"parent\": \"" << s.parent << "\", \"start_ns\": "
          << s.start_ns << ", \"end_ns\": " << s.end_ns << "}\n";
  }
  run.spans = spans.str() + tracer.summaries.str();
  return run;
}

}  // namespace perfbench
