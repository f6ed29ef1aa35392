#include "valcon/harness/sweep.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <exception>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>

#include "valcon/core/lambda.hpp"
#include "valcon/harness/net_profile.hpp"
#include "valcon/harness/pattern.hpp"
#include "valcon/harness/table.hpp"

namespace valcon::harness {

std::string FaultSpec::label(int t) const {
  // Mirrors the clamp build() applies, so the label always names the number
  // of faults actually injected.
  const int resolved = count < 0 ? t : std::min(count, t);
  if (resolved == 0) return "none";
  return strategy + "x" + std::to_string(resolved);
}

namespace {

/// ScenarioMatrix::keep on one dimension: keeps the values whose token is
/// named, failing loudly for a name that selects none of them.
template <typename T, typename TokenOf>
void keep_named(std::vector<T>& values, const std::vector<std::string>& names,
                const AxisSpec& axis, TokenOf token_of) {
  std::vector<T> kept;
  std::set<std::string> matched;
  for (const T& value : values) {
    const std::string token = token_of(value);
    if (std::find(names.begin(), names.end(), token) == names.end()) continue;
    kept.push_back(value);
    matched.insert(token);
  }
  for (const std::string& name : names) {
    if (matched.count(name) == 0) {
      throw std::invalid_argument(std::string(axis.name) + " '" + name +
                                  "' matches no " + axis.name +
                                  " dimension value of this matrix");
    }
  }
  values = std::move(kept);
}

}  // namespace

std::array<std::vector<std::string>, kAxisCount>
ScenarioMatrix::default_tokens() {
  std::array<std::vector<std::string>, kAxisCount> tokens;
  for (const AxisSpec& axis : kAxes) {
    if (axis.id != Axis::kStrategy) {
      tokens[axis_index(axis.id)] = {axis.default_token};
    }
  }
  return tokens;
}

ScenarioMatrix& ScenarioMatrix::vc_kinds(std::vector<VcKind> v) {
  vcs_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::validities(std::vector<ValidityKind> v) {
  validities_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::patterns(std::vector<std::string> names) {
  return values(Axis::kPattern, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::faults(std::vector<FaultSpec> v) {
  faults_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::sizes(std::vector<std::pair<int, int>> nt) {
  sizes_ = std::move(nt);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::network_profiles(
    std::vector<std::string> names) {
  return values(Axis::kNetProfile, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::cert_modes(
    const std::vector<core::CertMode>& modes) {
  std::vector<std::string> tokens;
  for (const core::CertMode mode : modes) {
    tokens.push_back(core::cert_mode_token(mode));
  }
  return values(Axis::kCertMode, std::move(tokens));
}
ScenarioMatrix& ScenarioMatrix::topologies(std::vector<std::string> names) {
  return values(Axis::kTopology, std::move(names));
}
ScenarioMatrix& ScenarioMatrix::values(Axis axis,
                                       std::vector<std::string> tokens) {
  if (axis == Axis::kStrategy) {
    throw std::invalid_argument("the strategy axis is set through faults()");
  }
  tokens_[axis_index(axis)] = std::move(tokens);
  retag(axis);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::keep(Axis axis,
                                     const std::vector<std::string>& names) {
  const AxisSpec& spec = axis_spec(axis);
  if (names.empty()) {
    // An empty keep-list would empty the axis and shrink the matrix to
    // zero cells — a sweep that runs nothing and exits green. A filter
    // that selects nothing is a caller mistake, not a request.
    throw std::invalid_argument(std::string("empty ") + spec.name +
                                " filter");
  }
  for (const std::string& name : names) spec.check(name);
  if (axis == Axis::kStrategy) {
    keep_named(faults_, names, spec,
               [](const FaultSpec& f) { return f.effective_strategy(); });
  } else {
    keep_named(tokens_[axis_index(axis)], names, spec,
               [](const std::string& token) { return token; });
    retag(axis);
  }
  return *this;
}
void ScenarioMatrix::retag(Axis axis) {
  const AxisSpec& spec = axis_spec(axis);
  const std::vector<std::string>& declared = tokens_[axis_index(axis)];
  tagged_[axis_index(axis)] =
      spec.label_key != nullptr &&
      !(declared.size() == 1 && declared[0] == spec.default_token);
}
ScenarioMatrix& ScenarioMatrix::gsts(std::vector<Time> v) {
  gsts_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::deltas(std::vector<Time> v) {
  deltas_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::seeds(std::vector<std::uint64_t> v) {
  seeds_ = std::move(v);
  return *this;
}
ScenarioMatrix& ScenarioMatrix::proposal_domain(Value domain_size) {
  if (domain_size < 2) {
    throw std::invalid_argument("proposal domain must have >= 2 values, got " +
                                std::to_string(domain_size));
  }
  domain_ = domain_size;
  return *this;
}
ScenarioMatrix& ScenarioMatrix::record_near_miss(bool enabled) {
  near_miss_ = enabled;
  return *this;
}
ScenarioMatrix& ScenarioMatrix::horizon(Time cap) {
  if (cap <= 0.0) {
    throw std::invalid_argument("horizon must be positive");
  }
  horizon_ = cap;
  return *this;
}

std::size_t ScenarioMatrix::size() const {
  std::size_t cells = vcs_.size() * validities_.size() * faults_.size() *
                      sizes_.size() * gsts_.size() * deltas_.size() *
                      seeds_.size();
  for (const AxisSpec& axis : kAxes) {
    if (axis.id != Axis::kStrategy) {
      cells *= tokens_[axis_index(axis.id)].size();
    }
  }
  return cells;
}

void ScenarioMatrix::check_dimensions() const {
  if (domain_ < 2) {
    throw std::invalid_argument("proposal domain must have >= 2 values");
  }
  for (const auto& [n, t] : sizes_) {
    if (n <= 0 || t < 0 || t >= n) {
      throw std::invalid_argument("size (n=" + std::to_string(n) +
                                  ", t=" + std::to_string(t) +
                                  ") violates 0 <= t < n");
    }
  }
  // Pattern / profile *names* are deliberately not resolved here:
  // check_dimensions runs per point_at decode, and taking the registry
  // mutex per name per cell would serialize the pool on 1e6+-cell sweeps.
  // The decode body resolves each name exactly once per cell and throws
  // the same std::invalid_argument (listing what is registered) on the
  // first cell of a misnamed axis.
  // A fault spec naming a proposal outside the domain used to wrap or
  // leak through silently; reject it while the matrix is being built, not
  // deep inside a sweep.
  for (const FaultSpec& spec : faults_) {
    if (spec.equivocal_value >= domain_) {
      throw std::invalid_argument(
          "fault spec '" + spec.strategy + "': equivocal_value " +
          std::to_string(spec.equivocal_value) +
          " outside the proposal domain [0, " + std::to_string(domain_) +
          ") — pick a value the domain can express or raise "
          "proposal_domain()");
    }
  }
}

SweepPoint ScenarioMatrix::point_at(std::size_t index) const {
  check_dimensions();
  if (index >= size()) {
    throw std::out_of_range("matrix index " + std::to_string(index) +
                            " >= size " + std::to_string(size()));
  }
  // Mixed-radix decode, least-significant (fastest-varying) digit first:
  // the dimension nesting is vc > validity > pattern > fault > size >
  // net-profile > gst > delta > seed > cert-mode > topology, so the
  // topology digit is peeled first. This is the one source of truth for
  // the index ↔ cell mapping; build() just replays it. (The four token
  // axes decode as radix-1 digits on legacy matrices, so their indices —
  // and bytes — are untouched.)
  std::size_t rem = index;
  const auto digit = [&rem](std::size_t radix) {
    const std::size_t d = rem % radix;
    rem /= radix;
    return d;
  };
  // The cell's token on each token axis, for the wire tags below.
  std::array<const std::string*, kAxisCount> chosen{};
  const auto pick = [&](Axis axis) -> const std::string& {
    const std::vector<std::string>& values = tokens_[axis_index(axis)];
    const std::string& token = values[digit(values.size())];
    chosen[axis_index(axis)] = &token;
    return token;
  };
  const std::string& topology_name = pick(Axis::kTopology);
  const std::string& cert_token = pick(Axis::kCertMode);
  const std::uint64_t seed = seeds_[digit(seeds_.size())];
  const Time delta = deltas_[digit(deltas_.size())];
  const Time gst = gsts_[digit(gsts_.size())];
  const std::string& profile_name = pick(Axis::kNetProfile);
  const auto [n, t] = sizes_[digit(sizes_.size())];
  const FaultSpec& spec = faults_[digit(faults_.size())];
  const std::string& pattern_name = pick(Axis::kPattern);
  const ValidityKind validity = validities_[digit(validities_.size())];
  const VcKind vc = vcs_[rem];
  const std::optional<core::CertMode> cert_mode =
      core::cert_mode_from_token(cert_token);
  if (!cert_mode.has_value()) {
    axis_spec(Axis::kCertMode).check(cert_token);  // throws, naming both
  }

  ScenarioConfig cfg;
  cfg.n = n;
  cfg.t = t;
  cfg.delta = delta;
  cfg.gst = gst;
  cfg.seed = seed;
  cfg.vc = vc;
  cfg.horizon = horizon_;
  cfg.cert_mode = *cert_mode;
  cfg.topology = named_topology(topology_name);
  cfg.net_profile = named_network_profile(profile_name);
  const PatternEnv penv{n, t, seed, domain_, validity};
  cfg.proposals = PatternRegistry::global().make(pattern_name)->assign(penv);
  if (static_cast<int>(cfg.proposals.size()) != n) {
    throw std::invalid_argument(
        "pattern '" + pattern_name + "' assigned " +
        std::to_string(cfg.proposals.size()) + " proposals for n=" +
        std::to_string(n));
  }
  for (const Value v : cfg.proposals) {
    if (v < 0 || v >= domain_) {
      throw std::invalid_argument(
          "pattern '" + pattern_name + "' assigned proposal " +
          std::to_string(v) + " outside the domain [0, " +
          std::to_string(domain_) + ")");
    }
  }
  const int count = std::min(spec.count < 0 ? t : spec.count, t);
  for (int f = 0; f < count; ++f) {
    const ProcessId pid = n - 1 - f;
    Fault fault;  // negative spec fields keep the defaults
    fault.strategy = spec.strategy;
    fault.crash_time = spec.crash_time < 0 ? gst : spec.crash_time;
    fault.release_time = spec.release_time;
    fault.equivocal_value =
        spec.equivocal_value < 0
            ? (cfg.proposals[static_cast<std::size_t>(pid)] + 1) % domain_
            : spec.equivocal_value;
    if (spec.mutate_rate >= 0) {
      fault.mutate_rate = spec.mutate_rate;
    }
    fault.switch_time = spec.switch_time;
    if (spec.victims >= 0) fault.victims = spec.victims;
    if (spec.observe >= 0) fault.observe = spec.observe;
    cfg.faults[pid] = fault;
  }
  SweepPoint point;
  point.index = index;
  point.config = std::move(cfg);
  point.validity = validity;
  point.pattern = pattern_name;
  point.label = "vc=" + to_string(vc) + " val=" + to_string(validity) +
                " fault=" + spec.label(t) + " n=" + std::to_string(n) +
                " t=" + std::to_string(t) + " gst=" + fmt(gst) +
                " delta=" + fmt(delta) + " seed=" + std::to_string(seed);
  // A token axis surfaces in labels and the wire format only when the
  // matrix declares it non-trivially; a legacy matrix (every token axis
  // pinned to its single default) keeps the legacy bytes — the pinned
  // "full" document depends on this.
  for (const AxisSpec& axis : kAxes) {
    const std::size_t i = axis_index(axis.id);
    if (!tagged_[i]) continue;
    point.tags[i] = *chosen[i];
    point.label.append(" ").append(axis.label_key).append("=").append(
        point.tags[i]);
  }
  point.near_miss = near_miss_;
  return point;
}

std::vector<SweepPoint> ScenarioMatrix::build() const {
  check_dimensions();
  std::vector<SweepPoint> points;
  const std::size_t total = size();
  points.reserve(total);
  for (std::size_t i = 0; i < total; ++i) points.push_back(point_at(i));
  return points;
}

SweepOutcome run_point(const SweepPoint& point) {
  const auto start = std::chrono::steady_clock::now();
  SweepOutcome outcome;
  outcome.point = point;
  const auto stamp = [&outcome, start] {
    outcome.wall_micros = std::chrono::duration<double, std::micro>(
                              std::chrono::steady_clock::now() - start)
                              .count();
  };
  const ScenarioConfig& cfg = point.config;
  const auto validity = make_validity(point.validity, cfg.n, cfg.t);
  try {
    const auto lambda = core::make_lambda(*validity, cfg.n, cfg.t);
    outcome.result = run_universal(cfg, lambda);
  } catch (const std::exception& e) {
    outcome.error = e.what();
    outcome.decided = false;
    stamp();
    return outcome;
  }
  // One formal judgment for the three properties: check_execution builds
  // input_conf(E) from the correct proposals and returns the per-property
  // verdicts plus human-readable violation messages. The boolean flags are
  // derived from the report, so the wire format is unchanged while callers
  // (the adversary search above all) can tell a liveness miss from a
  // validity breach.
  std::set<ProcessId> faulty;
  for (const auto& [pid, fault] : cfg.faults) faulty.insert(pid);
  outcome.report = core::check_execution(*validity, cfg.n, cfg.t,
                                         cfg.proposals, faulty,
                                         outcome.result.decisions);
  outcome.decided = outcome.report.termination;
  outcome.agreement = outcome.report.agreement;
  outcome.validity_ok = outcome.report.validity;
  stamp();
  return outcome;
}

SweepRunner::SweepRunner(int jobs) : jobs_(jobs < 1 ? 1 : jobs) {}

std::vector<SweepOutcome> SweepRunner::run(
    const std::vector<SweepPoint>& points) const {
  std::vector<SweepOutcome> outcomes(points.size());
  std::atomic<std::size_t> next{0};
  const auto worker = [&points, &outcomes, &next] {
    for (std::size_t i = next.fetch_add(1); i < points.size();
         i = next.fetch_add(1)) {
      outcomes[i] = run_point(points[i]);
    }
  };
  if (jobs_ == 1 || points.size() <= 1) {
    worker();
    return outcomes;
  }
  std::vector<std::thread> pool;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), points.size());
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  return outcomes;
}

void SweepRunner::run_range(
    const ScenarioMatrix& matrix, std::size_t begin, std::size_t end,
    const std::function<void(SweepOutcome&&)>& on_outcome) const {
  if (begin > end || end > matrix.size()) {
    throw std::invalid_argument(
        "run_range [" + std::to_string(begin) + ", " + std::to_string(end) +
        ") is not a slice of the " + std::to_string(matrix.size()) +
        "-cell matrix");
  }
  if (begin == end) return;
  const std::size_t count = end - begin;
  if (jobs_ == 1 || count == 1) {
    for (std::size_t i = begin; i < end; ++i) {
      on_outcome(run_point(matrix.point_at(i)));
    }
    return;
  }

  // Workers claim indices from an atomic cursor and park finished outcomes
  // in `pending` until the emit cursor reaches them; a worker more than
  // `window` cells ahead of the emit cursor blocks, which is what bounds
  // memory to O(jobs) however uneven the per-cell runtimes are. The worker
  // holding the emit-cursor index never blocks (its index always satisfies
  // the window predicate), so the emit frontier always advances.
  std::mutex mu;
  std::condition_variable cv;
  std::map<std::size_t, SweepOutcome> pending;
  std::size_t next_emit = begin;
  std::atomic<std::size_t> next_claim{begin};
  std::exception_ptr failure;
  bool aborted = false;
  const std::size_t window = 16u * static_cast<std::size_t>(jobs_);

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next_claim.fetch_add(1);
      if (i >= end) return;
      SweepOutcome outcome;
      try {
        // point_at can throw (a custom pattern violating the domain
        // contract, say); an exception escaping a pool thread would
        // std::terminate the process, so it is captured and rethrown on
        // the caller's thread — the same loud failure jobs=1 produces.
        outcome = run_point(matrix.point_at(i));
      } catch (...) {
        const std::lock_guard<std::mutex> lock(mu);
        if (!failure) failure = std::current_exception();
        aborted = true;
        cv.notify_all();
        return;
      }
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return aborted || i < next_emit + window; });
      if (aborted) return;
      pending.emplace(i, std::move(outcome));
      try {
        while (!pending.empty() && pending.begin()->first == next_emit) {
          SweepOutcome ready = std::move(pending.begin()->second);
          pending.erase(pending.begin());
          ++next_emit;
          on_outcome(std::move(ready));
        }
      } catch (...) {
        failure = std::current_exception();
        aborted = true;
      }
      cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  const std::size_t workers =
      std::min<std::size_t>(static_cast<std::size_t>(jobs_), count);
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker);
  for (std::thread& thread : pool) thread.join();
  if (failure) std::rethrow_exception(failure);
}

SweepSummary SweepRunner::summarize(const std::vector<SweepOutcome>& outcomes,
                                    double wall_seconds) {
  SweepSummary summary;
  summary.total = outcomes.size();
  summary.wall_seconds = wall_seconds;
  double latency = 0, msgs = 0, words = 0;
  for (const SweepOutcome& o : outcomes) {
    if (!o.error.empty()) {
      ++summary.errors;
      continue;
    }
    if (o.decided) {
      ++summary.decided;
      latency += o.result.last_decision_time;
      msgs += static_cast<double>(o.result.message_complexity);
      words += static_cast<double>(o.result.word_complexity);
    }
    if (!o.agreement) ++summary.agreement_violations;
    if (!o.validity_ok) ++summary.validity_violations;
  }
  if (summary.decided > 0) {
    const auto d = static_cast<double>(summary.decided);
    summary.mean_latency = latency / d;
    summary.mean_message_complexity = msgs / d;
    summary.mean_word_complexity = words / d;
  }
  if (wall_seconds > 0) {
    summary.scenarios_per_second =
        static_cast<double>(summary.total) / wall_seconds;
  }
  return summary;
}

ScenarioMatrix named_matrix(const std::string& name) {
  const std::vector<VcKind> all_vcs{VcKind::kAuthenticated,
                                    VcKind::kNonAuthenticated, VcKind::kFast};
  // The four legacy FaultKind patterns (plus fault-free), in the historical
  // order: "full" built from these is the pinned determinism reference, so
  // neither the order nor the contents may change.
  const std::vector<FaultSpec> legacy_faults{
      FaultSpec{"silent", 0},  // fault-free
      FaultSpec{"silent"},
      FaultSpec{"crash"},
      FaultSpec{"equivocate"},
      FaultSpec{"delay"},
  };
  if (name == "smoke") {
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults(legacy_faults)
        .sizes({{4, 1}})
        .seeds({1, 2});
  }
  if (name == "full") {
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong, ValidityKind::kWeak,
                     ValidityKind::kMedian, ValidityKind::kConvexHull})
        .faults(legacy_faults)
        .sizes({{4, 1}, {7, 2}})
        .gsts({0.0, 5.0})
        .seeds({1, 2, 3});
  }
  if (name == "byzantine") {
    std::vector<FaultSpec> specs = legacy_faults;
    specs.push_back(FaultSpec{"mutate"});
    specs.push_back(FaultSpec{"equivocate-scheduled"});
    specs.push_back(FaultSpec{"adaptive"});
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults(std::move(specs))
        .sizes({{4, 1}})
        .gsts({0.0, 5.0})
        .seeds({1, 2});
  }
  if (name == "validity") {
    // The input-space coverage matrix: every validity property crossed
    // with every proposal pattern and every network profile over a
    // 2-value domain. CorrectProposal validity is the reason the domain is
    // 2: at n=4, t=1 an all-distinct 3-entry decision vector over a
    // 3-value domain has no (t+1)-multiplicity value (Λ undefined,
    // unsolvable), while over domain 2 the pigeonhole guarantees one — so
    // this matrix is where CorrectProposal demonstrably gets solved,
    // including under the maximally diverse "adversarial" pattern.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong, ValidityKind::kWeak,
                     ValidityKind::kCorrectProposal, ValidityKind::kMedian,
                     ValidityKind::kConvexHull})
        .patterns({"rotating", "unanimous", "split", "adversarial"})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"}})
        .sizes({{4, 1}})
        .network_profiles(
            {"uniform", "pre-gst-starve", "targeted-slow-links"})
        .gsts({0.0, 5.0})
        .proposal_domain(2)
        .seeds({1});
  }
  if (name == "certs") {
    // The cert_mode coverage matrix: both certificate backends over the
    // vote-heavy fault patterns. The cert axis is declared non-trivially,
    // so every cell carries the cert_mode wire field; test_qc pins this
    // matrix's job-count determinism.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"},
                 FaultSpec{"equivocate"}})
        .sizes({{4, 1}, {7, 2}})
        .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
        .seeds({1, 2});
  }
  if (name == "committee") {
    // The large-n topology matrix: committees of {4, 7, 10} inside systems
    // of {50, 100, 200} processes, both certificate backends, fault-free
    // and crash. Faults land on the highest ids (point_at's assignment
    // rule), i.e. on listeners — the committee itself stays correct, so
    // every cell must terminate cleanly. Unanimous proposals keep every
    // validity verdict trivially green whatever the committee decides.
    // The topology and cert axes are non-trivial, so every cell carries
    // the topology and cert_mode wire fields; test_topology pins this
    // matrix's job-count determinism.
    return ScenarioMatrix()
        .vc_kinds(all_vcs)
        .validities({ValidityKind::kStrong})
        .patterns({"unanimous"})
        .faults({FaultSpec{"silent", 0}, FaultSpec{"crash"}})
        .sizes({{50, 4}, {100, 8}, {200, 16}})
        .topologies({"committee-4", "committee-7", "committee-10"})
        .cert_modes({core::CertMode::kPerVote, core::CertMode::kAggregate})
        .seeds({1, 2});
  }
  throw std::invalid_argument("unknown matrix '" + name +
                              "' (expected: smoke, full, byzantine,"
                              " validity, certs, committee)");
}

}  // namespace valcon::harness
