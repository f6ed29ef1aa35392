#include "valcon/harness/search.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <initializer_list>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "valcon/harness/sweep_io.hpp"
#include "valcon/sim/rng.hpp"

namespace valcon::harness {

Verdict classify(const SweepOutcome& outcome) {
  if (!outcome.error.empty()) return Verdict::kError;
  if (!outcome.agreement) return Verdict::kAgreement;
  if (!outcome.validity_ok) return Verdict::kValidity;
  if (!outcome.decided) return Verdict::kTermination;
  return Verdict::kClean;
}

namespace {

/// Round-trippable wire tokens: one table per enum serves both directions.
template <typename E>
using Tokens = std::initializer_list<std::pair<E, const char*>>;

const Tokens<Verdict> kVerdictTokens{{Verdict::kClean, "clean"},
                                     {Verdict::kTermination, "termination"},
                                     {Verdict::kAgreement, "agreement"},
                                     {Verdict::kValidity, "validity"},
                                     {Verdict::kError, "error"}};
const Tokens<VcKind> kVcTokens{{VcKind::kAuthenticated, "auth"},
                               {VcKind::kNonAuthenticated, "nonauth"},
                               {VcKind::kFast, "fast"}};
const Tokens<ValidityKind> kValidityTokens{
    {ValidityKind::kStrong, "strong"},
    {ValidityKind::kWeak, "weak"},
    {ValidityKind::kCorrectProposal, "correct-proposal"},
    {ValidityKind::kMedian, "median"},
    {ValidityKind::kConvexHull, "convex-hull"}};

template <typename E>
std::string token_of(const Tokens<E>& tokens, E value) {
  for (const auto& [v, token] : tokens) {
    if (v == value) return token;
  }
  return "?";
}

template <typename E>
std::optional<E> value_of(const Tokens<E>& tokens, const std::string& token) {
  for (const auto& [v, t] : tokens) {
    if (token == t) return v;
  }
  return std::nullopt;
}

}  // namespace

std::string verdict_token(Verdict v) { return token_of(kVerdictTokens, v); }
std::optional<Verdict> verdict_from_token(const std::string& token) {
  return value_of(kVerdictTokens, token);
}
std::string vc_token(VcKind vc) { return token_of(kVcTokens, vc); }
std::optional<VcKind> vc_from_token(const std::string& token) {
  return value_of(kVcTokens, token);
}
std::string validity_token(ValidityKind kind) {
  return token_of(kValidityTokens, kind);
}
std::optional<ValidityKind> validity_from_token(const std::string& token) {
  return value_of(kValidityTokens, token);
}

namespace {

/// The table axes' members, indexed by axis_index() (enum order).
constexpr std::array<std::string Candidate::*, kAxisCount> kCandidateAxes{
    &Candidate::strategy, &Candidate::pattern, &Candidate::net_profile,
    &Candidate::cert, &Candidate::topology};
constexpr std::array<std::vector<std::string> SearchSpace::*, kAxisCount>
    kSpaceAxes{&SearchSpace::strategies, &SearchSpace::patterns,
               &SearchSpace::net_profiles, &SearchSpace::cert_modes,
               &SearchSpace::topologies};

/// True when the cell formats carry `axis` for `c`: always for ungated
/// axes, only off the default for AxisSpec::cell_gated ones — which keeps
/// every legacy corpus cell's bytes, key and file name unchanged.
bool carried(const Candidate& c, const AxisSpec& axis) {
  return !axis.cell_gated || c.at(axis.id) != axis.default_token;
}

}  // namespace

std::string& Candidate::at(Axis axis) {
  return this->*kCandidateAxes[axis_index(axis)];
}
const std::string& Candidate::at(Axis axis) const {
  return this->*kCandidateAxes[axis_index(axis)];
}
std::vector<std::string>& SearchSpace::pool(Axis axis) {
  return this->*kSpaceAxes[axis_index(axis)];
}
const std::vector<std::string>& SearchSpace::pool(Axis axis) const {
  return this->*kSpaceAxes[axis_index(axis)];
}

std::string Candidate::key() const {
  std::ostringstream os;
  os << strategy << '/' << fault_count << '/' << vc_token(vc) << '/'
     << validity_token(validity) << '/' << pattern << '/' << net_profile
     << '/' << n << '/' << t << '/' << io::json_number(gst) << '/'
     << io::json_number(delta) << '/' << domain << '/' << victims << '/'
     << observe << '/';
  for (const AxisSpec& axis : kAxes) {
    if (axis.cell_gated && carried(*this, axis)) os << at(axis.id) << '/';
  }
  os << seed;
  return os.str();
}

SweepPoint candidate_point(const Candidate& c) {
  FaultSpec spec;
  if (c.strategy == "none") {
    spec.strategy = "silent";
    spec.count = 0;
  } else {
    spec.strategy = c.strategy;
    spec.count = c.fault_count;
  }
  spec.victims = c.victims;
  spec.observe = c.observe;
  ScenarioMatrix matrix;
  for (const AxisSpec& axis : kAxes) {
    // The strategy axis is the fault spec above.
    if (axis.id != Axis::kStrategy) matrix.values(axis.id, {c.at(axis.id)});
  }
  return matrix.vc_kinds({c.vc})
      .validities({c.validity})
      .faults({spec})
      .sizes({{c.n, c.t}})
      .gsts({c.gst})
      .deltas({c.delta})
      .seeds({c.seed})
      .proposal_domain(c.domain)
      .record_near_miss(true)
      // Bounded liveness cutoff: a non-terminating candidate (the search's
      // whole point) re-arms view timers forever, so the 1e9 default would
      // grind for hours of wall-clock. 200 * delta past GST is >10x the
      // worst decision latency ever observed in the pinned full matrix
      // (~16 * delta) and a pure function of the candidate, so replay sees
      // the exact same cutoff.
      .horizon(c.gst + 200.0 * c.delta)
      .point_at(0);
}

SweepOutcome evaluate(const Candidate& c) {
  return run_point(candidate_point(c));
}

double near_miss_score(const SweepOutcome& outcome) {
  if (!outcome.error.empty()) return 0.0;
  const RunResult& r = outcome.result;
  double score = 0.0;
  // A QC won by a sliver: one flipped vote from certifying a rival digest.
  if (r.min_vote_margin >= 0) {
    score += 10.0 / (1.0 + static_cast<double>(r.min_vote_margin));
  }
  // Conflicting proposals reached the voting stage at all.
  if (r.conflicting_votes > 0) {
    score += 5.0 + std::log2(static_cast<double>(r.conflicting_votes) + 1.0);
  }
  // The run was cut with traffic still in flight, not quiescent.
  if (!r.queue_drained) score += 2.0;
  // Little slack between the end of the run and the grace cutoff: the last
  // decision barely beat the window.
  if (r.grace_cutoff >= 0.0) {
    const double slack = std::max(0.0, r.grace_cutoff - r.end_time);
    score += 3.0 / (1.0 + slack);
  }
  return score;
}

namespace {

template <typename T>
const T& pick(sim::Rng& rng, const std::vector<T>& pool) {
  return pool[static_cast<std::size_t>(rng.next_below(pool.size()))];
}

std::uint64_t sample_seed(sim::Rng& rng) {
  // Small seeds keep shrunk cells readable and give seed re-derivation a
  // realistic chance; the space is still far larger than any budget.
  return 1 + rng.next_below(1u << 16);
}

/// Redraws one gene of `c` from its pool. The gene numbers are pinned,
/// like kSampleOrder: mutate() redraws genes by number, and every search
/// report depends on both.
void redraw(sim::Rng& rng, const SearchSpace& space, Candidate& c, int gene) {
  // Small knob pools for the fault parameters the colluding/adaptive
  // strategies consume (-1 = the Fault default).
  static const std::vector<int> kVictims{-1, 1, 2, 3};
  static const std::vector<int> kObserve{-1, 1, 4, 8, 16, 32};
  const auto draw = [&](Axis axis) {
    c.at(axis) = pick(rng, space.pool(axis));
  };
  switch (gene) {
    case 0: draw(Axis::kStrategy); break;
    case 1: c.vc = pick(rng, space.vcs); break;
    case 2: c.validity = pick(rng, space.validities); break;
    case 3: draw(Axis::kPattern); break;
    case 4: draw(Axis::kNetProfile); break;
    case 5: {
      const auto [n, t] = pick(rng, space.sizes);
      c.n = n;
      c.t = t;
      if (c.fault_count > t) c.fault_count = -1;
      break;
    }
    case 6: c.gst = pick(rng, space.gsts); break;
    case 7: c.delta = pick(rng, space.deltas); break;
    case 8: c.domain = pick(rng, space.domains); break;
    case 9:
      c.fault_count =
          c.t > 0 ? static_cast<int>(1 + rng.next_below(
                        static_cast<std::uint64_t>(c.t)))
                  : 0;
      break;
    case 10:
      c.victims = pick(rng, kVictims);
      c.observe = pick(rng, kObserve);
      break;
    case 11: draw(Axis::kCertMode); break;
    case 12: draw(Axis::kTopology); break;
    default: c.seed = sample_seed(rng); break;
  }
}

/// The genes a fresh candidate draws, in draw order. The fault count and
/// knobs keep their defaults (all t faulty; shrinking minimizes later).
constexpr std::array<int, 12> kSampleOrder{
    0, 1, 2, 3, 4, 5, 6, 7, 8, 11, 12, 13};

Candidate sample(sim::Rng& rng, const SearchSpace& space) {
  Candidate c;
  for (const int gene : kSampleOrder) redraw(rng, space, c, gene);
  return c;
}

Candidate mutate(sim::Rng& rng, const SearchSpace& space, Candidate c) {
  const int tweaks = 1 + static_cast<int>(rng.next_below(2));
  for (int i = 0; i < tweaks; ++i) {
    redraw(rng, space, c, static_cast<int>(rng.next_below(14)));
  }
  return c;
}

void require_nonempty(bool ok, const char* axis) {
  if (!ok) {
    throw std::invalid_argument(std::string("search space: empty ") + axis +
                                " pool");
  }
}

void check_options(const SearchOptions& options) {
  const SearchSpace& s = options.space;
  for (const AxisSpec& axis : kAxes) {
    require_nonempty(!s.pool(axis.id).empty(), axis.name);
  }
  require_nonempty(!s.vcs.empty(), "vc");
  require_nonempty(!s.validities.empty(), "validity");
  require_nonempty(!s.sizes.empty(), "size");
  require_nonempty(!s.gsts.empty(), "gst");
  require_nonempty(!s.deltas.empty(), "delta");
  require_nonempty(!s.domains.empty(), "domain");
  if (options.budget <= 0) {
    throw std::invalid_argument("search budget must be positive");
  }
  if (options.population <= 0) {
    throw std::invalid_argument("search population must be positive");
  }
}

// ---------------------------------------------------------------- shrinking

/// The pool's values strictly below `current`, ascending and distinct:
/// the simpler candidates of one shrink pass ((n, t) pairs order by n,
/// then t).
template <typename T>
std::vector<T> below(const std::vector<T>& pool, const T& current) {
  std::vector<T> out;
  for (const T& v : pool) {
    if (v < current) out.push_back(v);
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Counterexample shrink(const Candidate& c, Verdict verdict,
                      const SearchOptions& options) {
  int probes = 0;
  const auto reproduces = [&probes, &options, verdict](const Candidate& cand) {
    if (probes >= options.max_shrink_probes) return false;
    ++probes;
    return classify(evaluate(cand)) == verdict;
  };

  Candidate cur = c;
  // Canonical fault_count: candidate_point clamps counts to t, so any
  // count >= t names the same cell as -1 ("all t faulty"). Normalizing to
  // -1 costs no probe and makes equal cells share a key (dedup) and a
  // corpus file name.
  if (cur.strategy != "none" && cur.fault_count >= cur.t) {
    cur.fault_count = -1;
  }
  const SearchSpace& space = options.space;
  // Axis passes to a fixpoint. Each pass tries strictly simpler values for
  // one axis (simplest first) and accepts the first that preserves the
  // verdict; the identity axes (strategy, stack, property) are never
  // touched — they name WHAT broke, not how hard the cell is to read. The
  // pass order is pinned by the shrunk corpus cells.
  bool changed = true;
  // Keeps `next` when it still reproduces the verdict.
  const auto accept = [&](const Candidate& next) {
    if (!reproduces(next)) return false;
    cur = next;
    changed = true;
    return true;
  };
  // One pass: the first of `values` (simplest first) that reproduces once
  // `set` writes it into the current cell.
  const auto first_of = [&](const auto& values, const auto& set) {
    for (const auto& value : values) {
      Candidate next = cur;
      set(next, value);
      if (accept(next)) return;
    }
  };
  // A table axis's pass: its default token is the simpler cell. A
  // violation that survives on the default per-vote backend is not about
  // the QC layer at all, one that survives on the full mesh is not about
  // the committee announce/relay layer, and so on.
  const auto toward_default = [&](Axis axis) {
    const char* simplest = axis_spec(axis).default_token;
    if (cur.at(axis) == simplest) return;
    Candidate next = cur;
    next.at(axis) = simplest;
    accept(next);
  };
  while (changed && probes < options.max_shrink_probes) {
    changed = false;
    first_of(below(space.sizes, std::make_pair(cur.n, cur.t)),
             [](Candidate& next, const std::pair<int, int>& size) {
               next.n = size.first;
               next.t = size.second;
               // >= keeps the count canonical (see entry): a count equal
               // to the new t is the same cell as -1.
               if (next.fault_count >= size.second) next.fault_count = -1;
             });
    const int resolved =
        cur.fault_count < 0 ? cur.t : std::min(cur.fault_count, cur.t);
    for (int k = 1; k < resolved; ++k) {
      Candidate next = cur;
      next.fault_count = k;
      if (accept(next)) break;
    }
    toward_default(Axis::kPattern);
    toward_default(Axis::kNetProfile);
    first_of(below(space.gsts, cur.gst),
             [](Candidate& next, Time gst) { next.gst = gst; });
    first_of(below(space.deltas, cur.delta),
             [](Candidate& next, Time delta) { next.delta = delta; });
    first_of(below(space.domains, cur.domain),
             [](Candidate& next, Value domain) { next.domain = domain; });
    if (cur.victims != -1 || cur.observe != -1) {
      Candidate next = cur;
      next.victims = -1;
      next.observe = -1;
      accept(next);
    }
    toward_default(Axis::kCertMode);
    toward_default(Axis::kTopology);
  }
  // Seed re-derivation: the smallest seed in [1, seed_tries] below the
  // found one that still reproduces. Ascending order + first-accept keeps
  // this idempotent: once replaced, no smaller reproducing seed exists.
  for (std::uint64_t s = 1;
       s <= static_cast<std::uint64_t>(std::max(options.seed_tries, 0)) &&
       s < cur.seed && probes < options.max_shrink_probes;
       ++s) {
    Candidate next = cur;
    next.seed = s;
    if (reproduces(next)) {
      cur = next;
      break;
    }
  }

  Counterexample cx;
  cx.candidate = cur;
  cx.verdict = verdict;
  cx.outcome = evaluate(cur);
  cx.shrink_probes = probes;
  return cx;
}

SearchReport run_search(const SearchOptions& options) {
  check_options(options);
  sim::Rng rng(options.search_seed);

  SearchReport report;
  report.search_seed = options.search_seed;
  report.budget = options.budget;

  const SweepRunner runner(options.jobs);
  // The archive of the best clean candidates seen so far, the breeding
  // stock for the next generation. Scoring, ordering and mutation all run
  // on this thread, so the whole loop is independent of the job count
  // (the sweep pool returns input-ordered outcomes).
  std::vector<std::pair<double, Candidate>> archive;
  std::vector<std::pair<Candidate, Verdict>> violations;
  std::set<std::string> seen;

  std::vector<Candidate> generation;
  generation.reserve(static_cast<std::size_t>(options.population));
  for (int i = 0; i < options.population; ++i) {
    generation.push_back(sample(rng, options.space));
  }

  while (report.evaluated < static_cast<std::uint64_t>(options.budget)) {
    const auto room =
        static_cast<std::uint64_t>(options.budget) - report.evaluated;
    if (generation.size() > room) {
      generation.resize(static_cast<std::size_t>(room));
    }
    std::vector<SweepPoint> points;
    points.reserve(generation.size());
    for (const Candidate& c : generation) points.push_back(candidate_point(c));
    const std::vector<SweepOutcome> outcomes = runner.run(points);
    report.evaluated += outcomes.size();

    for (std::size_t i = 0; i < outcomes.size(); ++i) {
      const Verdict v = classify(outcomes[i]);
      if (v == Verdict::kError) {
        ++report.errors;
        continue;
      }
      if (v != Verdict::kClean) {
        if (seen.insert(generation[i].key()).second) {
          violations.emplace_back(generation[i], v);
        }
        continue;
      }
      const double score = near_miss_score(outcomes[i]);
      archive.emplace_back(score, generation[i]);
      if (!report.best_candidate.has_value() || score > report.best_score) {
        report.best_score = score;
        report.best_candidate = generation[i];
      }
    }
    // Highest scores first; stable, so earlier discoveries win ties.
    std::stable_sort(archive.begin(), archive.end(),
                     [](const auto& a, const auto& b) {
                       return a.first > b.first;
                     });
    if (archive.size() > static_cast<std::size_t>(options.population)) {
      archive.resize(static_cast<std::size_t>(options.population));
    }

    generation.clear();
    for (int i = 0; i < options.population; ++i) {
      if (archive.empty() || rng.next_below(4) == 0) {
        // Fresh blood: a quarter of each generation explores from scratch.
        generation.push_back(sample(rng, options.space));
      } else {
        const std::size_t parent =
            static_cast<std::size_t>(i) % archive.size();
        generation.push_back(mutate(rng, options.space,
                                    archive[parent].second));
      }
    }
  }

  std::set<std::string> emitted;
  for (const auto& [candidate, verdict] : violations) {
    Counterexample cx;
    if (options.shrink) {
      cx = shrink(candidate, verdict, options);
    } else {
      cx.candidate = candidate;
      cx.verdict = verdict;
      cx.outcome = evaluate(candidate);
    }
    if (emitted.insert(cx.candidate.key()).second) {
      report.counterexamples.push_back(std::move(cx));
    }
  }
  return report;
}

// -------------------------------------------------------------- wire format

namespace {

/// The candidate's axis fields as JSON members (no braces), shared by the
/// cell format and the report's best-near-miss block.
void candidate_fields(std::ostream& os, const Candidate& c) {
  os << "\"vc\": \"" << vc_token(c.vc) << "\", "
     << "\"validity\": \"" << validity_token(c.validity) << "\", "
     << "\"strategy\": \"" << io::json_escape(c.strategy) << "\", "
     << "\"fault_count\": " << c.fault_count << ", "
     << "\"pattern\": \"" << io::json_escape(c.pattern) << "\", "
     << "\"net_profile\": \"" << io::json_escape(c.net_profile) << "\", "
     << "\"n\": " << c.n << ", \"t\": " << c.t << ", "
     << "\"gst\": " << io::json_number(c.gst) << ", "
     << "\"delta\": " << io::json_number(c.delta) << ", "
     << "\"domain\": " << c.domain << ", "
     << "\"victims\": " << c.victims << ", "
     << "\"observe\": " << c.observe << ", ";
  for (const AxisSpec& axis : kAxes) {
    if (axis.cell_gated && carried(c, axis)) {
      os << "\"" << axis.line_field << "\": \""
         << io::json_escape(c.at(axis.id)) << "\", ";
    }
  }
  os << "\"seed\": " << c.seed;
}

void cell_object(std::ostream& os, const Counterexample& cx) {
  os << "{\"schema\": \"valcon-counterexample-v1\", "
     << "\"verdict\": \"" << verdict_token(cx.verdict) << "\", ";
  candidate_fields(os, cx.candidate);
  os << ", \"expect\": {\"decided\": "
     << (cx.outcome.decided ? "true" : "false")
     << ", \"agreement\": " << (cx.outcome.agreement ? "true" : "false")
     << ", \"validity_ok\": " << (cx.outcome.validity_ok ? "true" : "false")
     << "}}";
}

// Strict wrappers over the io:: key-scan readers: a cell is machine
// written, so a missing or malformed field is a malformed cell.

[[noreturn]] void bad_cell(const std::string& what) {
  throw std::runtime_error("malformed counterexample cell: " + what);
}

std::string string_field(const std::string& json, const std::string& key) {
  auto v = io::string_field(json, key);
  if (!v.has_value()) bad_cell("missing string field '" + key + "'");
  return std::move(*v);
}

double number_field(const std::string& json, const std::string& key) {
  const auto v = io::number_field(json, key);
  if (!v.has_value()) bad_cell("missing number field '" + key + "'");
  return *v;
}

int int_field(const std::string& json, const std::string& key) {
  const double v = number_field(json, key);
  const int i = static_cast<int>(v);
  if (static_cast<double>(i) != v) bad_cell("non-integer field '" + key + "'");
  return i;
}

bool bool_field(const std::string& json, const std::string& key) {
  const auto v = io::bool_field(json, key);
  if (!v.has_value()) bad_cell("missing bool field '" + key + "'");
  return *v;
}

}  // namespace

std::string cell_json(const Counterexample& cx) {
  std::ostringstream os;
  cell_object(os, cx);
  os << "\n";
  return os.str();
}

CorpusCell parse_cell(const std::string& json) {
  if (string_field(json, "schema") != "valcon-counterexample-v1") {
    bad_cell("unknown schema");
  }
  CorpusCell cell;
  const auto verdict = verdict_from_token(string_field(json, "verdict"));
  if (!verdict.has_value()) bad_cell("unknown verdict token");
  cell.verdict = *verdict;
  Candidate& c = cell.candidate;
  const auto vc = vc_from_token(string_field(json, "vc"));
  if (!vc.has_value()) bad_cell("unknown vc token");
  c.vc = *vc;
  const auto validity = validity_from_token(string_field(json, "validity"));
  if (!validity.has_value()) bad_cell("unknown validity token");
  c.validity = *validity;
  c.fault_count = int_field(json, "fault_count");
  c.n = int_field(json, "n");
  c.t = int_field(json, "t");
  c.gst = number_field(json, "gst");
  c.delta = number_field(json, "delta");
  c.domain = int_field(json, "domain");
  c.victims = int_field(json, "victims");
  c.observe = int_field(json, "observe");
  for (const AxisSpec& axis : kAxes) {
    auto token = io::string_field(json, axis.line_field);
    if (!token.has_value()) {
      // Strictness exception: a gated axis is absent at its default.
      if (axis.cell_gated) continue;
      bad_cell(std::string("missing string field '") + axis.line_field + "'");
    }
    try {
      axis.check(*token);  // a corpus cell must always replay
    } catch (const std::invalid_argument& e) {
      bad_cell(e.what());
    }
    c.at(axis.id) = std::move(*token);
  }
  const double seed = number_field(json, "seed");
  if (seed < 0 || static_cast<double>(static_cast<std::uint64_t>(seed)) !=
                      seed) {
    bad_cell("non-integer seed");
  }
  c.seed = static_cast<std::uint64_t>(seed);
  cell.expect_decided = bool_field(json, "decided");
  cell.expect_agreement = bool_field(json, "agreement");
  cell.expect_validity_ok = bool_field(json, "validity_ok");
  return cell;
}

std::string cell_filename(const Counterexample& cx) {
  const Candidate& c = cx.candidate;
  std::ostringstream os;
  os << verdict_token(cx.verdict) << "-" << vc_token(c.vc) << "-"
     << c.strategy;
  for (const AxisSpec& axis : kAxes) {
    if (axis.cell_gated && carried(c, axis)) os << "-" << c.at(axis.id);
  }
  os << "-n" << c.n << "t" << c.t << "-s" << c.seed << ".json";
  return os.str();
}

std::string report_json(const SearchReport& report) {
  std::ostringstream os;
  os << "{\n  \"schema\": \"valcon-search-report-v1\",\n"
     << "  \"search_seed\": " << report.search_seed << ",\n"
     << "  \"budget\": " << report.budget << ",\n"
     << "  \"evaluated\": " << report.evaluated << ",\n"
     << "  \"errors\": " << report.errors << ",\n"
     << "  \"counterexamples\": [\n";
  for (std::size_t i = 0; i < report.counterexamples.size(); ++i) {
    os << "    ";
    cell_object(os, report.counterexamples[i]);
    os << (i + 1 < report.counterexamples.size() ? ",\n" : "\n");
  }
  os << "  ],\n  \"best_near_miss\": ";
  if (report.best_candidate.has_value()) {
    os << "{\"score\": " << io::json_number(report.best_score) << ", ";
    candidate_fields(os, *report.best_candidate);
    os << "}";
  } else {
    os << "null";
  }
  os << "\n}\n";
  return os.str();
}

}  // namespace valcon::harness
