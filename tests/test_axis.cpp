// The axis table's shared contract, checked once per entry: every token
// the axis knows round-trips through a cell, the wire gate keeps
// default-only matrices byte-silent, keep() fails loudly, and the
// checkpoint field round-trips (a file predating the axis resumes as
// unfiltered). Adding an axis means adding one AxisCase below.
#include <gtest/gtest.h>

#include <functional>
#include <ostream>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "valcon/core/quorum.hpp"
#include "valcon/harness/axis.hpp"
#include "valcon/harness/search.hpp"
#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::harness;

namespace {

struct AxisCase {
  Axis axis;
  /// Tokens the axis knows, the default first; tokens[1] is swept by
  /// wide() and kept by the filter check.
  std::vector<std::string> tokens;
  /// Names keep() and AxisSpec::check must reject as unknown.
  std::vector<std::string> unknown;
  /// A known token the "smoke" matrix does not sweep.
  std::string absent;
  /// A matrix that declares the axis non-trivially.
  std::function<ScenarioMatrix()> wide;
  /// The value a resolved cell's config holds on this axis.
  std::function<std::string(const SweepPoint&)> resolved;
};

// Names the case in test listings (gtest would otherwise dump its bytes).
void PrintTo(const AxisCase& c, std::ostream* os) {
  *os << axis_spec(c.axis).checkpoint_field;
}

std::string resolved_strategy(const SweepPoint& p) {
  return p.config.faults.empty() ? "none"
                                 : p.config.faults.begin()->second.strategy;
}

std::vector<AxisCase> cases() {
  return {
      {Axis::kStrategy,
       {"silent", "crash", "none", "collude-equivocate"},
       {"bogus", ""},
       "equivocate-scheduled",
       [] { return named_matrix("byzantine"); },
       resolved_strategy},
      {Axis::kPattern,
       {"rotating", "unanimous", "split", "adversarial"},
       {"bogus"},
       "unanimous",
       [] { return named_matrix("validity"); },
       [](const SweepPoint& p) { return p.pattern; }},
      {Axis::kNetProfile,
       {"uniform", "pre-gst-starve", "targeted-slow-links", "sampled-overlay"},
       {"bogus"},
       "pre-gst-starve",
       [] { return named_matrix("validity"); },
       [](const SweepPoint& p) { return p.config.net_profile.name; }},
      {Axis::kCertMode,
       {"per-vote", "aggregate"},
       {"bogus", "Aggregate"},
       "aggregate",
       [] { return named_matrix("certs"); },
       [](const SweepPoint& p) {
         return core::cert_mode_token(p.config.cert_mode);
       }},
      {Axis::kTopology,
       {"full-mesh", "committee-4", "committee-10"},
       {"committee-nope", "committee-0", "ring"},
       "committee-4",
       [] {
         return named_matrix("smoke").topologies({"full-mesh", "committee-4"});
       },
       [](const SweepPoint& p) { return p.config.topology.name; }},
  };
}

class AxisContract : public ::testing::TestWithParam<AxisCase> {
 protected:
  [[nodiscard]] const AxisSpec& spec() const {
    return axis_spec(GetParam().axis);
  }
};

TEST(AxisTable, IsIndexedByAxisAndFlagsAreUnique) {
  std::set<std::string> flags;
  std::set<std::string> fields;
  for (std::size_t i = 0; i < kAxisCount; ++i) {
    EXPECT_EQ(axis_index(kAxes[i].id), i);
    EXPECT_EQ(axis_for_flag(kAxes[i].flag), &kAxes[i]);
    flags.insert(kAxes[i].flag);
    fields.insert(kAxes[i].checkpoint_field);
  }
  EXPECT_EQ(flags.size(), kAxisCount);
  EXPECT_EQ(fields.size(), kAxisCount);
  EXPECT_EQ(axis_for_flag("--jobs"), nullptr);
  EXPECT_EQ(cases().size(), kAxisCount) << "every axis needs an AxisCase";
}

TEST_P(AxisContract, TokensRoundTripThroughCellsAndCandidates) {
  const AxisCase& c = GetParam();
  ASSERT_GE(c.tokens.size(), 2u);
  EXPECT_EQ(c.tokens[0], spec().default_token);
  EXPECT_EQ(Candidate().at(c.axis), spec().default_token);
  for (const std::string& name : c.unknown) {
    EXPECT_THROW(spec().check(name), std::invalid_argument) << name;
  }
  for (const std::string& token : c.tokens) {
    SCOPED_TRACE(token);
    EXPECT_NO_THROW(spec().check(token));
    Candidate cand;
    cand.n = 10;  // room for every committee the cases name
    cand.t = 3;
    cand.at(c.axis) = token;
    EXPECT_EQ(c.resolved(candidate_point(cand)), token);

    Counterexample cx;
    cx.candidate = cand;
    const std::string cell = cell_json(cx);
    EXPECT_EQ(parse_cell(cell).candidate, cand) << cell;
    // A gated axis at its default is absent from every candidate format,
    // so legacy corpus cells keep their bytes, keys and file names.
    const bool carried = !spec().cell_gated || token != spec().default_token;
    EXPECT_EQ(("/" + cand.key()).find("/" + token + "/") != std::string::npos,
              carried)
        << cand.key();
    if (spec().cell_gated) {
      EXPECT_EQ(cell.find(std::string("\"") + spec().line_field + "\"") !=
                    std::string::npos,
                carried)
          << cell;
      EXPECT_EQ(cell_filename(cx).find("-" + token + "-") != std::string::npos,
                carried)
          << cell_filename(cx);
    }
  }
}

TEST_P(AxisContract, WireGateKeepsDefaultOnlyMatricesSilent) {
  const AxisSpec& axis = spec();
  const auto line_of = [](const SweepPoint& p) {
    SweepOutcome o;
    o.point = p;
    return io::outcome_line(o);
  };
  const ScenarioMatrix legacy = named_matrix("smoke");
  for (std::size_t i = 0; i < legacy.size(); ++i) {
    const SweepPoint p = legacy.point_at(i);
    EXPECT_TRUE(p.tag(axis.id).empty()) << p.label;
    if (axis.label_key == nullptr) continue;
    EXPECT_EQ(p.label.find(std::string(" ") + axis.label_key + "="),
              std::string::npos)
        << p.label;
    EXPECT_EQ(line_of(p).find(std::string("\"") + axis.line_field + "\""),
              std::string::npos);
  }

  const ScenarioMatrix wide = GetParam().wide();
  std::set<std::string> seen;
  for (std::size_t i = 0; i < wide.size(); ++i) {
    const SweepPoint p = wide.point_at(i);
    const std::string& tag = p.tag(axis.id);
    if (axis.label_key == nullptr) {
      // No wire gate: the axis shows through its own fields (for the
      // strategy axis, "fault=" and the faults array).
      EXPECT_TRUE(tag.empty()) << p.label;
      continue;
    }
    EXPECT_EQ(tag, GetParam().resolved(p)) << p.label;
    EXPECT_NE(p.label.find(std::string(" ") + axis.label_key + "=" + tag),
              std::string::npos)
        << p.label;
    EXPECT_NE(line_of(p).find(std::string("\"") + axis.line_field +
                              "\": \"" + tag + "\""),
              std::string::npos)
        << line_of(p);
    seen.insert(tag);
  }
  if (axis.label_key != nullptr) {
    EXPECT_GE(seen.size(), 2u) << "wide() must sweep the axis";
  }
}

TEST_P(AxisContract, KeepNarrowsAndFailsLoudly) {
  const AxisCase& c = GetParam();
  const ScenarioMatrix wide = c.wide();
  ScenarioMatrix kept = wide;
  kept.keep(c.axis, {c.tokens[1]});
  std::size_t selected = 0;  // the cells of `wide` the filter must keep
  for (std::size_t i = 0; i < wide.size(); ++i) {
    if (c.resolved(wide.point_at(i)) == c.tokens[1]) ++selected;
  }
  ASSERT_GT(selected, 0u);
  EXPECT_LT(selected, wide.size());
  EXPECT_EQ(kept.size(), selected);
  for (const SweepPoint& p : kept.build()) {
    EXPECT_EQ(c.resolved(p), c.tokens[1]) << p.label;
  }

  // An empty list would shrink the matrix to zero cells — a sweep that
  // runs nothing and exits green (e.g. `--patterns ,` splitting to {}).
  EXPECT_THROW(c.wide().keep(c.axis, {}), std::invalid_argument);
  for (const std::string& name : c.unknown) {
    EXPECT_THROW(c.wide().keep(c.axis, {name}), std::invalid_argument)
        << name;
  }
  // Known, but not swept by the matrix: must not silently produce an
  // empty (or unfiltered) sweep — not even beside a name that matches.
  EXPECT_NO_THROW(named_matrix("smoke").keep(c.axis, {c.tokens[0]}));
  EXPECT_THROW(named_matrix("smoke").keep(c.axis, {c.absent}),
               std::invalid_argument);
  EXPECT_THROW(named_matrix("smoke").keep(c.axis, {c.tokens[0], c.absent}),
               std::invalid_argument);
}

TEST_P(AxisContract, CheckpointFieldRoundTripsAndMayBeAbsent) {
  const AxisSpec& axis = spec();
  io::Checkpoint cp;
  cp.matrix = "full";
  cp.filter(axis.id) = GetParam().tokens[1] + "," + GetParam().tokens[0];
  cp.total = 720;
  cp.end = 720;
  cp.next = 100;
  const std::string json = cp.to_json();
  const io::Checkpoint back = io::Checkpoint::parse(json);
  EXPECT_EQ(back.filters, cp.filters);
  EXPECT_TRUE(back.same_work(cp));
  io::Checkpoint other = cp;
  other.filter(axis.id) = GetParam().tokens[1];
  EXPECT_FALSE(other.same_work(cp));

  // A checkpoint written before the axis existed lacks its field.
  std::string legacy = json;
  const std::string field = std::string(", \"") + axis.checkpoint_field +
                            "\": \"" + cp.filter(axis.id) + "\"";
  const auto at = legacy.find(field);
  ASSERT_NE(at, std::string::npos) << legacy;
  legacy.erase(at, field.size());
  if (!axis.checkpoint_optional) {
    EXPECT_THROW(static_cast<void>(io::Checkpoint::parse(legacy)),
                 std::runtime_error);
    return;
  }
  // It resumes as "no filter" rather than failing or mismatching its own
  // work.
  const io::Checkpoint old = io::Checkpoint::parse(legacy);
  EXPECT_EQ(old.filter(axis.id), "");
  EXPECT_EQ(old.next, 100u);
  io::Checkpoint fresh;
  fresh.matrix = "full";
  fresh.total = 720;
  fresh.end = 720;
  EXPECT_TRUE(fresh.same_work(old));

  // The oldest format carries only the strategies filter.
  const io::Checkpoint oldest = io::Checkpoint::parse(
      "{\"matrix\": \"full\", \"strategies\": \"\", \"shard_index\": 0, "
      "\"shard_count\": 1, \"total\": 720, \"begin\": 0, \"end\": 720, "
      "\"next\": 100, \"sidecar_bytes\": 12345}\n");
  EXPECT_EQ(oldest.filter(axis.id), "");
  EXPECT_TRUE(fresh.same_work(oldest));
}

INSTANTIATE_TEST_SUITE_P(
    Table, AxisContract, ::testing::ValuesIn(cases()),
    [](const ::testing::TestParamInfo<AxisCase>& param) {
      return std::string(axis_spec(param.param.axis).checkpoint_field);
    });

}  // namespace
