// Sharding, checkpointing and the sweep JSON wire format
// (harness/sweep_io.hpp): escaping of control characters, strict CLI
// parsers, balanced shard ranges, outcome-line round-trips, checkpoint
// persistence (including torn-sidecar recovery) and the merge-tool
// verification that shards are disjoint and exhaustive.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "valcon/harness/sweep.hpp"
#include "valcon/harness/sweep_io.hpp"

using namespace valcon;
using namespace valcon::harness;
namespace io = valcon::harness::io;

namespace {

/// A scratch file path unique to the current test, cleaned up on exit.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    path_ = ::testing::TempDir() + info->test_suite_name() + "_" +
            info->name() + "_" + tag;
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::string path_;
};

/// The document a `valcon_sweep --shard` run of `matrix` would emit for
/// `spec`, as one string (what the CLI streams, reproduced through the
/// same sweep_io writers).
std::string shard_document_text(const ScenarioMatrix& matrix,
                                const std::string& name,
                                const std::optional<io::ShardSpec>& spec) {
  const std::size_t total = matrix.size();
  const io::ShardRange range =
      io::shard_range(total, spec.value_or(io::ShardSpec{0, 1}));
  std::ostringstream os;
  io::document_header(os, name, spec, total);
  io::JsonSummary summary;
  SweepRunner(2).run_range(matrix, range.begin, range.end,
                           [&](SweepOutcome&& o) {
                             const std::string line = io::outcome_line(o);
                             summary.add(io::parse_outcome_line(line));
                             os << line
                                << (o.point.index + 1 < range.end ? ",\n"
                                                                  : "\n");
                           });
  io::document_footer(os, summary);
  return os.str();
}

io::ShardDocument parse_text(const std::string& text) {
  std::istringstream is(text);
  return io::parse_document(is);
}

}  // namespace

// -------------------------------------------------------------- escaping

TEST(JsonEscape, EscapesControlCharactersAsUnicode) {
  // \r and other sub-0x20 bytes used to be emitted raw, producing invalid
  // JSON whenever an exception message contained them.
  EXPECT_EQ(io::json_escape("a\rb"), "a\\u000db");
  EXPECT_EQ(io::json_escape(std::string("x\x01y", 3)), "x\\u0001y");
  EXPECT_EQ(io::json_escape("q\"\\\n\t"), "q\\\"\\\\\\n\\t");
  EXPECT_EQ(io::json_escape("plain"), "plain");
}

// --------------------------------------------------------------- parsers

TEST(ParseInt, RejectsGarbageAndOutOfRange) {
  EXPECT_EQ(io::parse_int("4", 1), 4);
  EXPECT_EQ(io::parse_int("0", 0), 0);
  EXPECT_FALSE(io::parse_int("abc", 1).has_value());
  EXPECT_FALSE(io::parse_int("-3", 1).has_value());
  EXPECT_FALSE(io::parse_int("0", 1).has_value());
  EXPECT_FALSE(io::parse_int("3x", 1).has_value());
  EXPECT_FALSE(io::parse_int("", 1).has_value());
  EXPECT_FALSE(io::parse_int(" 5", 1).has_value());
  EXPECT_FALSE(io::parse_int("99999999999999", 1).has_value());
}

TEST(ParseShardSpec, AcceptsOnlyStrictIOverM) {
  const auto ok = io::parse_shard_spec("1/3");
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(ok->index, 1);
  EXPECT_EQ(ok->count, 3);
  EXPECT_FALSE(io::parse_shard_spec("3/3").has_value());  // index < count
  EXPECT_FALSE(io::parse_shard_spec("0/0").has_value());
  EXPECT_FALSE(io::parse_shard_spec("-1/2").has_value());
  EXPECT_FALSE(io::parse_shard_spec("a/b").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1/2/3").has_value());
  EXPECT_FALSE(io::parse_shard_spec("/2").has_value());
  EXPECT_FALSE(io::parse_shard_spec("1/").has_value());
}

TEST(ShardRange, SlicesAreBalancedDisjointAndExhaustive) {
  for (const std::size_t total : {0u, 1u, 7u, 30u, 720u, 1000001u}) {
    for (const int m : {1, 2, 3, 7, 16, 100}) {
      std::size_t expect = 0;
      for (int i = 0; i < m; ++i) {
        const io::ShardRange r = io::shard_range(total, {i, m});
        EXPECT_EQ(r.begin, expect);
        EXPECT_LE(r.end - r.begin, total / static_cast<std::size_t>(m) + 1);
        expect = r.end;
      }
      EXPECT_EQ(expect, total) << "total=" << total << " m=" << m;
    }
  }
  EXPECT_THROW(static_cast<void>(io::shard_range(10, {3, 3})),
               std::invalid_argument);
}

// --------------------------------------------------- outcome round-trips

TEST(OutcomeLine, RoundTripsThroughParse) {
  const auto points = named_matrix("smoke").build();
  const SweepOutcome outcome = run_point(points.front());
  const std::string line = io::outcome_line(outcome);
  const io::ScenarioRecord r = io::parse_outcome_line(line);
  EXPECT_FALSE(r.has_error);
  EXPECT_EQ(r.decided, outcome.decided);
  EXPECT_EQ(r.agreement, outcome.agreement);
  EXPECT_EQ(r.validity_ok, outcome.validity_ok);
  EXPECT_EQ(r.message_complexity,
            static_cast<double>(outcome.result.message_complexity));
  EXPECT_EQ(r.word_complexity,
            static_cast<double>(outcome.result.word_complexity));
}

TEST(OutcomeLine, ErrorWithControlCharactersStaysValidJson) {
  SweepOutcome outcome;
  outcome.point = named_matrix("smoke").point_at(0);
  outcome.error = "bad\r\nthing\x01";
  const std::string line = io::outcome_line(outcome);
  EXPECT_NE(line.find("\\u000d"), std::string::npos);
  EXPECT_NE(line.find("\\u0001"), std::string::npos);
  for (const char c : line) {
    EXPECT_GE(static_cast<unsigned char>(c), 0x20u)
        << "raw control character in JSON line";
  }
  EXPECT_TRUE(io::parse_outcome_line(line).has_error);
}

TEST(OutcomeLine, MalformedLineThrows) {
  EXPECT_THROW(static_cast<void>(io::parse_outcome_line("    {\"label\": 1}")),
               std::runtime_error);
}

TEST(OutcomeLine, AxisTagsSurfaceOnlyWhenTheMatrixDeclaresThem) {
  // Legacy matrices (both new axes at their single default) emit the
  // legacy bytes; a matrix sweeping the axes carries the fields — and the
  // extended line still round-trips through the summary parser.
  const SweepOutcome legacy = run_point(named_matrix("smoke").point_at(0));
  const std::string legacy_line = io::outcome_line(legacy);
  EXPECT_EQ(legacy_line.find("\"pattern\""), std::string::npos);
  EXPECT_EQ(legacy_line.find("\"net_profile\""), std::string::npos);

  const SweepOutcome tagged = run_point(
      named_matrix("validity")
          .keep(Axis::kPattern, {"adversarial"})
          .point_at(0));
  const std::string tagged_line = io::outcome_line(tagged);
  EXPECT_NE(tagged_line.find("\"pattern\": \"adversarial\""),
            std::string::npos)
      << tagged_line;
  EXPECT_NE(tagged_line.find("\"net_profile\": \"uniform\""),
            std::string::npos)
      << tagged_line;
  const io::ScenarioRecord r = io::parse_outcome_line(tagged_line);
  EXPECT_EQ(r.decided, tagged.decided);
  EXPECT_EQ(r.validity_ok, tagged.validity_ok);
}

TEST(JsonSummary, AccumulatesMeansOverDecidedRunsOnly) {
  io::JsonSummary summary;
  io::ScenarioRecord decided;
  decided.decided = true;
  decided.last_decision_time = 2.0;
  decided.message_complexity = 10;
  decided.word_complexity = 100;
  io::ScenarioRecord errored;
  errored.has_error = true;
  io::ScenarioRecord violated;
  violated.decided = true;
  violated.last_decision_time = 4.0;
  violated.agreement = false;
  summary.add(decided);
  summary.add(errored);
  summary.add(violated);
  EXPECT_EQ(summary.total, 3u);
  EXPECT_EQ(summary.decided, 2u);
  EXPECT_EQ(summary.errors, 1u);
  EXPECT_EQ(summary.agreement_violations, 1u);
  EXPECT_FALSE(summary.healthy());
  EXPECT_NE(summary.to_json().find("\"mean_latency\": 3"), std::string::npos);
}

// ------------------------------------------------------------ checkpoint

TEST(Checkpoint, JsonRoundTripAndWorkIdentity) {
  io::Checkpoint cp;
  cp.matrix = "full";
  cp.filter(Axis::kStrategy) = "crash,equivocate";
  cp.filter(Axis::kPattern) = "adversarial,rotating";
  cp.filter(Axis::kNetProfile) = "pre-gst-starve";
  cp.shard = {2, 5};
  cp.total = 720;
  cp.begin = 288;
  cp.end = 432;
  cp.next = 300;
  cp.sidecar_bytes = 4711;
  const io::Checkpoint back = io::Checkpoint::parse(cp.to_json());
  EXPECT_TRUE(back.same_work(cp));
  EXPECT_EQ(back.next, 300u);
  EXPECT_EQ(back.sidecar_bytes, 4711u);

  io::Checkpoint other = cp;
  other.filter(Axis::kStrategy) = "crash";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.filter(Axis::kPattern) = "rotating";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.filter(Axis::kNetProfile) = "";
  EXPECT_FALSE(other.same_work(cp));
  other = cp;
  other.shard.index = 3;
  EXPECT_FALSE(other.same_work(cp));
  EXPECT_TRUE([&] {
    io::Checkpoint resumed = cp;
    resumed.next = 431;
    resumed.sidecar_bytes = 9000;
    return resumed.same_work(cp);
  }());

  EXPECT_THROW(static_cast<void>(io::Checkpoint::parse("{}")),
               std::runtime_error);
  io::Checkpoint bad = cp;
  bad.next = 10;  // outside [begin, end]
  EXPECT_THROW(static_cast<void>(io::Checkpoint::parse(bad.to_json())),
               std::runtime_error);
}

TEST(Checkpoint, AtomicWriteAndSidecarTornLineRecovery) {
  TempFile file("sidecar");
  io::atomic_write(file.path(), "one\ntwo\nthree\ntorn-no-newline");
  const auto lines = io::read_sidecar(file.path(), 3);
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], "one");
  EXPECT_EQ(lines[2], "three");
  // The torn fourth line is not a complete line, and asking for more
  // complete lines than exist must fail loudly.
  EXPECT_THROW(static_cast<void>(io::read_sidecar(file.path(), 4)),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(io::read_sidecar(file.path() + ".gone", 1)),
               std::runtime_error);
  EXPECT_TRUE(io::read_sidecar(file.path() + ".gone", 0).empty());
}

// --------------------------------------------------- documents and merge

TEST(MergeDocuments, ShardsReassembleByteIdenticalToSingleShot) {
  const ScenarioMatrix matrix = named_matrix("smoke");
  const std::string single =
      shard_document_text(matrix, "smoke", std::nullopt);
  for (const int m : {2, 3, 7}) {
    std::vector<io::ShardDocument> docs;
    for (int i = 0; i < m; ++i) {
      docs.push_back(parse_text(
          shard_document_text(matrix, "smoke", io::ShardSpec{i, m})));
    }
    std::ostringstream merged;
    io::merge_documents(merged, std::move(docs));
    EXPECT_EQ(merged.str(), single) << "shard count " << m;
  }
}

TEST(MergeDocuments, RejectsOverlapGapAndMismatch) {
  const ScenarioMatrix matrix = named_matrix("smoke");
  const auto doc = [&](int i, int m) {
    return parse_text(shard_document_text(matrix, "smoke",
                                          io::ShardSpec{i, m}));
  };
  std::ostringstream sink;
  // Missing shard 2/3.
  EXPECT_THROW(io::merge_documents(sink, {doc(0, 3), doc(1, 3)}),
               std::invalid_argument);
  // Shard 0 provided twice (overlap at index 0).
  EXPECT_THROW(
      io::merge_documents(sink, {doc(0, 3), doc(0, 3), doc(1, 3), doc(2, 3)}),
      std::invalid_argument);
  // Mixed partitions that tile exactly are fine.
  {
    std::ostringstream merged;
    io::merge_documents(merged, {doc(0, 2), doc(2, 4), doc(3, 4)});
    EXPECT_EQ(merged.str(),
              shard_document_text(matrix, "smoke", std::nullopt));
  }
  // Empty slices (shard count > matrix size) are harmless wherever they
  // sort relative to the real ones — including one whose begin lands
  // strictly inside a range another shard already covered.
  {
    std::ostringstream merged;
    io::merge_documents(merged, {doc(0, 2), doc(1, 2), doc(60000, 100000)});
    EXPECT_EQ(merged.str(),
              shard_document_text(matrix, "smoke", std::nullopt));
  }
  // Different matrix name.
  auto renamed = doc(0, 3);
  renamed.matrix = "other";
  EXPECT_THROW(io::merge_documents(sink, {renamed, doc(1, 3), doc(2, 3)}),
               std::invalid_argument);
  // Empty input.
  EXPECT_THROW(io::merge_documents(sink, {}), std::invalid_argument);
}

TEST(ParseDocument, RejectsMalformedDocuments) {
  EXPECT_THROW(static_cast<void>(parse_text("not json")),
               std::runtime_error);
  EXPECT_THROW(static_cast<void>(parse_text("{\n  \"matrix\": \"x\",\n")),
               std::runtime_error);
  // A shard header whose range disagrees with index/count/total.
  const std::string bad =
      "{\n  \"matrix\": \"x\",\n"
      "  \"shard\": {\"index\": 0, \"count\": 2, \"total\": 10, "
      "\"begin\": 0, \"end\": 9},\n"
      "  \"scenarios\": [\n  ],\n  \"summary\": {}\n}\n";
  EXPECT_THROW(static_cast<void>(parse_text(bad)), std::runtime_error);
}
