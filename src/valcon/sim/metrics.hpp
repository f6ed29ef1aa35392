// Complexity accounting, exactly as defined in Section 3.1 of the paper:
//
//   "The message complexity of E is the number of messages sent by correct
//    processes during [GST, infinity)."
//
// Communication complexity counts words instead (footnote 4). Totals over
// the whole execution (including pre-GST and faulty senders) are also kept
// for diagnostics.
//
// The per-type breakdown is counted by interned PayloadTypeId — a dense
// array increment on the per-message hot path — and materialized back into
// the historical string-keyed map only when by_type() is asked for, so the
// reporting format is unchanged while on_send performs no string
// construction, no tree lookup and (steady-state) no allocation.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/sim/payload.hpp"

namespace valcon::sim {

/// Near-miss counters for the adversary search (harness/search.hpp): how
/// close the execution came to a safety violation, reported by correct
/// processes at quorum-certificate formation (Context::note_quorum).
struct NearMiss {
  /// Minimum over all QCs formed by correct processes of (votes for the
  /// winning digest − votes for the strongest competing digest in the same
  /// view/phase); -1 when no correct process ever formed a QC (e.g. the
  /// non-authenticated stack, which does not run Quad). A small margin
  /// means the adversary nearly split the voters.
  int min_vote_margin = -1;
  /// Total votes correct processes collected for digests that lost their
  /// view — nonzero only when an adversary made voters disagree.
  std::uint64_t conflicting_votes = 0;
};

class Metrics {
 public:
  void on_send(bool sender_correct, bool post_gst, std::size_t words,
               PayloadTypeId type) {
    ++messages_total_;
    words_total_ += words;
    if (sender_correct && post_gst) {
      ++messages_post_gst_;
      words_post_gst_ += words;
      if (type >= by_type_.size()) by_type_.resize(type + 1, 0);
      ++by_type_[type];
    }
  }

  /// Messages sent by correct processes at/after GST (paper's metric).
  [[nodiscard]] std::uint64_t message_complexity() const {
    return messages_post_gst_;
  }
  /// Words sent by correct processes at/after GST (paper's footnote 4).
  [[nodiscard]] std::uint64_t communication_complexity() const {
    return words_post_gst_;
  }
  [[nodiscard]] std::uint64_t messages_total() const { return messages_total_; }
  [[nodiscard]] std::uint64_t words_total() const { return words_total_; }

  /// Post-GST correct-sender message counts per payload type, materialized
  /// lazily from the interned counters. Types never seen (count zero) are
  /// absent, exactly as with the old string-keyed map; the sum of the
  /// values equals message_complexity().
  [[nodiscard]] std::map<std::string, std::uint64_t> by_type() const {
    return PayloadTypeRegistry::count_by_name(by_type_);
  }

  /// Records a quorum certificate formed by a correct process: the margin
  /// over the strongest competitor and the votes the losers collected.
  /// Cold path (at most one QC per view per phase), so a branch and an add
  /// cost nothing next to on_send.
  void on_quorum(int margin, std::uint64_t conflicting) {
    if (near_miss_.min_vote_margin < 0 || margin < near_miss_.min_vote_margin) {
      near_miss_.min_vote_margin = margin;
    }
    near_miss_.conflicting_votes += conflicting;
  }

  [[nodiscard]] const NearMiss& near_miss() const { return near_miss_; }

  void reset() {
    messages_total_ = words_total_ = 0;
    messages_post_gst_ = words_post_gst_ = 0;
    by_type_.clear();
    near_miss_ = NearMiss{};
  }

 private:
  std::uint64_t messages_total_ = 0;
  std::uint64_t words_total_ = 0;
  std::uint64_t messages_post_gst_ = 0;
  std::uint64_t words_post_gst_ = 0;
  std::vector<std::uint64_t> by_type_;  // indexed by PayloadTypeId
  NearMiss near_miss_;
};

}  // namespace valcon::sim
