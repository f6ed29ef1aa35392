// ADD — Asynchronous Data Dissemination (Das, Xiang, Ren [36]), used by the
// O(n^2 log n) vector consensus (Algorithm 6, Appendix B.3.2).
//
// Problem: a data blob M is the input of at least t+1 correct processes;
// every other correct process inputs ⊥. Every correct process must output M
// (and nothing else).
//
// Protocol (two all-to-all rounds over a Reed-Solomon (n, t+1) code):
//
//   DISPERSE    — every process with input M sends the j-th RS share of M
//                 to P_j. A correct P_j fixes its share once t+1 senders
//                 agree on it (at least one of them is correct, so the
//                 fixed share is the true one).
//   RECONSTRUCT — P_j broadcasts its fixed share. Receivers run online
//                 error correction: with e = 0, 1, ..., t they attempt a
//                 Berlekamp-Welch decode once k + 2e shares are available;
//                 correct shares are never wrong, so at most t Byzantine
//                 shares must be corrected, which n > 3t makes possible.
//
// Communication: O(n * |M| + n^2 log n) words overall — each share is
// |M|/(t+1) bytes and there are O(n^2) share transmissions.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <vector>

#include "valcon/consensus/reed_solomon.hpp"
#include "valcon/core/process_set.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

class Add final : public sim::Component {
 public:
  using Bytes = std::vector<std::uint8_t>;
  using OutputCb = std::function<void(sim::Context&, const Bytes&)>;

  explicit Add(OutputCb on_output) : on_output_(std::move(on_output)) {}

  /// Feeds the input (M or ⊥, as nullopt). Called at most once.
  void input(sim::Context& ctx, std::optional<Bytes> data);

  [[nodiscard]] bool has_output() const { return output_.has_value(); }

  void on_message(sim::Context& ctx, ProcessId from,
                  const sim::PayloadPtr& m) override;

 private:
  struct MDisperse;
  struct MReconstruct;

  void maybe_fix_share(sim::Context& ctx);
  void try_decode(sim::Context& ctx);
  void deliver(sim::Context& ctx, Bytes data);

  OutputCb on_output_;
  bool input_received_ = false;
  std::optional<Bytes> output_;

  // DISPERSE phase: candidate shares for my index, by content.
  std::map<Bytes, core::ProcessSet> disperse_votes_;
  bool share_fixed_ = false;

  // RECONSTRUCT phase: share j as sent by P_j.
  std::vector<std::optional<Bytes>> received_shares_;
};

}  // namespace valcon::consensus
