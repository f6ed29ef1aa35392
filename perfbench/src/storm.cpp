#include "storm.hpp"

#include <algorithm>
#include <cstdio>
#include <utility>
#include <vector>

#include "valcon/sim/component.hpp"

namespace perfbench {

using valcon::ProcessId;
using valcon::Time;
namespace sim = valcon::sim;

namespace {

constexpr int kPhases = 12;
const char* const kNames[kPhases] = {
    "storm/propose",     "storm/prepare-vote", "storm/commit-vote",
    "storm/view-change", "storm/precommit",    "storm/decide",
    "storm/epoch-over",  "storm/epoch-cert",   "storm/est",
    "storm/stored",      "storm/confirm",      "storm/echo"};

struct Token final : sim::Payload {
  Token(std::uint64_t hop, bool vote_in)
      : phase(static_cast<int>(hop % kPhases)), vote(vote_in) {}

  [[nodiscard]] const char* type_name() const override {
    return kNames[phase];
  }
  [[nodiscard]] sim::PayloadTypeId type_id() const override {
    static const auto ids = [] {
      std::vector<sim::PayloadTypeId> out;
      for (const char* name : kNames) {
        out.push_back(sim::PayloadTypeRegistry::intern(name));
      }
      return out;
    }();
    return ids[static_cast<std::size_t>(phase)];
  }
  [[nodiscard]] std::size_t size_words() const override { return 2; }

  int phase;
  bool vote;
};

/// Leaf of the storm: forwards every token around the ring and answers it
/// with an all-to-all vote wave; votes are absorbed.
class StormCore final : public sim::Component {
 public:
  StormCore(const StormCell& cell, StormTally& tally)
      : tokens_(cell.tokens), quota_(cell.quota), tally_(tally) {}

  void on_start(sim::Context& ctx) override {
    next_ = (ctx.id() + 1) % ctx.n();
    for (int k = 0; k < tokens_; ++k) {
      ctx.send(next_, sim::make_payload<Token>(static_cast<std::uint64_t>(k),
                                               false));
    }
  }

  void on_message(sim::Context& ctx, ProcessId,
                  const sim::PayloadPtr& m) override {
    const auto* token = dynamic_cast<const Token*>(m.get());
    if (token == nullptr || token->vote) return;
    if (++received_ == static_cast<std::uint64_t>(quota_)) {
      ++tally_.decisions;
      tally_.last_decision = std::max(tally_.last_decision, ctx.now());
    }
    ctx.broadcast(sim::make_payload<Token>(received_, true));
    ctx.send(next_, sim::make_payload<Token>(received_, false));
  }

 private:
  int tokens_;
  int quota_;
  StormTally& tally_;
  ProcessId next_ = 0;
  std::uint64_t received_ = 0;
};

class StormMid final : public sim::Mux {
 public:
  StormMid(const StormCell& cell, StormTally& tally) {
    make_child<StormCore>(cell, tally);
  }
};

class StormRoot final : public sim::Mux {
 public:
  StormRoot(const StormCell& cell, StormTally& tally) {
    make_child<StormMid>(cell, tally);
  }
};

}  // namespace

std::string StormCell::label() const {
  return "storm n=" + std::to_string(kStormProcesses) +
         " tokens=" + std::to_string(tokens) +
         " quota=" + std::to_string(quota) +
         " horizon=" + std::to_string(static_cast<long>(kStormHorizon)) +
         " seed=" + std::to_string(seed);
}

sim::SimConfig storm_config(const StormCell& cell) {
  sim::SimConfig cfg;
  cfg.n = kStormProcesses;
  cfg.t = 0;
  cfg.seed = cell.seed;
  cfg.net.gst = 0.0;  // every send is post-GST: the per-type Metrics path
  cfg.net.delta = 1.0;
  return cfg;
}

void install_storm(sim::Simulator& simulator, const StormCell& cell,
                   StormTally& tally, const ProcessWrap& wrap) {
  for (ProcessId p = 0; p < kStormProcesses; ++p) {
    std::unique_ptr<sim::Process> process =
        std::make_unique<sim::ComponentHost>(
            std::make_unique<StormRoot>(cell, tally));
    if (wrap) process = wrap(p, std::move(process));
    simulator.add_process(p, std::move(process));
  }
}

StormResult collect_storm(sim::Simulator& simulator, std::uint64_t events,
                          const StormTally& tally) {
  StormResult r;
  r.events = events;
  r.messages_total = simulator.metrics().messages_total();
  r.message_complexity = simulator.metrics().message_complexity();
  r.words = simulator.metrics().communication_complexity();
  r.decisions = tally.decisions;
  r.last_decision = tally.last_decision;
  return r;
}

std::string StormResult::line(const StormCell& cell) const {
  char buf[96];
  std::snprintf(buf, sizeof buf, " last=%.17g", last_decision);
  return cell.label() + " events=" + std::to_string(events) +
         " messages=" + std::to_string(messages_total) +
         " words=" + std::to_string(words) +
         " decisions=" + std::to_string(decisions) + buf;
}

StormResult run_storm(const StormCell& cell) {
  sim::Simulator simulator(storm_config(cell));
  StormTally tally;
  install_storm(simulator, cell, tally, nullptr);
  const std::uint64_t events = simulator.run(kStormHorizon);
  return collect_storm(simulator, events, tally);
}

}  // namespace perfbench
