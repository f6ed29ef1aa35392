// Vector dissemination — Algorithm 5 (Appendix B.3.1).
//
// Every correct process disseminates a vector of n-t signed proposals; every
// correct process eventually *acquires* (H, tsig): a hash of some
// disseminated vector together with an (n-t)-threshold signature over it.
// Properties (Appendix B.3.1): Termination, Integrity (acquired pairs
// verify), Redundancy (a threshold signature implies t+1 correct processes
// cached the matching vector — which is exactly what ADD needs downstream).
//
//   disseminate(vec): store hash, slow-broadcast the vector (Algorithm 4);
//   on slow-deliver:  first vector from each process is cached (after
//                     verifying its embedded proposal signatures, the check
//                     the paper notes it omits for brevity) and acknowledged
//                     with a partial signature on its hash (STORED);
//   on n-t STORED:    combine into a threshold signature, broadcast CONFIRM;
//   on valid CONFIRM: rebroadcast once, acquire, stop participating.
//
// The slow-broadcast pacing keeps the post-GST word count at O(n^2): only
// the first correct process to finish dissemination pays O(n) words per
// message, everyone else sends O(1) slow-broadcast messages before the
// CONFIRM wave shuts the protocol down (Theorem 10).
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <utility>
#include <vector>

#include "valcon/bcast/slow_broadcast.hpp"
#include "valcon/consensus/vector_consensus.hpp"
#include "valcon/core/process_set.hpp"
#include "valcon/crypto/signatures.hpp"
#include "valcon/sim/component.hpp"

namespace valcon::consensus {

class VectorDissemination final : public sim::Mux {
 public:
  using AcquireCb = std::function<void(
      sim::Context&, const crypto::Hash&, const crypto::ThresholdSignature&)>;

  explicit VectorDissemination(AcquireCb on_acquire);

  /// Starts disseminating (vector, proposal signatures).
  void disseminate(sim::Context& ctx, const core::InputConfig& vec,
                   const std::vector<crypto::Signature>& proposal_sigs);

  /// The cached vector with this hash, if any (consumed by Algorithm 6 to
  /// feed ADD).
  [[nodiscard]] std::optional<core::InputConfig> lookup(
      const crypto::Hash& h) const;

  [[nodiscard]] bool acquired() const { return acquired_; }

 protected:
  void own_message(sim::Context& ctx, ProcessId from,
                   const sim::PayloadPtr& m) override;

 private:
  struct MStored;
  struct MConfirm;

  void on_slow_deliver(sim::Context& slow_ctx,
                       const std::vector<std::uint8_t>& blob, ProcessId from);

  AcquireCb on_acquire_;
  bcast::SlowBroadcast* slow_ = nullptr;

  std::optional<crypto::Hash> my_hash_;
  std::map<crypto::Hash, core::InputConfig> cache_;
  core::ProcessSet stored_from_;
  std::vector<crypto::Signature> stored_partials_;
  core::ProcessSet acked_;  // disseminators already acknowledged
  bool confirmed_ = false;
  bool acquired_ = false;
};

/// Wire format of the disseminated blob: vector + its proposal signatures.
[[nodiscard]] std::vector<std::uint8_t> encode_vector_blob(
    const core::InputConfig& vec,
    const std::vector<crypto::Signature>& sigs);
[[nodiscard]] std::optional<
    std::pair<core::InputConfig, std::vector<crypto::Signature>>>
decode_vector_blob(const std::vector<std::uint8_t>& blob);

}  // namespace valcon::consensus
