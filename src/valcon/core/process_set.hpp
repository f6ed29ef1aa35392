// Dense set of process ids for vote tallies.
//
// Every "distinct senders" tally in the protocol stacks — prevotes and
// precommits per value, BRB echoes and readies per digest, the signers of a
// QuorumCollector digest — only ever inserts a sender, tests membership,
// and asks how many there are. ProcessSet does exactly that with one bit
// per id: ids below 128 live in two inline words, larger ids in a heap tail
// that grows on the first such insert, and the size is cached, so a tally
// over n <= 128 processes never allocates and size() is O(1).
//
// Id contract: callers pass process ids in [0, n), in practice a network
// sender or a signer already checked equal to one. A negative id is a
// programming error and makes insert() throw std::out_of_range, like
// crypto::VoterBitset::set; contains() and erase() read it as absent.
// There is no upper bound check (the set does not know n), so the heap
// tail is sized by the largest id inserted.
//
// Why not crypto::VoterBitset: that is the certificate wire format, whose
// capacity must equal the key registry's n (a resized bitset is a forgery).
// Tallies are default-built inside maps before n is known, need erase()
// (QuorumCollector::prune_invalid) and an O(1) count. insert_all() bridges
// the two: it ORs a verified certificate's voters into a tally.
#pragma once

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "valcon/common.hpp"
#include "valcon/crypto/signatures.hpp"

namespace valcon::core {

class ProcessSet {
 public:
  /// Adds `id`. Returns true iff it was not already present. Throws
  /// std::out_of_range for a negative id.
  bool insert(ProcessId id) {
    if (id < 0) throw std::out_of_range("ProcessSet::insert: negative id");
    std::uint64_t& slot = mutable_word(word_index(id));
    const std::uint64_t bit = bit_of(id);
    if ((slot & bit) != 0) return false;
    slot |= bit;
    ++size_;
    return true;
  }

  /// Removes `id`. Returns true iff it was present.
  bool erase(ProcessId id) {
    if (!contains(id)) return false;
    mutable_word(word_index(id)) &= ~bit_of(id);
    --size_;
    return true;
  }

  [[nodiscard]] bool contains(ProcessId id) const {
    return id >= 0 && (word(word_index(id)) & bit_of(id)) != 0;
  }

  [[nodiscard]] int size() const { return size_; }

  /// Inserts every voter of `voters` (a certificate's bitset): one OR per
  /// word instead of one insert per id.
  void insert_all(const crypto::VoterBitset& voters) {
    const std::vector<std::uint64_t>& words = voters.words();
    // Highest word first, so the tail grows at most once.
    for (std::size_t w = words.size(); w-- > 0;) {
      if (words[w] == 0) continue;
      std::uint64_t& mine = mutable_word(w);
      size_ += std::popcount(words[w] & ~mine);
      mine |= words[w];
    }
  }

 private:
  static constexpr std::size_t kInlineWords = 2;

  static std::size_t word_index(ProcessId id) {
    return static_cast<std::size_t>(id) / 64;
  }
  static std::uint64_t bit_of(ProcessId id) {
    return std::uint64_t{1} << (static_cast<std::size_t>(id) % 64);
  }

  [[nodiscard]] std::uint64_t word(std::size_t w) const {
    if (w < kInlineWords) return inline_[w];
    w -= kInlineWords;
    return w < tail_.size() ? tail_[w] : 0;
  }

  // Word `w` for writing, growing the heap tail to reach it.
  std::uint64_t& mutable_word(std::size_t w) {
    if (w < kInlineWords) return inline_[w];
    w -= kInlineWords;
    if (w >= tail_.size()) tail_.resize(w + 1);
    return tail_[w];
  }

  std::array<std::uint64_t, kInlineWords> inline_{};
  std::vector<std::uint64_t> tail_;  // words from kInlineWords on
  int size_ = 0;
};

}  // namespace valcon::core
