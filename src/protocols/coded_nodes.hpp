// One coded-node store behind every GF(2) coding engine.
//
// Every coded protocol here runs the same coding step (paper §5, Lemma
// 5.3): a node keeps what it has received and sends a random GF(2)
// combination of it.  The §5 indexed broadcast, §7 greedy and priority
// forwarding, the §8 chunked and patch sessions, Corollary 2.6's
// centralized genie and counting all hold that state here: one node_coder
// per node, built from a coding_backend (coding/matrix.hpp), plus the
// seeding, completion, decode and decode-delay bookkeeping they share.
//
// coded_nodes is also the knowledge_view those engines step with, so
// adaptive adversaries see each node's rank and the session's metrics read
// every engine's elimination work and decode delays the same way.  The
// session reads those counters only after a round the view steps, so an
// engine changes its coders only inside its view's rounds (its make and
// deliver callbacks) or before one of them: a change after the view's last
// round is never counted.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "coding/backend.hpp"
#include "protocols/common.hpp"

namespace ncdn {

class coded_nodes : public knowledge_view {
 public:
  /// n nodes, each coding `items` items of `item_bits` bits with a coder
  /// from `backend`.  The coders own their state; the backend is not kept.
  coded_nodes(std::size_t n, std::size_t items, std::size_t item_bits,
              std::unique_ptr<coding_backend> backend);

  std::size_t items() const noexcept { return items_; }
  std::size_t item_bits() const noexcept { return item_bits_; }

  /// Gives node u the original item `index` (inserts [e_index | payload]).
  /// Seeds land in decode-delay bucket 0.
  void seed(node_id u, std::size_t index, const bitvec& payload);

  /// Node u's coder: draws u's outgoing rows and folds u's arrivals.
  node_coder& coder(node_id u) { return *coders_[u]; }

  /// Folds node u's decode-progress delta into the delay histogram at
  /// `bucket` (rounds since the engine started).  Engines call it after
  /// every insert batch, the only places progress can move.
  void note_progress(node_id u, round_t bucket);
  /// Pins bucket 0 to network round `now` (the first call wins; engines
  /// call it at run entry, after seeding).
  void start_delays(round_t now) {
    if (delay_started_) return;
    delay_base_ = now;
    delay_started_ = true;
  }
  /// Bucket of an insert at network round `now`.
  round_t delay_bucket(round_t now) const {
    return delay_started_ && now > delay_base_ ? now - delay_base_ : 0;
  }

  bool all_complete() const;
  bool node_complete(node_id u) const { return coders_[u]->complete(); }
  bool can_decode(node_id u, std::size_t i) const {
    return coders_[u]->can_decode(i);
  }
  bitvec decode(node_id u, std::size_t i) const {
    return coders_[u]->decode(i);
  }
  /// Tokens node u can decode right now (monotone, backend-independent;
  /// == items() iff node_complete(u)).
  std::size_t decode_progress(node_id u) const {
    return coders_[u]->decode_progress();
  }

  /// Cumulative elimination/combination XOR word-ops across all nodes.
  std::uint64_t xor_word_ops() const;

  /// knowledge_view: adaptive adversaries see the rank of each node's span
  /// (the paper's knowledge-based notion for coding algorithms; decodable
  /// count for generation coding).
  std::size_t node_count() const override { return coders_.size(); }
  std::size_t knowledge(node_id u) const override {
    return coders_[u]->rank();
  }
  std::uint64_t coding_work() const override { return xor_word_ops(); }
  /// Decode-delay histogram: bucket = rounds from the engine's start until
  /// a (node, token) pair first became decodable, value = pair count.
  const std::vector<std::uint64_t>* decode_delays() const override {
    return &delay_hist_;
  }

 private:
  /// Audit rebuild (NCDN_AUDIT): the recorded delta must equal the number
  /// of per-token can_decode flips since the last observation, and flips
  /// only ever go false -> true.  Mutates audit-only snapshot state; never
  /// called in release builds.
  bool audit_delay_flips(node_id u, std::size_t delta);

  std::size_t items_;
  std::size_t item_bits_;
  std::vector<std::unique_ptr<node_coder>> coders_;

  // Decode-delay accounting (tail latency, Costa et al.): when did each
  // (node, token) pair first become decodable?  Tracked as monotone
  // decode_progress deltas — O(n) per round, no per-token scans.
  std::vector<std::size_t> progress_;  // last observed per-node count
  std::vector<std::uint64_t> delay_hist_;
  round_t delay_base_ = 0;  // network round of bucket 0
  bool delay_started_ = false;
  std::vector<std::vector<char>> audit_decodable_;  // audit-only snapshots
};

/// One coded block's payload (§7 blocks): the d-bit payloads of the first
/// bits/d `tokens`, back to back in a `bits`-bit item; a zero tail is
/// padding.
bitvec pack_block(const token_distribution& dist,
                  std::span<const std::size_t> tokens, std::size_t bits);

/// A broadcast's block layout: item i carries the tokens blocks[i], packed
/// by pack_block.
using block_layout = std::vector<std::vector<std::size_t>>;

/// Node u's in-consideration tokens, ascending, capped at `max_tokens` and
/// cut into blocks of `per_block` (the last may be shorter).
block_layout token_blocks(const token_state& st, node_id u,
                          std::size_t per_block, std::size_t max_tokens);

/// §7's Las-Vegas retirement rule for the flood-then-broadcast machines.
/// A node that decodes a coded broadcast learns and retires its tokens; a
/// node that misses it raises a fail bit in the next flood, and a flood
/// that saw a fail bit puts that broadcast's tokens back into every
/// retiring node's consideration, so a coding failure never loses a token.
class retirement_ledger {
 public:
  explicit retirement_ledger(std::size_t n) : fail_(n, false), last_(n) {}

  /// The fail bits the next flood carries.
  const std::vector<bool>& fail_bits() const noexcept { return fail_; }

  /// Ends the flood that carried fail_bits(): on `fail_seen` every node
  /// reinstates what it retired in the last broadcast.  Either way that
  /// broadcast is forgotten and the fail bits drop.
  void close_flood(token_state& st, bool fail_seen);

  /// After a broadcast over `session` laid out as `blocks`: each node that
  /// decoded it learns and retires the layout's tokens, in layout order,
  /// after checking every decoded slot against its token's payload; each
  /// node that missed it raises its fail bit.
  void settle(token_state& st, const coded_nodes& session,
              const block_layout& blocks);

 private:
  std::vector<bool> fail_;
  std::vector<std::vector<std::size_t>> last_;  // per node, last retired
};

}  // namespace ncdn
