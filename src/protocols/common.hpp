// Shared protocol infrastructure: per-node token knowledge, the
// knowledge_view adapter for adaptive adversaries, and result records.
#pragma once

#include <algorithm>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "coding/token.hpp"
#include "dynnet/network.hpp"

namespace ncdn {

/// What every dissemination run reports.
struct protocol_result {
  round_t rounds = 0;            // rounds until protocol termination
  round_t completion_round = 0;  // first round all nodes knew all tokens
                                 // (observer-measured; 0 if never)
  bool complete = false;         // all nodes know all k tokens at the end
  bool early_stop = false;       // stopped on a configured threshold rather
                                 // than full dissemination
  std::size_t max_message_bits = 0;
  std::size_t epochs = 0;        // protocol-specific loop iterations
};

/// A Las-Vegas round cap: `rounds` (a cap_factor times a size estimate)
/// plus `slack`, saturating at the largest round_t instead of wrapping or
/// casting a double out of range (cap_factor=1e300 means "no cap").
inline round_t round_cap(double rounds, round_t slack = 0) {
  NCDN_EXPECTS(rounds >= 0.0);
  constexpr round_t top = std::numeric_limits<round_t>::max();
  // 2^64 is exact in a double; anything at or past it saturates.
  if (!(rounds < 18446744073709551616.0)) return top;
  const auto base = static_cast<round_t>(rounds);
  return base > top - slack ? top : base + slack;
}

/// Tracks which tokens each node knows, and which tokens are still "in
/// consideration" (not yet removed by a completed broadcast, §7).  Tokens
/// are referenced by their index in the sorted token_distribution — a
/// simulation-side shorthand for the (id, payload) bits that actually cross
/// the wire; the wire cost is charged by the protocols.
class token_state final : public knowledge_view {
 public:
  explicit token_state(const token_distribution& dist)
      : dist_(&dist), known_count_(dist.n, 0), remaining_count_(dist.n, 0) {
    // The counters — the whole knowledge_view surface — are eager and
    // O(n).  The O(n*k) per-node masks materialize on the first call that
    // actually reads or writes a mask (flood-agreement bookkeeping), so
    // sessions whose protocol decodes inside its own rlnc_session view and
    // never touches token membership allocate no masks at all.
    std::vector<std::size_t> uniq;
    for (node_id u = 0; u < dist.n; ++u) {
      uniq.assign(dist.held_by_node[u].begin(), dist.held_by_node[u].end());
      std::sort(uniq.begin(), uniq.end());
      uniq.erase(std::unique(uniq.begin(), uniq.end()), uniq.end());
      known_count_[u] = uniq.size();
      remaining_count_[u] = uniq.size();  // nothing is retired initially
    }
  }

  const token_distribution& distribution() const noexcept { return *dist_; }
  std::size_t k() const noexcept { return dist_->k(); }

  // --- knowledge_view (what the adaptive adversary may inspect, §4.1) ---
  std::size_t node_count() const override { return dist_->n; }
  std::size_t knowledge(node_id u) const override { return known_count_[u]; }

  bool knows(node_id u, std::size_t t) const {
    ensure_materialized();
    return known_[u].get(t);
  }
  std::size_t known_count(node_id u) const { return known_count_[u]; }

  void learn(node_id u, std::size_t t) {
    ensure_materialized();
    if (!known_[u].get(t)) {
      known_[u].set(t);
      ++known_count_[u];
      // The running counters must agree with their masks (the masks are
      // authoritative; the counters exist to keep knowledge() O(1)).
      NCDN_AUDIT(known_[u].popcount() == known_count_[u]);
      remaining_[u].set(t);
      ++remaining_count_[u];
      NCDN_AUDIT(remaining_[u].popcount() == remaining_count_[u]);
    }
  }

  // --- the "remove from consideration" bookkeeping of §7 ---
  bool in_consideration(node_id u, std::size_t t) const {
    ensure_materialized();
    return remaining_[u].get(t);
  }
  std::size_t remaining_count(node_id u) const { return remaining_count_[u]; }
  const bitvec& remaining_mask(node_id u) const {
    ensure_materialized();
    return remaining_[u];
  }
  /// u's in-consideration tokens, ascending.
  std::vector<std::size_t> remaining_tokens(node_id u) const {
    const bitvec& mask = remaining_mask(u);
    std::vector<std::size_t> tokens;
    tokens.reserve(remaining_count_[u]);
    for (std::size_t t = mask.first_set(); t < mask.size();
         t = mask.first_set_from(t + 1)) {
      tokens.push_back(t);
    }
    return tokens;
  }

  /// Node u removes token t from its own consideration set (it may or may
  /// not know the token).  Global retirement is per-node because a node
  /// that missed a broadcast keeps the token in play (Las Vegas safety).
  void retire(node_id u, std::size_t t) {
    ensure_materialized();
    if (remaining_[u].get(t)) {
      remaining_[u].set(t, false);
      --remaining_count_[u];
    }
  }

  /// Puts a known token back into u's consideration set (failure-recovery
  /// path: a missed coded broadcast vetoes the epoch's retirement, §7 /
  /// Las Vegas guarantee).
  void reinstate(node_id u, std::size_t t) {
    ensure_materialized();
    NCDN_EXPECTS(knows(u, t));
    if (!remaining_[u].get(t)) {
      remaining_[u].set(t);
      ++remaining_count_[u];
    }
  }

  /// True iff every node knows every token.
  bool all_complete() const {
    for (node_id u = 0; u < dist_->n; ++u) {
      if (known_count_[u] != k()) return false;
    }
    return true;
  }

 private:
  /// Builds the per-node masks from the initial distribution.  Every
  /// mutator materializes before touching anything, so at this point the
  /// masks' state is exactly the construction-time state the eager
  /// counters were computed from — asserted below.
  void ensure_materialized() const {
    if (materialized_) return;
    materialized_ = true;
    known_.reserve(dist_->n);
    remaining_.reserve(dist_->n);
    for (node_id u = 0; u < dist_->n; ++u) {
      known_.emplace_back(dist_->k());
      remaining_.emplace_back(dist_->k());
    }
    for (node_id u = 0; u < dist_->n; ++u) {
      for (std::size_t t : dist_->held_by_node[u]) {
        known_[u].set(t);
        remaining_[u].set(t);
      }
      NCDN_AUDIT(known_[u].popcount() == known_count_[u]);
      NCDN_AUDIT(remaining_[u].popcount() == remaining_count_[u]);
    }
  }

  const token_distribution* dist_;
  // Lazily materialized mask state (mutable: const readers like knows()
  // may be the first mask touch).
  mutable std::vector<bitvec> known_;      // node -> k-bit membership
  mutable std::vector<bitvec> remaining_;  // known-or-not, still in play
  mutable bool materialized_ = false;
  std::vector<std::size_t> known_count_;
  std::vector<std::size_t> remaining_count_;
};

/// Sets res.completion_round the first time every node knows every token
/// (in rounds since `start`, the network round the protocol began at).
inline void note_completion(protocol_result& res, const network& net,
                            const token_state& st, round_t start) {
  if (res.completion_round == 0 && st.all_complete()) {
    res.completion_round = net.rounds_elapsed() - start;
  }
}

/// Closes a run begun at network round `start`: rounds, completeness, the
/// completion round (the last round if note_completion never fired on a
/// complete run) and the widest message sent.
inline void finish_result(protocol_result& res, const network& net,
                          const token_state& st, round_t start) {
  res.rounds = net.rounds_elapsed() - start;
  res.complete = st.all_complete();
  if (res.completion_round == 0 && res.complete) {
    res.completion_round = res.rounds;
  }
  res.max_message_bits = net.max_observed_message_bits();
}

/// Tokens are compared as d-bit strings (the "smallest token" order used by
/// the flooding baselines).  The distribution is sorted by token_id, so we
/// precompute the payload-lexicographic order once.
std::vector<std::size_t> payload_order(const token_distribution& dist);

}  // namespace ncdn
