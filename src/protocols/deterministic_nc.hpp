// Derandomized network coding and the omniscient adversary (paper §6).
//
// Theorem 6.1: random linear coding with field size q = n^Omega(k) defeats
// even an *omniscient* adversary — one that knows every coin flip in
// advance — because a union bound over compactly-witnessed "learning
// histories" leaves failure probability q^{-n} * exp(nk log n) << 1.
// Corollary 6.2 turns this into deterministic algorithms: fix a matrix of
// pseudo-random coefficient choices per (UID, round) as non-uniform advice;
// whatever the adversary does, the advice mixes.
//
// We realize this with an explicit advice matrix: coefficient for
// (uid, round, slot) is a seeded hash, shared by all nodes (and known to
// the adversary) — a `field_rlnc_session` built with an advice seed
// (protocols/rlnc_broadcast.hpp).  The protocol is then fully
// deterministic given the initial token placement.  Substitutions
// (README): the advice is a seeded PRF rather than the
// lexicographically-first good matrix (whose construction is
// super-polynomial), and q = 2^61 - 1 stands in for n^Omega(k) — at every
// (n, k) the benches run, exp(nk log n) * q^{-n} evaluates to < 2^{-100}.
//
// The omniscient adversary implemented here evaluates every node's exact
// next message (possible because the algorithm is deterministic) and
// greedily chains nodes so that as many transmissions as possible fall
// inside their receivers' spans.  Over GF(2) that stalls mixing badly;
// over GF(2^61 - 1) a nonzero combination essentially never lands in a
// proper subspace, so the adversary is powerless — the content of Thm 6.1.
#pragma once

#include "dynnet/network.hpp"
#include "gf/field.hpp"
#include "linalg/decoder.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

/// Omniscient adversary against an advice session: each round it
/// computes every node's next message and greedily builds a path placing
/// non-innovative transmissions next to each other (connected, as the
/// model requires).  A search over all topologies would be exponential;
/// the greedy chain suffices to separate small-q from large-q behaviour
/// (README, Substitutions).
template <finite_field F>
class omniscient_chain_adversary final : public adversary {
 public:
  explicit omniscient_chain_adversary(const field_rlnc_session<F>* session)
      : session_(session) {}

  const graph& topology(round_t r, const knowledge_view&) override {
    const std::size_t n = session_->node_count();
    // Prospective transmissions.
    std::vector<std::optional<typename field_decoder<F>::row_type>> rows(n);
    for (node_id u = 0; u < n; ++u) {
      rows[u] = session_->prospective_row(u, r);
    }
    auto innovative = [&](node_id from, node_id to) -> int {
      if (!rows[from]) return 0;
      return session_->decoder(to).in_span(*rows[from]) ? 0 : 1;
    };
    std::vector<bool> used(n, false);
    std::vector<node_id> chain;
    // Start from the highest-rank node (it has the least to learn).
    node_id start = 0;
    for (node_id u = 1; u < n; ++u) {
      if (session_->knowledge(u) > session_->knowledge(start)) start = u;
    }
    chain.push_back(start);
    used[start] = true;
    while (chain.size() < n) {
      const node_id last = chain.back();
      node_id best = static_cast<node_id>(n);
      int best_score = 3;
      for (node_id w = 0; w < n; ++w) {
        if (used[w]) continue;
        const int score = innovative(last, w) + innovative(w, last);
        if (score < best_score) {
          best_score = score;
          best = w;
          if (score == 0) break;
        }
      }
      NCDN_ASSERT(best < n);
      chain.push_back(best);
      used[best] = true;
    }
    current_.reset(n);
    for (std::size_t i = 0; i + 1 < chain.size(); ++i) {
      current_.add_edge(chain[i], chain[i + 1]);
    }
    return current_;
  }

  std::string name() const override { return "omniscient-chain"; }

 private:
  const field_rlnc_session<F>* session_;
  graph current_;
};

}  // namespace ncdn
