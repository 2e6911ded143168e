#include "protocols/flooding.hpp"

#include <algorithm>
#include <bit>

#include "linalg/bitvec.hpp"

namespace ncdn {

namespace {

/// A token-forwarding message: at most B tokens, each d bits on the wire,
/// carried as a k-bit rank mask (bit r = the r-th smallest token) plus
/// their count.
struct forward_msg {
  bitvec ranks;
  std::size_t count = 0;
  std::size_t d_bits = 0;
  std::size_t bit_size() const noexcept { return count * d_bits; }
};

/// Sets `to` (resized to mask's length on first use) to the `batch` lowest
/// set ranks of `mask`, a word at a time, overwriting every word, and
/// returns how many it took; with `consume` it also clears them from
/// `mask`.  What a node sends or finalizes.
std::size_t take_lowest(bitvec& mask, std::size_t batch, bool consume,
                        bitvec& to) {
  if (to.size() != mask.size()) to = bitvec(mask.size());
  std::uint64_t* from = mask.data();
  std::uint64_t* out = to.data();
  std::size_t count = 0;
  for (std::size_t w = 0; w < mask.words().size(); ++w) {
    std::uint64_t left = from[w];
    std::uint64_t take = 0;
    for (; left != 0 && count < batch; ++count) {
      const std::uint64_t low = left & (0 - left);
      take |= low;
      left ^= low;
    }
    out[w] = take;
    if (consume) from[w] ^= take;
  }
  return count;
}

/// Calls f(r) for every set rank r of `mask`, ascending.
template <class F>
void for_each_rank(const bitvec& mask, F&& f) {
  const std::uint64_t* words = mask.data();
  for (std::size_t w = 0; w < mask.words().size(); ++w) {
    for (std::uint64_t bits = words[w]; bits != 0; bits &= bits - 1) {
      f(w * 64 + static_cast<std::size_t>(std::countr_zero(bits)));
    }
  }
}

}  // namespace

round_task<protocol_result> flooding_machine(network& net, token_state& st,
                                             flooding_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / d);

  // Tokens are compared as d-bit strings; precompute that order once and
  // work in rank space (rank r <-> token order[r]).
  const std::vector<std::size_t> order = payload_order(dist);
  std::vector<std::size_t> rank_of(k);
  for (std::size_t i = 0; i < k; ++i) rank_of[order[i]] = i;

  // active[u]: k-bit mask of the ranks known to u and not yet finalized.
  // unsent[u]: pipelined mode only — active ranks not yet sent this pass.
  std::vector<bitvec> active(n, bitvec(k));
  std::vector<bitvec> unsent;
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t t : dist.held_by_node[u]) active[u].set(rank_of[t]);
  }

  const round_t phase_len = std::max<round_t>(
      1, round_cap(cfg.phase_factor * static_cast<double>(n)));
  const std::size_t phases = (k + batch - 1) / batch;

  protocol_result res;
  const round_t start_round = net.rounds_elapsed();

  // A reception: the ranks u does not hold yet, word by word, learned in
  // ascending order.  `active[u]` is u's known ranks minus the finalized
  // ones, and every node finalizes the same ranks at once, so no message
  // carries a finalized rank and a fresh rank is an unknown token.
  auto receive = [&](node_id u, const forward_msg& m) {
    std::uint64_t* held = active[u].data();
    const std::uint64_t* got = m.ranks.data();
    for (std::size_t w = 0; w < active[u].words().size(); ++w) {
      const std::uint64_t fresh = got[w] & ~held[w];
      if (fresh == 0) continue;
      held[w] |= fresh;
      if (cfg.pipelined) unsent[u].data()[w] |= fresh;
      for (std::uint64_t bits = fresh; bits != 0; bits &= bits - 1) {
        const std::size_t t =
            order[w * 64 + static_cast<std::size_t>(std::countr_zero(bits))];
        NCDN_AUDIT(!st.knows(u, t));
        st.learn(u, t);
      }
    }
  };
  auto deliver = [&](node_id u, const std::vector<const forward_msg*>& inbox) {
    for (const forward_msg* m : inbox) receive(u, *m);
  };

  if (cfg.pipelined) {
    // Streaming mode: no finalization schedule (see header); run until the
    // observer sees completion or a generous cap.
    unsent = active;
    const round_t cap = round_cap(
        4.0 * static_cast<double>(phases) * static_cast<double>(phase_len),
        4 * static_cast<round_t>(n));
    for (round_t r = 0; r < cap && !st.all_complete(); ++r) {
      net.step<forward_msg>(
          st,
          [&](node_id u, rng&, forward_msg& m) {
            if (!unsent[u].any()) unsent[u] = active[u];  // restart stream
            m.d_bits = d;
            m.count = take_lowest(unsent[u], batch, /*consume=*/true, m.ranks);
            return m.count != 0;
          },
          deliver);
      co_await next_round;
    }
    finish_result(res, net, st, start_round);
    res.epochs = 1;
    co_return res;
  }

  bitvec first_choice;  // node 0's finalized ranks of this phase
  bitvec done;          // another node's
  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (round_t r = 0; r < phase_len; ++r) {
      net.step<forward_msg>(
          st,
          [&](node_id u, rng&, forward_msg& m) {
            m.d_bits = d;
            m.count = take_lowest(active[u], batch, /*consume=*/false, m.ranks);
            return m.count != 0;
          },
          deliver);
      co_await next_round;
      note_completion(res, net, st, start_round);
    }
    // Phase boundary: every node finalizes its `batch` smallest known
    // non-finalized tokens.  The min-flood argument (header comment)
    // guarantees all nodes pick the same set; asserted here.
    for (node_id u = 0; u < n; ++u) {
      bitvec& pick = u == 0 ? first_choice : done;
      take_lowest(active[u], batch, /*consume=*/true, pick);
      NCDN_ASSERT(u == 0 || done == first_choice);  // min-flood agreement
      for_each_rank(pick, [&](std::size_t rk) { st.retire(u, order[rk]); });
    }
  }

  finish_result(res, net, st, start_round);
  res.epochs = phases;
  co_return res;
}

}  // namespace ncdn
