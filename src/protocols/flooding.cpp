#include "protocols/flooding.hpp"

#include <algorithm>

#include "linalg/bitvec.hpp"

namespace ncdn {

namespace {

/// A token-forwarding message: up to B tokens, each d bits on the wire.
struct forward_msg {
  std::vector<std::size_t> tokens;  // global token indices (wire: payloads)
  std::size_t d_bits = 0;
  std::size_t bit_size() const noexcept { return tokens.size() * d_bits; }
};

/// The `batch` lowest set ranks of `mask`, ascending: what a node sends or
/// finalizes.
std::vector<std::size_t> lowest_ranks(const bitvec& mask, std::size_t batch) {
  std::vector<std::size_t> out;
  out.reserve(std::min(batch, mask.popcount()));
  for (std::size_t r = mask.first_set(); r < mask.size() && out.size() < batch;
       r = mask.first_set_from(r + 1)) {
    out.push_back(r);
  }
  return out;
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

  auto learn = [&](node_id u, std::size_t t) {
    if (!st.knows(u, t)) {
      st.learn(u, t);
      active[u].set(rank_of[t]);
      if (cfg.pipelined) unsent[u].set(rank_of[t]);
    }
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
          [&](node_id u, rng&) -> std::optional<forward_msg> {
            if (!unsent[u].any()) unsent[u] = active[u];  // restart stream
            forward_msg m;
            m.d_bits = d;
            m.tokens = lowest_ranks(unsent[u], batch);
            for (std::size_t& t : m.tokens) {
              unsent[u].set(t, false);
              t = order[t];
            }
            if (m.tokens.empty()) return std::nullopt;
            return m;
          },
          [&](node_id u, const std::vector<const forward_msg*>& inbox) {
            for (const forward_msg* m : inbox) {
              for (std::size_t t : m->tokens) learn(u, t);
            }
          });
      co_await next_round;
    }
    finish_result(res, net, st, start_round);
    res.epochs = 1;
    co_return res;
  }

  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (round_t r = 0; r < phase_len; ++r) {
      net.step<forward_msg>(
          st,
          [&](node_id u, rng&) -> std::optional<forward_msg> {
            forward_msg m;
            m.d_bits = d;
            m.tokens = lowest_ranks(active[u], batch);
            for (std::size_t& t : m.tokens) t = order[t];
            if (m.tokens.empty()) return std::nullopt;
            return m;
          },
          [&](node_id u, const std::vector<const forward_msg*>& inbox) {
            for (const forward_msg* m : inbox) {
              for (std::size_t t : m->tokens) learn(u, t);
            }
          });
      co_await next_round;
      note_completion(res, net, st, start_round);
    }
    // Phase boundary: every node finalizes its `batch` smallest known
    // non-finalized tokens.  The min-flood argument (header comment)
    // guarantees all nodes pick the same set; asserted here.
    std::vector<std::size_t> first_choice;
    for (node_id u = 0; u < n; ++u) {
      const std::vector<std::size_t> done = lowest_ranks(active[u], batch);
      if (u == 0) {
        first_choice = done;
      } else {
        NCDN_ASSERT(done == first_choice);  // min-flood agreement
      }
      for (std::size_t rk : done) {
        active[u].set(rk, false);
        st.retire(u, order[rk]);
      }
    }
  }

  finish_result(res, net, st, start_round);
  res.epochs = phases;
  co_return res;
}

}  // namespace ncdn
