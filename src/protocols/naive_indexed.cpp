#include "protocols/naive_indexed.hpp"

#include <algorithm>
#include <set>

#include "core/bits.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

namespace {

struct id_flood_msg {
  std::vector<std::uint64_t> ids;  // packed token ids
  bool fail = false;
  std::size_t id_bits = 0;
  std::size_t bit_size() const noexcept {
    return ids.size() * id_bits + 1;
  }
};

}  // namespace

round_task<protocol_result> naive_indexed_machine(
    network& net, token_state& st, naive_indexed_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t k = dist.k();
  const std::size_t d = dist.d_bits;
  const std::size_t id_bits = dist.id_bits();
  NCDN_EXPECTS(cfg.b_bits >= d);
  NCDN_EXPECTS(cfg.b_bits >= 2 * id_bits);

  // m IDs per iteration: half the message for coefficients in the coded
  // phase, and the flood carries m IDs per message.
  const std::size_t m = std::max<std::size_t>(1, cfg.b_bits / (2 * id_bits));

  // packed id -> token index.
  std::vector<std::uint64_t> packed_of(k);
  for (std::size_t t = 0; t < k; ++t) packed_of[t] = dist.tokens[t].id.packed();

  const std::size_t max_iters =
      cfg.max_iterations != 0 ? cfg.max_iterations : 8 + 4 * ceil_div(k, m) * 2;

  protocol_result res;
  const round_t start = net.rounds_elapsed();
  std::vector<bool> raise_fail(n, false);
  std::vector<std::vector<std::size_t>> last_iter_tokens(n);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // --- min-flood of the m smallest unretired IDs (n rounds) ---
    std::vector<std::set<std::uint64_t>> known(n);
    std::vector<bool> fail_bit(raise_fail.begin(), raise_fail.end());
    std::fill(raise_fail.begin(), raise_fail.end(), false);
    for (node_id u = 0; u < n; ++u) {
      const bitvec& mask = st.remaining_mask(u);
      for (std::size_t t = mask.first_set(); t < mask.size();
           t = mask.first_set_from(t + 1)) {
        known[u].insert(packed_of[t]);
      }
    }
    for (std::size_t r = 0; r < n; ++r) {
      net.step<id_flood_msg>(
          st,
          [&](node_id u, rng&) -> std::optional<id_flood_msg> {
            id_flood_msg msg;
            msg.id_bits = id_bits;
            msg.fail = fail_bit[u];
            for (std::uint64_t id : known[u]) {
              if (msg.ids.size() >= m) break;
              msg.ids.push_back(id);
            }
            if (msg.ids.empty() && !msg.fail) return std::nullopt;
            return msg;
          },
          [&](node_id u, const std::vector<const id_flood_msg*>& inbox) {
            for (const id_flood_msg* msg : inbox) {
              fail_bit[u] = fail_bit[u] || msg->fail;
              for (std::uint64_t id : msg->ids) known[u].insert(id);
            }
          });
      co_await next_round;
    }
    bool fail_seen = false;
    for (node_id u = 0; u < n; ++u) fail_seen = fail_seen || fail_bit[u];
    if (fail_seen) {
      for (node_id u = 0; u < n; ++u) {
        for (std::size_t t : last_iter_tokens[u]) st.reinstate(u, t);
        last_iter_tokens[u].clear();
      }
      continue;
    }
    for (auto& v : last_iter_tokens) v.clear();

    // All nodes agree on the m smallest (min-flood, full n rounds).
    std::vector<std::uint64_t> selected;
    {
      std::vector<std::uint64_t> first;
      for (node_id u = 0; u < n; ++u) {
        std::vector<std::uint64_t> mine;
        for (std::uint64_t id : known[u]) {
          if (mine.size() >= m) break;
          mine.push_back(id);
        }
        if (u == 0) {
          first = mine;
        } else {
          NCDN_ASSERT(mine == first);
        }
      }
      selected = std::move(first);
    }
    if (selected.empty()) {
      res.epochs = iter + 1;
      break;  // nothing unretired anywhere
    }

    // --- indexed broadcast of the selected tokens (sorted-ID indexing) ---
    std::vector<std::size_t> sel_tokens;
    for (std::uint64_t id : selected) {
      const auto it =
          std::lower_bound(packed_of.begin(), packed_of.end(), id);
      NCDN_ASSERT(it != packed_of.end() && *it == id);
      sel_tokens.push_back(
          static_cast<std::size_t>(it - packed_of.begin()));
    }
    rlnc_session session(n, sel_tokens.size(), d);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < sel_tokens.size(); ++i) {
      for (node_id u = 0; u < n; ++u) {
        if (st.knows(u, sel_tokens[i])) {
          session.seed(u, i, dist.tokens[sel_tokens[i]].payload);
        }
      }
    }
    const round_t bc_rounds = std::max<round_t>(
        1, round_cap(cfg.broadcast_factor *
                     static_cast<double>(n + sel_tokens.size())));
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    for (node_id u = 0; u < n; ++u) {
      if (!session.node_complete(u)) {
        raise_fail[u] = true;
        continue;
      }
      for (std::size_t i = 0; i < sel_tokens.size(); ++i) {
        st.learn(u, sel_tokens[i]);
        st.retire(u, sel_tokens[i]);
        last_iter_tokens[u].push_back(sel_tokens[i]);
      }
    }
    if (res.completion_round == 0 && st.all_complete()) {
      res.completion_round = net.rounds_elapsed() - start;
    }
    res.epochs = iter + 1;
  }

  res.rounds = net.rounds_elapsed() - start;
  res.complete = st.all_complete();
  if (res.completion_round == 0 && res.complete) {
    res.completion_round = res.rounds;
  }
  res.max_message_bits = net.max_observed_message_bits();
  co_return res;
}

}  // namespace ncdn
