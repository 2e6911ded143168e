#include "protocols/random_forward.hpp"

#include <algorithm>

#include "core/bits.hpp"

namespace ncdn {

namespace {

struct random_forward_msg {
  std::vector<std::size_t> tokens;
  std::size_t d_bits = 0;
  std::size_t bit_size() const noexcept { return tokens.size() * d_bits; }
};

struct max_flood_msg {
  std::size_t count = 0;
  node_id uid = 0;
  bool fail = false;
  std::size_t wire_bits = 0;
  std::size_t bit_size() const noexcept { return wire_bits; }
};

}  // namespace

round_task<gather_result> random_forward_machine(
    network& net, token_state& st, gather_config cfg,
    const std::vector<bool>* fail_bits) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / d);

  // Per-node vector of in-consideration known tokens, for O(1) sampling.
  // (Sampling *with* replacement within a message would waste slots; we
  // sample a random prefix via partial Fisher-Yates.)
  std::vector<std::vector<std::size_t>> pool(n);
  for (node_id u = 0; u < n; ++u) pool[u] = st.remaining_tokens(u);

  const round_t start = net.rounds_elapsed();
  const round_t gather_rounds = std::max<round_t>(
      1, round_cap(cfg.gather_factor * static_cast<double>(n)));

  for (round_t r = 0; r < gather_rounds; ++r) {
    net.step<random_forward_msg>(
        st,
        [&](node_id u, rng& prng) -> std::optional<random_forward_msg> {
          auto& mine = pool[u];
          if (mine.empty()) return std::nullopt;
          random_forward_msg m;
          m.d_bits = d;
          const std::size_t take = std::min(batch, mine.size());
          for (std::size_t i = 0; i < take; ++i) {
            const std::size_t j = i + prng.below(mine.size() - i);
            std::swap(mine[i], mine[j]);
            m.tokens.push_back(mine[i]);
          }
          return m;
        },
        [&](node_id u, const std::vector<const random_forward_msg*>& inbox) {
          for (const random_forward_msg* m : inbox) {
            for (std::size_t t : m->tokens) {
              if (!st.knows(u, t)) {
                st.learn(u, t);
                if (st.in_consideration(u, t)) pool[u].push_back(t);
              }
            }
          }
        });
    co_await next_round;
  }

  // Max-identification flood: (count, uid) lexicographic maximum plus the
  // sticky failure flag.  Connectivity spreads the running maximum to at
  // least one new node per round, so factor * n >= n - 1 rounds suffice.
  const std::size_t count_bits = bits_for(dist.k() + 1);
  const std::size_t uid_bits = bits_for(n);
  std::vector<max_flood_msg> best(n);
  for (node_id u = 0; u < n; ++u) {
    best[u].count = st.remaining_count(u);
    best[u].uid = u;
    best[u].fail = fail_bits != nullptr && (*fail_bits)[u];
    best[u].wire_bits = count_bits + uid_bits + 1;
  }
  auto better = [](const max_flood_msg& a, const max_flood_msg& b) {
    return a.count != b.count ? a.count > b.count : a.uid > b.uid;
  };

  const round_t flood_rounds = std::max<round_t>(
      1, round_cap(cfg.flood_factor * static_cast<double>(n)));
  for (round_t r = 0; r < flood_rounds; ++r) {
    net.step<max_flood_msg>(
        st,
        [&](node_id u, rng&) -> std::optional<max_flood_msg> {
          return best[u];
        },
        [&](node_id u, const std::vector<const max_flood_msg*>& inbox) {
          for (const max_flood_msg* m : inbox) {
            if (better(*m, best[u])) {
              best[u].count = m->count;
              best[u].uid = m->uid;
            }
            best[u].fail = best[u].fail || m->fail;
          }
        });
    co_await next_round;
  }

  gather_result res;
  res.leader = best[0].uid;
  res.leader_count = best[0].count;
  res.fail_seen = best[0].fail;
  for (node_id u = 1; u < n; ++u) {
    // All nodes agree after a full flood.
    NCDN_ASSERT(best[u].uid == res.leader && best[u].count == res.leader_count);
    res.fail_seen = res.fail_seen || best[u].fail;
  }
  res.rounds = net.rounds_elapsed() - start;
  co_return res;
}

}  // namespace ncdn
