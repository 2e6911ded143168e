#include "protocols/priority_forward.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "coding/budget.hpp"
#include "core/bits.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

namespace {

/// (priority, origin, block#): lexicographic order; origin/block# double as
/// the collision tiebreak the paper's "collisions are unlikely" absorbs.
using announcement = std::tuple<std::uint64_t, node_id, std::uint32_t>;

struct ann_flood_msg {
  std::vector<announcement> anns;
  bool fail = false;
  std::size_t ann_bits = 0;
  std::size_t bit_size() const noexcept {
    return anns.size() * ann_bits + 1;
  }
};

}  // namespace

round_task<priority_forward_result> priority_forward_machine(
    network& net, token_state& st, priority_forward_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  const std::size_t b = cfg.b_bits;
  NCDN_EXPECTS(b >= d);
  const payload_index by_payload(dist);

  priority_forward_result res;
  const round_t start = net.rounds_elapsed();

  // --- Phase A: greedy-forward while gathering is productive (§7) ---
  const coded_budget greedy_budget = block_budget(b, d);
  if (!cfg.skip_greedy_phase) {
    greedy_forward_config gf;
    gf.b_bits = b;
    gf.stop_when_gather_below =
        std::max<std::size_t>(2, greedy_budget.tokens_total);
    const protocol_result greedy =
        co_await greedy_forward_machine(net, st, gf);
    res.greedy_epochs = greedy.epochs;
    if (!greedy.early_stop) {
      // Greedy already finished the whole job.
      res.rounds = net.rounds_elapsed() - start;
      res.complete = st.all_complete();
      res.completion_round = res.rounds;
      res.max_message_bits = net.max_observed_message_bits();
      co_return res;
    }
  }

  // --- Phase B: the priority while-loop ---
  const std::size_t g = std::max<std::size_t>(1, b / d);  // tokens per block
  const std::size_t block_bits = g * d;
  const std::size_t s_target = b;  // "index Theta(b) random blocks"
  const std::size_t prio_bits = 2 * bits_for(n) + 8;
  const std::size_t ann_bits = prio_bits + bits_for(n) + bits_for(dist.k() + 1);
  const std::size_t anns_per_msg =
      std::max<std::size_t>(1, b / ann_bits);

  const std::size_t max_iters =
      cfg.max_iterations != 0
          ? cfg.max_iterations
          : 64 + 20 * ((dist.k() * d) / (b * b) + 1) * (log2ceil(n) + 2);

  std::vector<bool> raise_fail(n, false);
  std::vector<std::vector<std::size_t>> last_iter_tokens(n);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    res.priority_iters = iter + 1;

    // 1. Each node groups its in-consideration tokens into blocks of g and
    //    draws a random priority per block.
    std::vector<std::vector<std::vector<std::size_t>>> blocks(n);
    std::vector<std::vector<announcement>> own_anns(n);
    std::size_t total_blocks = 0;
    for (node_id u = 0; u < n; ++u) {
      const bitvec& mask = st.remaining_mask(u);
      std::vector<std::size_t> mine;
      for (std::size_t t = mask.first_set(); t < mask.size();
           t = mask.first_set_from(t + 1)) {
        mine.push_back(t);
      }
      for (std::size_t off = 0; off < mine.size(); off += g) {
        std::vector<std::size_t> blk(
            mine.begin() + static_cast<std::ptrdiff_t>(off),
            mine.begin() +
                static_cast<std::ptrdiff_t>(std::min(off + g, mine.size())));
        const std::uint64_t prio =
            net.node_rng(u)() >> (64 - std::min<std::size_t>(63, prio_bits));
        own_anns[u].emplace_back(prio, u,
                                 static_cast<std::uint32_t>(blocks[u].size()));
        blocks[u].push_back(std::move(blk));
        ++total_blocks;
      }
    }

    // 2. Select + index the s_target lowest-priority blocks.
    bool fail_seen = false;
    std::vector<announcement> selected;
    bool empty_detected = false;

    if (cfg.indexing == indexing_mode::charged) {
      // Simulates the paper's deferred recursive indexing subroutine:
      // consistent selection at a charged cost of O(n) rounds.
      for (node_id u = 0; u < n; ++u) fail_seen = fail_seen || raise_fail[u];
      const round_t charged =
          round_cap(cfg.charged_factor * static_cast<double>(n));
      co_await silent_wait(net, std::max<round_t>(1, charged));
      if (!fail_seen) {
        for (node_id u = 0; u < n; ++u) {
          for (const announcement& a : own_anns[u]) selected.push_back(a);
        }
        std::sort(selected.begin(), selected.end());
        if (selected.size() > s_target) selected.resize(s_target);
        empty_detected = selected.empty();
      }
    } else {
      // Batched min-flooding of announcements: anns_per_msg finalized per
      // O(n)-round phase (the paper's explicit O(n log n) fallback).
      std::vector<std::set<announcement>> known(n);
      std::vector<std::set<announcement>> finalized_set(n);
      std::vector<bool> fail_bit(raise_fail.begin(), raise_fail.end());
      for (node_id u = 0; u < n; ++u) {
        known[u].insert(own_anns[u].begin(), own_anns[u].end());
      }
      const std::size_t phases = ceil_div(s_target, anns_per_msg);
      for (std::size_t phase = 0; phase < phases; ++phase) {
        for (std::size_t r = 0; r < n; ++r) {
          net.step<ann_flood_msg>(
              st,
              [&](node_id u, rng&) -> std::optional<ann_flood_msg> {
                ann_flood_msg m;
                m.ann_bits = ann_bits;
                m.fail = fail_bit[u];
                for (const announcement& a : known[u]) {
                  if (m.anns.size() >= anns_per_msg) break;
                  m.anns.push_back(a);
                }
                if (m.anns.empty() && !m.fail) return std::nullopt;
                return m;
              },
              [&](node_id u, const std::vector<const ann_flood_msg*>& inbox) {
                for (const ann_flood_msg* m : inbox) {
                  fail_bit[u] = fail_bit[u] || m->fail;
                  for (const announcement& a : m->anns) {
                    if (finalized_set[u].count(a) == 0) known[u].insert(a);
                  }
                }
              });
          co_await next_round;
        }
        // After one full phase the fail bit has flooded everywhere; a
        // flagged iteration aborts before selecting (priorities go stale).
        if (phase == 0) {
          bool any_fail = false;
          bool any_known = false;
          for (node_id u = 0; u < n; ++u) {
            any_fail = any_fail || fail_bit[u];
            any_known = any_known || !known[u].empty();
          }
          if (any_fail) {
            fail_seen = true;
            break;
          }
          if (!any_known) {
            empty_detected = true;
            break;
          }
        }
        // Finalize the anns_per_msg smallest known announcements; the
        // min-flood argument gives agreement across nodes (asserted).
        std::vector<announcement> first;
        for (node_id u = 0; u < n; ++u) {
          std::vector<announcement> done;
          for (const announcement& a : known[u]) {
            if (done.size() >= anns_per_msg) break;
            done.push_back(a);
          }
          if (u == 0) {
            first = done;
          } else {
            NCDN_ASSERT(done == first);
          }
          for (const announcement& a : done) {
            known[u].erase(a);
            finalized_set[u].insert(a);
          }
        }
        for (const announcement& a : first) selected.push_back(a);
      }
      std::sort(selected.begin(), selected.end());
    }

    if (fail_seen) {
      for (node_id u = 0; u < n; ++u) {
        for (std::size_t t : last_iter_tokens[u]) st.reinstate(u, t);
        last_iter_tokens[u].clear();
      }
      std::fill(raise_fail.begin(), raise_fail.end(), false);
      continue;
    }
    std::fill(raise_fail.begin(), raise_fail.end(), false);
    for (auto& v : last_iter_tokens) v.clear();
    if (empty_detected || selected.empty()) break;  // nothing remains

    // 3. Network-coded indexed broadcast of the selected blocks.
    const std::size_t s = selected.size();
    rlnc_session session(n, s, block_bits);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < s; ++i) {
      const node_id origin = std::get<1>(selected[i]);
      const std::uint32_t idx = std::get<2>(selected[i]);
      session.seed(origin, i,
                   pack_block(dist, blocks[origin][idx], block_bits));
    }
    const round_t bc_rounds = std::max<round_t>(
        1, round_cap(cfg.broadcast_factor * static_cast<double>(n + s)));
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    // 4. Decode, learn, retire.
    for (node_id u = 0; u < n; ++u) {
      if (!session.node_complete(u)) {
        raise_fail[u] = true;
        last_iter_tokens[u].clear();
        continue;
      }
      std::vector<std::size_t> decoded =
          unpack_blocks(session, u, by_payload, d);
      for (std::size_t t : decoded) {
        st.learn(u, t);
        st.retire(u, t);
      }
      last_iter_tokens[u] = std::move(decoded);
    }

    if (res.completion_round == 0 && st.all_complete()) {
      res.completion_round = net.rounds_elapsed() - start;
    }
  }

  res.rounds = net.rounds_elapsed() - start;
  res.complete = st.all_complete();
  if (res.completion_round == 0 && res.complete) {
    res.completion_round = res.rounds;
  }
  res.max_message_bits = net.max_observed_message_bits();
  res.epochs = res.greedy_epochs + res.priority_iters;
  co_return res;
}

}  // namespace ncdn
