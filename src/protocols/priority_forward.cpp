#include "protocols/priority_forward.hpp"

#include <algorithm>
#include <set>
#include <tuple>

#include "coding/budget.hpp"
#include "core/bits.hpp"
#include "protocols/coded_nodes.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/min_flood.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

namespace {

/// (priority, origin, block#): lexicographic order; origin/block# double as
/// the collision tiebreak the paper's "collisions are unlikely" absorbs.
using announcement = std::tuple<std::uint64_t, node_id, std::uint32_t>;

}  // namespace

round_task<priority_forward_result> priority_forward_machine(
    network& net, token_state& st, priority_forward_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  const std::size_t b = cfg.b_bits;
  NCDN_EXPECTS(b >= d);

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
      finish_result(res, net, st, start);
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

  retirement_ledger ledger(n);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    res.priority_iters = iter + 1;

    // 1. Each node groups its in-consideration tokens into blocks of g and
    //    draws a random priority per block.
    std::vector<block_layout> blocks(n);
    std::vector<std::set<announcement>> anns(n);
    for (node_id u = 0; u < n; ++u) {
      blocks[u] = token_blocks(st, u, g, dist.k());
      for (std::size_t j = 0; j < blocks[u].size(); ++j) {
        const std::uint64_t prio =
            net.node_rng(u)() >> (64 - std::min<std::size_t>(63, prio_bits));
        anns[u].emplace(prio, u, static_cast<std::uint32_t>(j));
      }
    }

    // 2. Select + index the s_target lowest-priority blocks.
    bool fail_seen = false;
    std::vector<announcement> selected;
    if (cfg.indexing == indexing_mode::charged) {
      // Simulates the paper's deferred recursive indexing subroutine:
      // consistent selection at a charged cost of O(n) rounds.
      const std::vector<bool>& fail = ledger.fail_bits();
      fail_seen = std::find(fail.begin(), fail.end(), true) != fail.end();
      const round_t charged =
          round_cap(cfg.charged_factor * static_cast<double>(n));
      co_await silent_wait(net, std::max<round_t>(1, charged));
      if (!fail_seen) {
        for (node_id u = 0; u < n; ++u) {
          selected.insert(selected.end(), anns[u].begin(), anns[u].end());
        }
        std::sort(selected.begin(), selected.end());
        if (selected.size() > s_target) selected.resize(s_target);
      }
    } else {
      // Batched min-flooding of announcements: anns_per_msg finalized per
      // O(n)-round phase (the paper's explicit O(n log n) fallback).  A
      // flagged iteration aborts before selecting (priorities go stale).
      min_flood_result<announcement> flood = co_await min_flood(
          net, st, std::move(anns), ledger.fail_bits(),
          ceil_div(s_target, anns_per_msg), anns_per_msg, ann_bits);
      fail_seen = flood.fail_seen;
      selected = std::move(flood.finalized);
    }
    ledger.close_flood(st, fail_seen);
    if (fail_seen) continue;
    if (selected.empty()) break;  // nothing remains

    // 3. Network-coded indexed broadcast of the selected blocks.
    const std::size_t s = selected.size();
    block_layout layout;
    for (const announcement& a : selected) {
      layout.push_back(blocks[std::get<1>(a)][std::get<2>(a)]);
    }
    rlnc_session session(n, s, block_bits);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < s; ++i) {
      session.seed(std::get<1>(selected[i]), i,
                   pack_block(dist, layout[i], block_bits));
    }
    const round_t bc_rounds = std::max<round_t>(
        1, round_cap(cfg.broadcast_factor * static_cast<double>(n + s)));
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    // 4. Decode, learn, retire.
    ledger.settle(st, session, layout);
    note_completion(res, net, st, start);
  }

  finish_result(res, net, st, start);
  res.epochs = res.greedy_epochs + res.priority_iters;
  co_return res;
}

}  // namespace ncdn
