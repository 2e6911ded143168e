#include "protocols/greedy_forward.hpp"

#include <algorithm>

#include "core/bits.hpp"
#include "protocols/coded_nodes.hpp"
#include "protocols/random_forward.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

round_task<protocol_result> greedy_forward_machine(
    network& net, token_state& st, greedy_forward_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);
  const coded_budget budget = block_budget(cfg.b_bits, d);

  const std::size_t max_epochs =
      cfg.max_epochs != 0 ? cfg.max_epochs : 16 + 8 * dist.k();

  protocol_result res;
  const round_t start = net.rounds_elapsed();

  retirement_ledger ledger(n);

  gather_config gcfg;
  gcfg.b_bits = cfg.b_bits;
  gcfg.gather_factor = cfg.gather_factor;
  gcfg.flood_factor = cfg.flood_factor;

  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    // --- gather + identify (also the termination / failure channel) ---
    const gather_result g =
        co_await random_forward_machine(net, st, gcfg, &ledger.fail_bits());
    // A fail bit means someone missed the last broadcast: undo its
    // retirement.
    ledger.close_flood(st, g.fail_seen);
    if (!g.fail_seen) {
      if (g.leader_count == 0) {
        res.epochs = epoch + 1;
        break;  // nothing remains anywhere: terminate
      }
      if (cfg.stop_when_gather_below != 0 &&
          g.leader_count < cfg.stop_when_gather_below) {
        res.epochs = epoch + 1;
        res.early_stop = true;  // hand off to priority-forward (§7)
        break;
      }
    }
    // Reinstated tokens exist but were not gatherable this epoch; loop.
    if (g.leader_count == 0) continue;

    // --- leader groups its tokens into blocks (indexing is trivial: the
    //     leader owns every broadcast item, §7) ---
    const node_id leader = g.leader;
    const block_layout blocks = token_blocks(
        st, leader, budget.tokens_per_item, budget.tokens_total);
    NCDN_ASSERT(!blocks.empty());
    const std::size_t k_items = blocks.size();

    // Globally computable broadcast length: every node knows leader_count
    // from the flood, hence the item count cap.
    const std::size_t k_cap = static_cast<std::size_t>(ceil_div(
        std::min(g.leader_count, budget.tokens_total), budget.tokens_per_item));
    NCDN_ASSERT(k_items <= k_cap);
    const round_t bc_rounds = std::max<round_t>(
        1, round_cap(cfg.broadcast_factor * static_cast<double>(n + k_cap)));

    rlnc_session session(n, k_items, budget.item_bits);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < k_items; ++i) {
      session.seed(leader, i, pack_block(dist, blocks[i], budget.item_bits));
    }
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    // --- decode, learn, retire ---
    ledger.settle(st, session, blocks);
    note_completion(res, net, st, start);
    res.epochs = epoch + 1;
  }

  finish_result(res, net, st, start);
  co_return res;
}

}  // namespace ncdn
