#include "protocols/naive_indexed.hpp"

#include <algorithm>
#include <set>

#include "core/bits.hpp"
#include "protocols/coded_nodes.hpp"
#include "protocols/min_flood.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

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
  retirement_ledger ledger(n);

  for (std::size_t iter = 0; iter < max_iters; ++iter) {
    // --- min-flood of the m smallest unretired IDs (n rounds) ---
    std::vector<std::set<std::uint64_t>> ids(n);
    for (node_id u = 0; u < n; ++u) {
      for (std::size_t t : st.remaining_tokens(u)) ids[u].insert(packed_of[t]);
    }
    const min_flood_result<std::uint64_t> flood = co_await min_flood(
        net, st, std::move(ids), ledger.fail_bits(), 1, m, id_bits);
    ledger.close_flood(st, flood.fail_seen);
    if (flood.fail_seen) continue;
    if (flood.finalized.empty()) {
      res.epochs = iter + 1;
      break;  // nothing unretired anywhere
    }

    // --- indexed broadcast of the selected tokens (sorted-ID indexing),
    //     one token per item ---
    block_layout blocks;
    for (std::uint64_t id : flood.finalized) {
      const auto it =
          std::lower_bound(packed_of.begin(), packed_of.end(), id);
      NCDN_ASSERT(it != packed_of.end() && *it == id);
      blocks.push_back({static_cast<std::size_t>(it - packed_of.begin())});
    }
    rlnc_session session(n, blocks.size(), d);
    session.set_arena(net.arena());
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const std::size_t t = blocks[i][0];
      for (node_id u = 0; u < n; ++u) {
        if (st.knows(u, t)) session.seed(u, i, dist.tokens[t].payload);
      }
    }
    const round_t bc_rounds = std::max<round_t>(
        1, round_cap(cfg.broadcast_factor *
                     static_cast<double>(n + blocks.size())));
    co_await session.run_stepped(net, bc_rounds, /*stop_early=*/false);

    ledger.settle(st, session, blocks);
    note_completion(res, net, st, start);
    res.epochs = iter + 1;
  }

  finish_result(res, net, st, start);
  co_return res;
}

}  // namespace ncdn
