#include "protocols/tstable_dissemination.hpp"

#include <algorithm>
#include <set>

#include "core/bits.hpp"
#include "linalg/row_block.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/min_flood.hpp"
#include "protocols/random_forward.hpp"

namespace ncdn {

namespace {

struct engine_sizing {
  tstable_engine engine = tstable_engine::plain;
  std::size_t items = 0;
  std::size_t item_bits = 0;
  std::size_t tokens_per_item = 0;
};

engine_sizing choose_engine(const tstable_config& cfg, std::size_t n,
                            std::size_t d) {
  const auto fits = [&](tstable_engine engine) {
    return tstable_engine_fits(engine, n, cfg.b_bits, cfg.t_stability, d);
  };
  engine_sizing s;
  s.engine = cfg.engine;
  if (s.engine == tstable_engine::auto_select) {
    s.engine = fits(tstable_engine::patch)     ? tstable_engine::patch
               : fits(tstable_engine::chunked) ? tstable_engine::chunked
                                               : tstable_engine::plain;
  }
  NCDN_EXPECTS(fits(s.engine));
  if (s.engine == tstable_engine::patch ||
      s.engine == tstable_engine::patch_gather) {
    const patch_plan plan =
        plan_patch_broadcast(n, cfg.b_bits, cfg.t_stability);
    s.items = plan.items;
    s.item_bits = plan.item_bits;
  } else if (s.engine == tstable_engine::chunked) {
    const chunked_plan plan =
        plan_chunked_broadcast(cfg.b_bits, cfg.t_stability);
    s.items = plan.items;
    s.item_bits = plan.item_bits;
  } else {
    const coded_budget budget = block_budget(cfg.b_bits, d);
    s.items = budget.items;
    s.item_bits = budget.item_bits;
  }
  s.tokens_per_item = s.item_bits / d;
  return s;
}

/// One message of the in-patch token convergecast: a batch of token
/// payloads (identified simulation-side by index) addressed up-tree.
struct gather_up_msg {
  std::vector<std::size_t> tokens;
  node_id uid = 0;
  std::size_t d_bits = 0;
  std::size_t bit_size() const noexcept {
    return tokens.size() * d_bits + 32;
  }
};

// Generous per-epoch broadcast cap (Lemma 8.1 shape: (n + bT^2) log n).
round_t broadcast_cap(const tstable_config& cfg, std::size_t n) {
  const double t = static_cast<double>(cfg.t_stability);
  return round_cap(
      cfg.broadcast_cap_factor *
      (static_cast<double>(n) + static_cast<double>(cfg.b_bits) * t * t) *
      static_cast<double>(log2ceil(n) + 2));
}

/// §8.3 mode B: patch-pipelined gathering + patch broadcast.
round_task<tstable_result> patch_gather_machine(network& net, token_state& st,
                                                const tstable_config& cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  const round_t t = cfg.t_stability;
  const patch_plan plan = plan_patch_broadcast(n, cfg.b_bits, t);
  NCDN_EXPECTS(plan.feasible && plan.item_bits >= d);

  const std::size_t cap_tokens = plan.item_bits / d;  // per leader block
  const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / d);
  const std::size_t uid_bits = bits_for(n);
  const std::size_t anns_per_msg =
      std::max<std::size_t>(1, cfg.b_bits / uid_bits);
  const std::size_t s_cap = std::min(plan.items, anns_per_msg);

  tstable_result res;
  res.engine_used = tstable_engine::patch_gather;
  res.tokens_per_epoch = s_cap * cap_tokens;
  const round_t start = net.rounds_elapsed();

  const std::size_t max_epochs =
      cfg.max_epochs != 0 ? cfg.max_epochs : 16 + 8 * dist.k();
  const round_t bc_cap = broadcast_cap(cfg, n);
  retirement_ledger ledger(n);

  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    res.epochs = epoch + 1;
    // --- patches for this window ---
    const round_t mis_align = net.rounds_elapsed() % t;
    if (mis_align != 0) co_await silent_wait(net, t - mis_align);
    const round_t window_end = net.rounds_elapsed() + t;
    built_patches bp;
    if (!co_await build_patches_machine(net, plan, bp)) {
      co_await silent_wait(net, window_end - net.rounds_elapsed());
      continue;  // whp-rare; retry next window
    }

    // --- in-patch convergecast for the rest of the window: every node
    //     streams its in-consideration tokens up the tree; leaders gather
    //     up to one block ---
    std::vector<std::vector<std::size_t>> queue(n);
    std::vector<bitvec> queued;
    for (node_id u = 0; u < n; ++u) {
      queue[u] = st.remaining_tokens(u);
      queued.push_back(st.remaining_mask(u));
    }
    std::vector<std::vector<std::size_t>> gathered(n);
    for (node_id u = 0; u < n; ++u) {
      if (bp.is_leader[u]) {
        // The leader's own tokens count toward its block.
        for (std::size_t tk : queue[u]) {
          if (gathered[u].size() >= cap_tokens) break;
          gathered[u].push_back(tk);
        }
        queue[u].clear();
      }
    }
    while (net.rounds_elapsed() < window_end) {
      net.step<gather_up_msg>(
          st,
          [&](node_id u, rng&, gather_up_msg& m) {
            if (bp.is_leader[u] || queue[u].empty()) return false;
            m.uid = u;
            m.d_bits = d;
            const std::size_t take = std::min(batch, queue[u].size());
            m.tokens.assign(queue[u].end() - static_cast<std::ptrdiff_t>(take),
                            queue[u].end());
            queue[u].resize(queue[u].size() - take);
            return true;
          },
          [&](node_id u, const std::vector<const gather_up_msg*>& inbox) {
            for (const gather_up_msg* m : inbox) {
              const auto& kids = bp.children[u];
              if (!std::binary_search(kids.begin(), kids.end(), m->uid)) {
                continue;
              }
              for (std::size_t tk : m->tokens) {
                st.learn(u, tk);  // relays learn what passes through them
                if (bp.is_leader[u]) {
                  if (gathered[u].size() < cap_tokens &&
                      !queued[u].get(tk)) {
                    gathered[u].push_back(tk);
                    queued[u].set(tk);
                  }
                } else if (!queued[u].get(tk)) {
                  queue[u].push_back(tk);
                  queued[u].set(tk);
                }
              }
            }
          });
      co_await next_round;
    }

    // --- index blocks: flood the holders' UIDs (plus the fail bit) for n
    //     rounds; everyone selects the s_cap smallest consistently ---
    std::vector<std::set<node_id>> holders(n);
    for (node_id u = 0; u < n; ++u) {
      if (bp.is_leader[u] && !gathered[u].empty()) holders[u].insert(u);
    }
    min_flood_result<node_id> flood = co_await min_flood(
        net, st, std::move(holders), ledger.fail_bits(), 1, anns_per_msg,
        uid_bits);
    ledger.close_flood(st, flood.fail_seen);
    if (flood.fail_seen) continue;
    std::vector<node_id>& selected = flood.finalized;
    if (selected.empty()) break;  // nothing left anywhere
    if (selected.size() > s_cap) selected.resize(s_cap);

    // --- patch broadcast of the selected blocks ---
    patch_plan bc_plan = plan;
    bc_plan.items = selected.size();
    tstable_patch_session session(bc_plan);
    block_layout blocks;
    for (std::size_t i = 0; i < selected.size(); ++i) {
      blocks.push_back(std::move(gathered[selected[i]]));
      session.seed(selected[i], i,
                   pack_block(dist, blocks[i], plan.item_bits));
    }
    co_await session.run_stepped(net, bc_cap, /*stop_early=*/true);
    ledger.settle(st, session, blocks);
    note_completion(res, net, st, start);
  }

  finish_result(res, net, st, start);
  co_return res;
}

}  // namespace

// Items and item bits each stay below one vector's bits, so bounding the
// vector keeps the item count under the coders' pivot indices.
static_assert(tstable_max_vector_bits <= pivot_index_bound);

bool tstable_engine_fits(tstable_engine engine, std::size_t n,
                         std::size_t b_bits, round_t t_stability,
                         std::size_t d) {
  if (engine == tstable_engine::plain ||
      engine == tstable_engine::auto_select) {
    return true;
  }
  if (b_bits < 2) return false;  // both plans' precondition
  // A vector is b * t_vec bits, checked without forming the product (it
  // wraps a size_t on huge windows, as the plans' own sizes then do).
  const auto sized = [&](round_t t_vec, std::size_t item_bits) {
    return item_bits >= d && t_vec <= tstable_max_vector_bits / b_bits;
  };
  if (engine == tstable_engine::chunked) {
    const chunked_plan plan = plan_chunked_broadcast(b_bits, t_stability);
    return sized(plan.t_vec, plan.item_bits);
  }
  const patch_plan plan = plan_patch_broadcast(n, b_bits, t_stability);
  return plan.feasible && sized(plan.t_vec, plan.item_bits);
}

round_task<tstable_result> tstable_machine(network& net, token_state& st,
                                           tstable_config cfg) {
  const token_distribution& dist = st.distribution();
  const std::size_t n = dist.n;
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(cfg.b_bits >= d);

  const engine_sizing sizing = choose_engine(cfg, n, d);
  if (sizing.engine == tstable_engine::patch_gather) {
    co_return co_await patch_gather_machine(net, st, cfg);
  }
  if (sizing.engine == tstable_engine::plain) {
    // Ordinary greedy-forward: the T-independent control arm.
    greedy_forward_config gf;
    gf.b_bits = cfg.b_bits;
    gf.gather_factor = cfg.gather_factor;
    gf.flood_factor = cfg.flood_factor;
    gf.max_epochs = cfg.max_epochs;
    const protocol_result base = co_await greedy_forward_machine(net, st, gf);
    tstable_result out;
    static_cast<protocol_result&>(out) = base;
    out.engine_used = tstable_engine::plain;
    out.tokens_per_epoch = sizing.items * sizing.tokens_per_item;
    co_return out;
  }

  const std::size_t tokens_total = sizing.items * sizing.tokens_per_item;
  const std::size_t max_epochs =
      cfg.max_epochs != 0 ? cfg.max_epochs : 16 + 8 * dist.k();

  tstable_result res;
  res.engine_used = sizing.engine;
  res.tokens_per_epoch = tokens_total;
  const round_t start = net.rounds_elapsed();
  retirement_ledger ledger(n);

  gather_config gcfg;
  gcfg.b_bits = cfg.b_bits;
  gcfg.gather_factor = cfg.gather_factor;
  gcfg.flood_factor = cfg.flood_factor;

  const round_t bc_cap = broadcast_cap(cfg, n);

  for (std::size_t epoch = 0; epoch < max_epochs; ++epoch) {
    const gather_result g =
        co_await random_forward_machine(net, st, gcfg, &ledger.fail_bits());
    ledger.close_flood(st, g.fail_seen);
    if (g.fail_seen) continue;
    if (g.leader_count == 0) {
      res.epochs = epoch + 1;
      break;
    }

    const node_id leader = g.leader;
    const block_layout blocks =
        token_blocks(st, leader, sizing.tokens_per_item, tokens_total);
    NCDN_ASSERT(!blocks.empty());
    const std::size_t k_items = blocks.size();

    auto seed_items = [&](coded_nodes& session) {
      for (std::size_t i = 0; i < k_items; ++i) {
        session.seed(leader, i,
                     pack_block(dist, blocks[i], sizing.item_bits));
      }
    };

    // The coefficient width shrinks to the epoch's actual item count
    // (globally derivable: everyone knows leader_count from the flood).
    if (sizing.engine == tstable_engine::patch) {
      patch_plan plan = plan_patch_broadcast(n, cfg.b_bits, cfg.t_stability);
      plan.items = std::min(plan.items, k_items);
      tstable_patch_session session(plan);
      seed_items(session);
      co_await session.run_stepped(net, bc_cap, /*stop_early=*/true);
      ledger.settle(st, session, blocks);
    } else {
      chunked_meta_session session(n, cfg.b_bits, cfg.t_stability, k_items);
      seed_items(session);
      co_await session.run_stepped(net, bc_cap, /*stop_early=*/true);
      ledger.settle(st, session, blocks);
    }

    note_completion(res, net, st, start);
    res.epochs = epoch + 1;
  }

  finish_result(res, net, st, start);
  co_return res;
}

}  // namespace ncdn
