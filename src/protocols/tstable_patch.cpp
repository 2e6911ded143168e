#include "protocols/tstable_patch.hpp"

#include <algorithm>
#include <map>

#include "coding/matrix.hpp"
#include "core/bits.hpp"

namespace ncdn {

// ---------------------------------------------------------------------------
// Sizing
// ---------------------------------------------------------------------------

patch_plan plan_patch_broadcast(std::size_t n, std::size_t b_bits,
                                round_t t_window) {
  NCDN_EXPECTS(n >= 2 && b_bits >= 2 && t_window >= 1);
  patch_plan p;
  p.n = n;
  p.b_bits = b_bits;
  p.t_window = t_window;
  p.t_vec = std::max<round_t>(1, t_window / 8);
  const std::size_t vec_bits =
      b_bits * static_cast<std::size_t>(p.t_vec);
  p.items = std::max<std::size_t>(1, vec_bits / 2);
  p.item_bits = std::max<std::size_t>(1, vec_bits - p.items);
  p.luby_iters = std::max<std::size_t>(4, log2ceil(n));

  // Largest patch radius D whose patching cost fits half a window while
  // still leaving room for at least one share-pass-share cycle (the paper's
  // D = Theta(T / log n) with constants made explicit).
  const round_t budget = t_window / 2;
  std::uint32_t d = 0;
  for (std::uint32_t cand = 1; cand <= n; ++cand) {
    const round_t patch_r =
        static_cast<round_t>(p.luby_iters) * (2 * cand) + cand + 2;
    const round_t cycle_r = 5 * p.t_vec + 4 * cand;
    if (patch_r <= budget && patch_r + cycle_r <= t_window) {
      d = cand;
    } else {
      break;
    }
  }
  if (d == 0) {
    p.d_patch = 1;
    p.patch_rounds =
        static_cast<round_t>(p.luby_iters) * 2 + 3;
    p.cycle_rounds = 5 * p.t_vec + 4;
    p.feasible = false;
    return p;
  }
  p.d_patch = d;
  p.patch_rounds = static_cast<round_t>(p.luby_iters) * (2 * d) + d + 2;
  p.cycle_rounds = 5 * p.t_vec + 4 * d;
  p.feasible = true;
  return p;
}

chunked_plan plan_chunked_broadcast(std::size_t b_bits, round_t t_window,
                                    std::size_t items_cap) {
  NCDN_EXPECTS(b_bits >= 2 && t_window >= 1);
  chunked_plan p;
  p.t_vec = std::max<round_t>(1, t_window / 2);
  const std::size_t vec_bits = b_bits * static_cast<std::size_t>(p.t_vec);
  p.items = std::max<std::size_t>(1, vec_bits / 2);
  p.item_bits = std::max<std::size_t>(1, vec_bits - p.items);
  if (items_cap != 0) p.items = std::min(p.items, items_cap);
  return p;
}

// ---------------------------------------------------------------------------
// Messages
// ---------------------------------------------------------------------------

namespace {

struct prio_msg {
  std::uint64_t prio = 0;
  node_id uid = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct ttl_msg {
  std::uint32_t ttl = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct wave_msg {
  node_id leader = 0;
  std::uint32_t depth = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct assign_msg {
  node_id uid = 0;
  node_id leader = 0;
  std::uint32_t depth = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct child_msg {
  node_id uid = 0;
  node_id parent = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct chunk_msg {
  bitvec chunk;
  std::uint32_t index = 0;
  node_id uid = 0;
  std::size_t tag_bits = 0;
  std::size_t bit_size() const noexcept { return chunk.size() + tag_bits; }
};

constexpr node_id no_node = 0xffffffffu;

// ---------------------------------------------------------------------------
// Chunked vector exchange: idea (1), and patching's pass step.
// ---------------------------------------------------------------------------

// A chunk's tag: its index (< t_vec) and the sender's id, plus framing.
std::size_t chunk_tag_bits(round_t t_vec, std::size_t n) {
  return bits_for(static_cast<std::uint64_t>(t_vec) + 1) + bits_for(n) + 2;
}

// Chunk c of a row: b bits from c * b on.  The row may be shorter than
// t_vec * b bits when the item count was capped below the plan's default;
// trailing chunks are empty.
bitvec chunk_of(const bitvec& row, std::size_t c, std::size_t b_bits) {
  const std::size_t begin = std::min(c * b_bits, row.size());
  return row.slice(begin, std::min(b_bits, row.size() - begin));
}

// Idea (1): every node ships its vector to all neighbours one b-bit chunk
// per round over t_vec rounds (an empty vector is a silent node).  In the
// last round's deliver each node inserts the vectors that arrived whole, in
// sender-id order, and records decode progress.  Under full T-stability
// every neighbour's vector completes; under the weaker T-interval
// connectivity only the stable-tree neighbours are guaranteed to, and
// partial vectors from churning edges are dropped.
round_task<void> exchange_vectors(network& net, coded_nodes& nodes,
                                  const std::vector<bitvec>& outgoing,
                                  std::size_t b_bits, round_t t_vec) {
  const std::size_t n = nodes.node_count();
  const std::size_t row_bits = nodes.items() + nodes.item_bits();
  const std::size_t tag_bits = chunk_tag_bits(t_vec, n);
  struct partial {
    bitvec row;
    bitvec seen;
    std::uint32_t count = 0;
  };
  // std::map, not unordered: iteration feeds the decoder insert order,
  // which must not depend on the library's bucket layout.
  std::vector<std::map<node_id, partial>> reassembly(n);
  for (round_t c = 0; c < t_vec; ++c) {
    net.step<chunk_msg>(
        nodes,
        [&](node_id u, rng&) -> std::optional<chunk_msg> {
          if (outgoing[u].empty()) return std::nullopt;
          return chunk_msg{chunk_of(outgoing[u], c, b_bits),
                           static_cast<std::uint32_t>(c), u, tag_bits};
        },
        [&](node_id u, const std::vector<const chunk_msg*>& inbox) {
          for (const chunk_msg* m : inbox) {
            auto [it, inserted] = reassembly[u].try_emplace(
                m->uid, partial{bitvec(row_bits),
                                bitvec(static_cast<std::size_t>(t_vec)), 0});
            partial& p = it->second;
            if (p.seen.get(m->index)) continue;
            p.seen.set(m->index);
            ++p.count;
            if (!m->chunk.empty()) {
              p.row.copy_bits_from(m->chunk, 0, m->chunk.size(),
                                   static_cast<std::size_t>(m->index) * b_bits);
            }
          }
          if (c + 1 < t_vec) return;
          for (auto& [from, p] : reassembly[u]) {
            if (p.count == static_cast<std::uint32_t>(t_vec)) {
              nodes.coder(u).insert(p.row);
            }
          }
          nodes.note_progress(u,
                              nodes.delay_bucket(net.rounds_elapsed() + 1));
        });
    co_await next_round;
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Session state
// ---------------------------------------------------------------------------

struct tstable_patch_session::window_patches : built_patches {
  // Share buffers on top of the patch structure.
  std::vector<bitvec> acc;        // convergecast accumulator
  std::vector<bitvec> patch_sum;  // distributed patch combination
  std::vector<std::uint32_t> got_chunks;
};

tstable_patch_session::tstable_patch_session(const patch_plan& plan)
    : coded_nodes(plan.n, plan.items, plan.item_bits,
                  make_matrix_backend(matrix_spec{})),
      plan_(plan) {
  NCDN_EXPECTS(plan.n >= 2);
}

// ---------------------------------------------------------------------------
// Patching: distributed Luby on G^D + tree building, all real rounds.
// ---------------------------------------------------------------------------

round_task<bool> build_patches_machine(network& net, const patch_plan& plan,
                                       built_patches& wp) {
  const std::size_t n = plan.n;
  const std::uint32_t d = plan.d_patch;
  const std::size_t uid_bits = bits_for(n);
  const std::size_t prio_bits = 2 * uid_bits + 8;
  const std::size_t depth_bits = bits_for(d + 2);
  opaque_view patch_view(n);

  // Luby working state (local to the construction).
  std::vector<bool> active(n, true);
  std::vector<std::uint64_t> prio(n, 0);
  std::vector<std::uint64_t> best_prio;
  std::vector<node_id> best_uid;
  std::vector<bool> best_valid;
  std::vector<std::uint32_t> ttl(n, 0);

  wp.is_leader.assign(n, false);

  for (std::size_t iter = 0; iter < plan.luby_iters; ++iter) {
    bool any_active = false;
    for (node_id u = 0; u < n; ++u) any_active = any_active || active[u];
    if (!any_active) {
      // Remaining iterations are no-ops; still burn the scheduled rounds so
      // every node stays in lockstep without global knowledge.
      co_await silent_wait(net, 2 * d);
      continue;
    }
    // Draw truncated priorities (the wire charges O(log n) bits, so the
    // entropy actually used matches what is charged).
    best_valid.assign(n, false);
    best_prio.assign(n, 0);
    best_uid.assign(n, 0);
    for (node_id u = 0; u < n; ++u) {
      if (active[u]) {
        prio[u] = net.node_rng(u)() >> (64 - prio_bits);
        best_valid[u] = true;
        best_prio[u] = prio[u];
        best_uid[u] = u;
      }
    }
    // D rounds of max-priority flooding over the stable topology.
    for (std::uint32_t r = 0; r < d; ++r) {
      net.step<prio_msg>(
          patch_view,
          [&](node_id u, rng&) -> std::optional<prio_msg> {
            if (!best_valid[u]) return std::nullopt;
            return prio_msg{best_prio[u], best_uid[u],
                            prio_bits + uid_bits};
          },
          [&](node_id u, const std::vector<const prio_msg*>& inbox) {
            for (const prio_msg* m : inbox) {
              if (!best_valid[u] || m->prio > best_prio[u] ||
                  (m->prio == best_prio[u] && m->uid > best_uid[u])) {
                best_valid[u] = true;
                best_prio[u] = m->prio;
                best_uid[u] = m->uid;
              }
            }
          });
      co_await next_round;
    }
    // Local maxima over the D-ball join the MIS.
    for (node_id u = 0; u < n; ++u) {
      if (active[u] && best_uid[u] == u &&
          best_prio[u] == prio[u]) {
        wp.is_leader[u] = true;
        active[u] = false;
        ttl[u] = d;
      }
    }
    // D rounds of deactivation TTL flood: every node within D hops of a
    // new leader leaves the active set.
    for (std::uint32_t r = 0; r < d; ++r) {
      net.step<ttl_msg>(
          patch_view,
          [&](node_id u, rng&) -> std::optional<ttl_msg> {
            if (ttl[u] == 0) return std::nullopt;
            return ttl_msg{ttl[u], depth_bits};
          },
          [&](node_id u, const std::vector<const ttl_msg*>& inbox) {
            for (const ttl_msg* m : inbox) {
              if (m->ttl >= 1) {
                active[u] = false;
                ttl[u] = std::max(ttl[u], m->ttl - 1);
              }
            }
          });
      co_await next_round;
      // TTLs decay: what was relayed this round is spent.
      for (node_id u = 0; u < n; ++u) {
        if (wp.is_leader[u] && ttl[u] == d) {
          ttl[u] = 0;  // leader transmitted its initial TTL once
        }
      }
    }
    for (auto& t : ttl) t = 0;
  }

  for (node_id u = 0; u < n; ++u) {
    if (active[u]) co_return false;  // Luby did not converge (whp event)
  }

  // --- tree building: incrementing (depth, leader) wave for D rounds ---
  wp.assigned.assign(n, false);
  wp.leader_of.assign(n, no_node);
  wp.depth.assign(n, 0);
  for (node_id u = 0; u < n; ++u) {
    if (wp.is_leader[u]) {
      wp.assigned[u] = true;
      wp.leader_of[u] = u;
      wp.depth[u] = 0;
    }
  }
  for (std::uint32_t r = 0; r < d; ++r) {
    net.step<wave_msg>(
        patch_view,
        [&](node_id u, rng&) -> std::optional<wave_msg> {
          if (!wp.assigned[u]) return std::nullopt;
          return wave_msg{wp.leader_of[u], wp.depth[u],
                          uid_bits + depth_bits};
        },
        [&](node_id u, const std::vector<const wave_msg*>& inbox) {
          for (const wave_msg* m : inbox) {
            const std::uint32_t cand_depth = m->depth + 1;
            if (!wp.assigned[u] || cand_depth < wp.depth[u] ||
                (cand_depth == wp.depth[u] && m->leader < wp.leader_of[u])) {
              wp.assigned[u] = true;
              wp.depth[u] = cand_depth;
              wp.leader_of[u] = m->leader;
            }
          }
        });
    co_await next_round;
  }
  for (node_id u = 0; u < n; ++u) {
    if (!wp.assigned[u]) co_return false;  // MIS coverage failed
  }

  // One round: everyone announces (uid, leader, depth); parent = lowest-uid
  // neighbour in the same patch one step closer to the leader.
  wp.parent.assign(n, no_node);
  net.step<assign_msg>(
      patch_view,
      [&](node_id u, rng&) -> std::optional<assign_msg> {
        return assign_msg{u, wp.leader_of[u], wp.depth[u],
                          2 * uid_bits + depth_bits};
      },
      [&](node_id u, const std::vector<const assign_msg*>& inbox) {
        if (wp.depth[u] == 0) {
          wp.parent[u] = u;
          return;
        }
        for (const assign_msg* m : inbox) {
          if (m->leader == wp.leader_of[u] && m->depth + 1 == wp.depth[u]) {
            if (wp.parent[u] == no_node || m->uid < wp.parent[u]) {
              wp.parent[u] = m->uid;
            }
          }
        }
      });
  co_await next_round;
  for (node_id u = 0; u < n; ++u) {
    if (wp.parent[u] == no_node) co_return false;  // should not happen
  }

  // One round: children notification.
  wp.children.assign(n, {});
  net.step<child_msg>(
      patch_view,
      [&](node_id u, rng&) -> std::optional<child_msg> {
        return child_msg{u, wp.parent[u], 2 * uid_bits};
      },
      [&](node_id u, const std::vector<const child_msg*>& inbox) {
        for (const child_msg* m : inbox) {
          if (m->parent == u && m->uid != u) wp.children[u].push_back(m->uid);
        }
      });
  co_await next_round;
  for (auto& kids : wp.children) std::sort(kids.begin(), kids.end());
  co_return true;
}

// ---------------------------------------------------------------------------
// share: pipelined convergecast of per-node random combinations up the
// patch tree (systolic chunk schedule), then pipelined downcast of the
// patch sum (§8.2.1).
// ---------------------------------------------------------------------------

round_task<void> tstable_patch_session::share_stepped(network& net,
                                                      window_patches& wp) {
  const std::size_t n = node_count();
  const std::uint32_t d = plan_.d_patch;
  const round_t t_vec = plan_.t_vec;
  const std::size_t row_bits = plan_.items + plan_.item_bits;
  const std::size_t tag_bits = chunk_tag_bits(t_vec, n);

  // Local random combinations (zero vector when nothing received yet).
  wp.acc.assign(n, bitvec(row_bits));
  for (node_id u = 0; u < n; ++u) {
    auto combo = coder(u).make_combination(net.node_rng(u));
    if (combo) wp.acc[u] = std::move(*combo);
  }

  // Convergecast: node at depth j transmits chunk c at round (D - j) + c;
  // its children's chunk-c sums arrive exactly one round earlier.
  for (round_t r = 0; r < static_cast<round_t>(d) + t_vec; ++r) {
    net.step<chunk_msg>(
        *this,
        [&](node_id u, rng&) -> std::optional<chunk_msg> {
          if (wp.depth[u] == 0) return std::nullopt;  // leader only receives
          const std::int64_t c = static_cast<std::int64_t>(r) -
                                 (static_cast<std::int64_t>(d) - wp.depth[u]);
          if (c < 0 || c >= static_cast<std::int64_t>(t_vec)) {
            return std::nullopt;
          }
          return chunk_msg{
              chunk_of(wp.acc[u], static_cast<std::size_t>(c), plan_.b_bits),
              static_cast<std::uint32_t>(c), u, tag_bits};
        },
        [&](node_id u, const std::vector<const chunk_msg*>& inbox) {
          for (const chunk_msg* m : inbox) {
            if (m->chunk.empty()) continue;
            const auto& kids = wp.children[u];
            if (!std::binary_search(kids.begin(), kids.end(), m->uid)) {
              continue;
            }
            const std::size_t begin =
                static_cast<std::size_t>(m->index) * plan_.b_bits;
            for (std::size_t i = 0; i < m->chunk.size(); ++i) {
              if (m->chunk.get(i)) wp.acc[u].flip(begin + i);
            }
          }
        });
    co_await next_round;
  }

  // Downcast: leader (depth 0) sends chunk c at round c; depth j relays at
  // round j + c.  Everyone assembles the patch sum and inserts it in the
  // last round's deliver.
  wp.patch_sum.assign(n, bitvec(row_bits));
  wp.got_chunks.assign(n, 0);
  for (node_id u = 0; u < n; ++u) {
    if (wp.depth[u] == 0) {
      wp.patch_sum[u] = wp.acc[u];
      wp.got_chunks[u] = static_cast<std::uint32_t>(t_vec);
    }
  }
  const round_t down_rounds = static_cast<round_t>(d) + t_vec;
  for (round_t r = 0; r < down_rounds; ++r) {
    net.step<chunk_msg>(
        *this,
        [&](node_id u, rng&) -> std::optional<chunk_msg> {
          const std::int64_t c =
              static_cast<std::int64_t>(r) - wp.depth[u];
          if (c < 0 || c >= static_cast<std::int64_t>(t_vec)) {
            return std::nullopt;
          }
          if (static_cast<std::uint32_t>(c) >= wp.got_chunks[u]) {
            return std::nullopt;  // chunk not yet received (cannot happen
                                  // on schedule, but stay safe)
          }
          return chunk_msg{
              chunk_of(wp.patch_sum[u], static_cast<std::size_t>(c),
                       plan_.b_bits),
              static_cast<std::uint32_t>(c), u, tag_bits};
        },
        [&](node_id u, const std::vector<const chunk_msg*>& inbox) {
          for (const chunk_msg* m : inbox) {
            if (m->uid != wp.parent[u] || wp.depth[u] == 0) continue;
            if (m->index != wp.got_chunks[u]) continue;  // in-order schedule
            if (!m->chunk.empty()) {
              wp.patch_sum[u].copy_bits_from(
                  m->chunk, 0, m->chunk.size(),
                  static_cast<std::size_t>(m->index) * plan_.b_bits);
            }
            ++wp.got_chunks[u];
          }
          if (r + 1 < down_rounds) return;
          NCDN_ASSERT(wp.got_chunks[u] == static_cast<std::uint32_t>(t_vec));
          coder(u).insert(wp.patch_sum[u]);
          note_progress(u, delay_bucket(net.rounds_elapsed() + 1));
        });
    co_await next_round;
  }
}

// ---------------------------------------------------------------------------
// run_stepped: whole stability windows of [patching][cycles...].
// ---------------------------------------------------------------------------

round_task<round_t> tstable_patch_session::run_stepped(network& net,
                                                       round_t max_rounds,
                                                       bool stop_early) {
  NCDN_EXPECTS(plan_.feasible);
  const round_t start = net.rounds_elapsed();
  start_delays(start);
  const round_t t = plan_.t_window;

  while (net.rounds_elapsed() - start < max_rounds) {
    if (stop_early && all_complete()) break;
    // Align to the adversary's next window boundary.
    const round_t mis_align = net.rounds_elapsed() % t;
    if (mis_align != 0) co_await silent_wait(net, t - mis_align);
    const round_t window_end = net.rounds_elapsed() + t;
    ++windows_;

    window_patches wp;
    if (!co_await build_patches_machine(net, plan_, wp)) {
      ++patch_failures_;
      co_await silent_wait(net, window_end - net.rounds_elapsed());
      continue;
    }
    while (window_end - net.rounds_elapsed() >= plan_.cycle_rounds &&
           !(stop_early && all_complete())) {
      co_await share_stepped(net, wp);
      // pass: idea (1) applied to the patch sums.
      co_await exchange_vectors(net, *this, wp.patch_sum, plan_.b_bits,
                                plan_.t_vec);
      co_await share_stepped(net, wp);
    }
    if (net.rounds_elapsed() < window_end) {
      co_await silent_wait(net, window_end - net.rounds_elapsed());
    }
  }
  co_return net.rounds_elapsed() - start;
}

// ---------------------------------------------------------------------------
// chunked_meta_session: idea (1) alone — T-times-larger vectors between
// stable neighbours, no patching.
// ---------------------------------------------------------------------------

chunked_meta_session::chunked_meta_session(std::size_t n, std::size_t b_bits,
                                           round_t t_window,
                                           std::size_t items_cap)
    : chunked_meta_session(
          n, b_bits, t_window,
          plan_chunked_broadcast(b_bits, t_window, items_cap)) {}

chunked_meta_session::chunked_meta_session(std::size_t n, std::size_t b_bits,
                                           round_t t_window,
                                           const chunked_plan& plan)
    : coded_nodes(n, plan.items, plan.item_bits,
                  make_matrix_backend(matrix_spec{})),
      b_bits_(b_bits),
      t_window_(t_window),
      t_vec_(plan.t_vec) {
  NCDN_EXPECTS(n >= 2);
}

round_task<round_t> chunked_meta_session::run_stepped(network& net,
                                                      round_t max_rounds,
                                                      bool stop_early) {
  const std::size_t n = node_count();
  const round_t start = net.rounds_elapsed();
  start_delays(start);

  while (net.rounds_elapsed() - start < max_rounds) {
    if (stop_early && all_complete()) break;
    // Align so one whole vector transmission sits inside a stability
    // window (same-neighbour chunk reassembly needs a fixed topology).
    const round_t pos = net.rounds_elapsed() % t_window_;
    const round_t left = t_window_ - pos;
    if (left < t_vec_) {
      co_await silent_wait(net, left);
      continue;
    }

    std::vector<bitvec> outgoing(n);  // empty = silent
    for (node_id u = 0; u < n; ++u) {
      auto combo = coder(u).make_combination(net.node_rng(u));
      if (combo) outgoing[u] = std::move(*combo);
    }
    co_await exchange_vectors(net, *this, outgoing, b_bits_, t_vec_);
  }
  co_return net.rounds_elapsed() - start;
}

}  // namespace ncdn
