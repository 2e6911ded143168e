#include "protocols/counting.hpp"

#include <algorithm>
#include <set>
#include <vector>

#include "coding/budget.hpp"
#include "core/bits.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {

namespace {

using uid_t = std::uint32_t;

struct uid_batch_msg {
  std::vector<uid_t> uids;
  std::size_t uid_bits = 0;
  std::size_t bit_size() const noexcept { return uids.size() * uid_bits; }
};

struct max_msg {
  std::size_t count = 0;
  uid_t uid = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

struct verify_msg {
  std::size_t count = 0;
  std::uint64_t hash = 0;
  std::size_t wire = 0;
  std::size_t bit_size() const noexcept { return wire; }
};

std::uint64_t set_checksum(const std::set<uid_t>& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (uid_t u : s) {
    h ^= u;
    h *= 0x100000001b3ULL;
    h ^= h >> 29;
  }
  return h;
}

}  // namespace

round_task<counting_result> counting_machine(network& net,
                                             counting_config cfg) {
  const std::size_t n = net.node_count();
  const std::size_t ub = cfg.uid_bits;
  NCDN_EXPECTS(cfg.b_bits >= ub);
  opaque_view view(n);

  // Self-generated UIDs (uid 0 is reserved as block padding).
  auto uid_of = [](node_id u) { return static_cast<uid_t>(u + 1); };
  auto node_of = [](uid_t id) { return static_cast<node_id>(id - 1); };

  std::vector<std::set<uid_t>> seen(n);
  for (node_id u = 0; u < n; ++u) seen[u].insert(uid_of(u));

  counting_result res;
  const round_t start = net.rounds_elapsed();

  std::size_t est = 2;
  for (std::size_t attempt = 0; attempt < cfg.max_attempts; ++attempt) {
    res.attempts = attempt + 1;
    res.final_estimate = est;
    const round_t phase_len = static_cast<round_t>(
        std::max<std::size_t>(2, static_cast<std::size_t>(
                                     cfg.safety * static_cast<double>(est))));

    if (cfg.engine == counting_engine::flooding) {
      // Batched UID min-flooding with per-phase finalization.  Agreement on
      // finalized batches is only guaranteed once est >= n; earlier
      // attempts may diverge and are caught by verification.
      const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / ub);
      const std::size_t phases = ceil_div(est, batch);
      std::vector<std::set<uid_t>> active(n);
      for (node_id u = 0; u < n; ++u) active[u] = seen[u];
      for (std::size_t p = 0; p < phases; ++p) {
        for (round_t r = 0; r < phase_len; ++r) {
          net.step<uid_batch_msg>(
              view,
              [&](node_id u, rng&, uid_batch_msg& m) {
                m.uid_bits = ub;
                m.uids.clear();
                for (uid_t id : active[u]) {
                  if (m.uids.size() >= batch) break;
                  m.uids.push_back(id);
                }
                return !m.uids.empty();
              },
              [&](node_id u, const std::vector<const uid_batch_msg*>& inbox) {
                for (const uid_batch_msg* m : inbox) {
                  for (uid_t id : m->uids) {
                    if (seen[u].insert(id).second) active[u].insert(id);
                  }
                }
              });
          co_await next_round;
        }
        for (node_id u = 0; u < n; ++u) {
          auto it = active[u].begin();
          for (std::size_t i = 0; i < batch && it != active[u].end(); ++i) {
            it = active[u].erase(it);
          }
        }
      }
    } else {
      // Gather-and-code (greedy-forward structure on UIDs as d-bit tokens).
      const coded_budget budget = block_budget(cfg.b_bits, ub);
      const std::size_t epochs = ceil_div(est, budget.tokens_total) + 1;
      std::vector<std::set<uid_t>> unretired(n);
      for (node_id u = 0; u < n; ++u) unretired[u] = seen[u];
      for (std::size_t e = 0; e < epochs; ++e) {
        // Random forwarding of UIDs.
        const std::size_t batch = std::max<std::size_t>(1, cfg.b_bits / ub);
        for (round_t r = 0; r < phase_len; ++r) {
          net.step<uid_batch_msg>(
              view,
              [&](node_id u, rng& prng, uid_batch_msg& m) {
                if (unretired[u].empty()) return false;
                m.uid_bits = ub;
                m.uids.clear();
                std::vector<uid_t> pool(unretired[u].begin(),
                                        unretired[u].end());
                const std::size_t take = std::min(batch, pool.size());
                for (std::size_t i = 0; i < take; ++i) {
                  const std::size_t j = i + prng.below(pool.size() - i);
                  std::swap(pool[i], pool[j]);
                  m.uids.push_back(pool[i]);
                }
                return true;
              },
              [&](node_id u, const std::vector<const uid_batch_msg*>& inbox) {
                for (const uid_batch_msg* m : inbox) {
                  for (uid_t id : m->uids) {
                    if (seen[u].insert(id).second) unretired[u].insert(id);
                  }
                }
              });
          co_await next_round;
        }
        // Max-count identification flood.
        std::vector<max_msg> best(n);
        for (node_id u = 0; u < n; ++u) {
          best[u] = max_msg{unretired[u].size(), uid_of(u), ub + ub};
        }
        for (round_t r = 0; r < phase_len; ++r) {
          net.step<max_msg>(
              view,
              [&](node_id u, rng&, max_msg& m) {
                m = best[u];
                return true;
              },
              [&](node_id u, const std::vector<const max_msg*>& inbox) {
                for (const max_msg* m : inbox) {
                  if (m->count > best[u].count ||
                      (m->count == best[u].count && m->uid > best[u].uid)) {
                    best[u].count = m->count;
                    best[u].uid = m->uid;
                  }
                }
              });
          co_await next_round;
        }
        // Coded block broadcast from the identified leader.  Leader and
        // item count are only *locally believed* (floods may not have
        // converged when est < n); nodes that believe differently simply
        // fail to decode this epoch, which verification catches.
        const uid_t leader_uid = best[0].uid;
        const std::size_t leader_cnt = best[0].count;
        bool agree = true;
        for (node_id u = 1; u < n; ++u) {
          agree = agree && best[u].uid == leader_uid &&
                  best[u].count == leader_cnt;
        }
        if (!agree || leader_cnt == 0) continue;  // wasted epoch
        const node_id leader = node_of(leader_uid);
        std::vector<uid_t> chosen;
        for (uid_t id : unretired[leader]) {
          if (chosen.size() >= budget.tokens_total) break;
          chosen.push_back(id);
        }
        const std::size_t k_items =
            ceil_div(chosen.size(), budget.tokens_per_item);
        rlnc_session session(n, k_items, budget.item_bits);
        for (std::size_t i = 0; i < k_items; ++i) {
          bitvec block(budget.item_bits);
          for (std::size_t j = 0; j < budget.tokens_per_item; ++j) {
            const std::size_t idx = i * budget.tokens_per_item + j;
            if (idx >= chosen.size()) break;
            for (std::size_t bit = 0; bit < ub; ++bit) {
              if ((chosen[idx] >> bit) & 1u) block.set(j * ub + bit);
            }
          }
          session.seed(leader, i, block);
        }
        co_await session.run_stepped(
            net, 2 * (phase_len + static_cast<round_t>(k_items)),
            /*stop_early=*/false);
        for (node_id u = 0; u < n; ++u) {
          if (!session.node_complete(u)) continue;
          for (std::size_t i = 0; i < k_items; ++i) {
            const bitvec block = session.decode(u, i);
            for (std::size_t j = 0; j < budget.tokens_per_item; ++j) {
              uid_t id = 0;
              for (std::size_t bit = 0; bit < ub; ++bit) {
                if (block.get(j * ub + bit)) id |= (1u << bit);
              }
              if (id == 0) continue;  // padding
              seen[u].insert(id);
              unretired[u].erase(id);
            }
          }
        }
      }
    }

    // Verification: flood (count, checksum); any disagreement or overflow
    // marks the attempt failed at the node that saw it.
    std::vector<bool> bad(n, false);
    std::vector<verify_msg> mine(n);
    for (node_id u = 0; u < n; ++u) {
      mine[u] = verify_msg{seen[u].size(), set_checksum(seen[u]), ub + 64};
      if (seen[u].size() > est) bad[u] = true;
    }
    for (round_t r = 0; r < phase_len; ++r) {
      net.step<verify_msg>(
          view,
          [&](node_id u, rng&, verify_msg& m) {
            m = mine[u];
            return true;
          },
          [&](node_id u, const std::vector<const verify_msg*>& inbox) {
            for (const verify_msg* m : inbox) {
              if (m->count != mine[u].count || m->hash != mine[u].hash) {
                bad[u] = true;
              }
            }
          });
      co_await next_round;
    }
    const bool all_ok =
        std::none_of(bad.begin(), bad.end(), [](bool b) { return b; });
    if (all_ok) {
      res.count = seen[0].size();
      break;
    }
    est *= 2;
  }

  res.rounds = net.rounds_elapsed() - start;
  res.correct = res.count == n;
  for (node_id u = 0; u < n; ++u) {
    res.correct = res.correct && seen[u].size() == n;
  }
  co_return res;
}

}  // namespace ncdn
