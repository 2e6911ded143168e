// The index flood of the §7/§8 gathering algorithms: Theorem 2.1's batched
// min-flooding argument run on index keys.
//
// Every node holds a set of pending keys.  The flood runs phases of n
// rounds; each round every node sends its `per_msg` smallest pending keys
// plus a sticky fail bit.  A node that holds one of the globally smallest
// per_msg pending keys always ranks it within its own top per_msg, so those
// keys reach every node within a phase, and at the phase's end all nodes
// finalize the same prefix (asserted).  Corollary 7.1 floods token IDs,
// Theorem 7.5's explicit fallback floods block priorities and §8.3 floods
// the UIDs of leaders holding a block; the fail bit is §7's Las-Vegas veto
// (retirement_ledger, protocols/coded_nodes.hpp).
#pragma once

#include <optional>
#include <set>
#include <vector>

#include "core/machine.hpp"
#include "dynnet/network.hpp"

namespace ncdn {

template <class Key>
struct min_flood_result {
  std::vector<Key> finalized;  // the agreed keys, ascending
  bool fail_seen = false;      // a fail bit flooded; nothing is finalized
};

/// Runs up to `phases` phases over node u's own keys `pending[u]`, with u
/// raising the fail bit iff `fail[u]`.  A key costs `key_bits` on the
/// wire, the fail bit one.  After phase 0 a fail bit, or no pending key
/// anywhere, ends the flood with nothing finalized.
template <class Key>
round_task<min_flood_result<Key>> min_flood(
    network& net, const knowledge_view& view,
    std::vector<std::set<Key>> pending, std::vector<bool> fail,
    std::size_t phases, std::size_t per_msg, std::size_t key_bits) {
  struct flood_msg {
    std::vector<Key> keys;
    bool fail = false;
    std::size_t key_bits = 0;
    std::size_t bit_size() const noexcept {
      return keys.size() * key_bits + 1;
    }
  };
  const std::size_t n = pending.size();
  auto smallest = [&](node_id u) {
    std::vector<Key> out;
    for (const Key& key : pending[u]) {
      if (out.size() >= per_msg) break;
      out.push_back(key);
    }
    return out;
  };

  min_flood_result<Key> res;
  for (std::size_t phase = 0; phase < phases; ++phase) {
    for (std::size_t r = 0; r < n; ++r) {
      net.step<flood_msg>(
          view,
          [&](node_id u, rng&) -> std::optional<flood_msg> {
            flood_msg m;
            m.key_bits = key_bits;
            m.fail = fail[u];
            m.keys = smallest(u);
            if (m.keys.empty() && !m.fail) return std::nullopt;
            return m;
          },
          [&](node_id u, const std::vector<const flood_msg*>& inbox) {
            for (const flood_msg* m : inbox) {
              fail[u] = fail[u] || m->fail;
              pending[u].insert(m->keys.begin(), m->keys.end());
            }
          });
      co_await next_round;
    }
    if (phase == 0) {
      bool any_key = false;
      for (node_id u = 0; u < n; ++u) {
        res.fail_seen = res.fail_seen || fail[u];
        any_key = any_key || !pending[u].empty();
      }
      if (res.fail_seen || !any_key) break;
    }
    // Every node drops the agreed prefix at once, so no copy of a
    // finalized key is left to arrive later, and each phase's keys all
    // exceed the last phase's.
    const std::vector<Key> agreed = smallest(0);
    for (node_id u = 0; u < n; ++u) {
      NCDN_ASSERT(smallest(u) == agreed);  // min-flood agreement
      for (const Key& key : agreed) pending[u].erase(key);
    }
    res.finalized.insert(res.finalized.end(), agreed.begin(), agreed.end());
  }
  co_return res;
}

}  // namespace ncdn
