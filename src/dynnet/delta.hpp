// Per-round topology deltas against a persistent candidate set.
//
// The edge-markov and churn families derive each round's graph from a base
// topology, usually with two or three edges flipped since the last round.
// Rebuilding a fresh `graph` every round would cost O(n + m) allocation and
// construction; `topology_delta` keeps a persistent slot structure instead:
//
//   * `rebind(base)` enumerates the base topology's unique undirected edges
//     once, in global scan order (u ascending, then base adjacency order,
//     first sighting wins), and records which slots touch each node.
//   * each round the owning adversary flips slot on-bits (`set_on`); the
//     delta marks both endpoints dirty.
//   * `apply(out, base, keep)` then edits `out` in place: the previous
//     round's connectivity-repair edges are popped off the adjacency tails
//     (they were appended last, so tail pops in reverse order remove
//     exactly them), only dirty nodes' candidate lists are rebuilt from the
//     slot order, and `gen::make_connected_over` re-appends repair edges.
//
// The invariant that makes this byte-safe: after `apply`, `out` equals —
// including per-node neighbor ORDER, which feeds inbox order and hence the
// sweep bytes — the graph a from-scratch rebuild of the same on-set would
// produce.  Audit builds cross-check that equality every round against a
// reference rebuilt purely from recorded state (no RNG is consumed, so the
// audit sweep stays byte-identical to release).
#pragma once

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dynnet/generators.hpp"
#include "dynnet/graph.hpp"

namespace ncdn {

class topology_delta {
 public:
  /// Rebuilds the slot structure from `base` and marks everything dirty;
  /// the next `apply` rebuilds `out` from scratch (with capacity reuse).
  void rebind(const graph& base);

  /// True while `base` is the same object and revision `rebind` saw —
  /// i.e. the slot structure is still valid.
  bool bound_to(const graph& base) const noexcept {
    return bound_ == &base && bound_revision_ == base.revision();
  }

  std::size_t slots() const noexcept { return slot_u_.size(); }
  node_id slot_u(std::size_t s) const noexcept { return slot_u_[s]; }
  node_id slot_v(std::size_t s) const noexcept { return slot_v_[s]; }
  bool on(std::size_t s) const noexcept { return on_[s] != 0; }

  /// Sets slot `s`'s membership; a change dirties both endpoints.
  void set_on(std::size_t s, bool value);

  /// Dirties every slot incident to `u` whose on-state depends on node
  /// liveness (the churn path): recomputes on = live(u) && live(v) for
  /// each incident slot via `live`.
  void refresh_node(node_id u, const std::vector<char>& live);

  /// Applies pending flips to `out` and repairs connectivity over `base`
  /// (restricted to `keep` when non-null).  Returns the number of repair
  /// edges added, mirroring `gen::make_connected_over`'s return value.
  std::size_t apply(graph& out, const graph& base,
                    const std::vector<char>* keep = nullptr);

 private:
  /// Reference rebuild from recorded slot state only (the audit oracle).
  graph rebuild_reference(const graph& base,
                          const std::vector<char>* keep) const;

  const graph* bound_ = nullptr;
  std::uint64_t bound_revision_ = 0;

  // Slot s is the s-th unique base edge in global scan order.
  std::vector<node_id> slot_u_;
  std::vector<node_id> slot_v_;
  std::vector<char> on_;
  std::size_t on_count_ = 0;

  // CSR over nodes: slot indices incident to each node, ascending (slot
  // ids are assigned in scan order, so per-node ascending order IS the
  // global candidate order restricted to that node).
  std::vector<std::uint32_t> incident_offsets_;
  std::vector<std::uint32_t> incident_slots_;

  std::vector<char> dirty_;
  std::vector<node_id> dirty_list_;
  bool all_dirty_ = true;

  // The connectivity-repair edges appended by the previous apply, in
  // append order; popped from adjacency tails (reversed) next round.
  std::vector<std::pair<node_id, node_id>> forced_;
};

}  // namespace ncdn
