// Per-round topology deltas against a persistent candidate set.
//
// The edge-markov and churn families derive each round's graph from a base
// topology, usually with two or three edges flipped since the last round.
// Rebuilding a fresh `graph` every round would cost O(n + m) allocation and
// construction; `topology_delta` keeps a persistent slot structure instead:
//
//   * `rebind(base)` enumerates the base topology's unique undirected edges
//     once, in global scan order (u ascending, then base adjacency order,
//     first sighting wins), and records which slots touch each node, in
//     O(n + m) time with its working memory kept across calls.
//   * each round the owning adversary sets slot on-bits (`assign` for every
//     slot, `refresh_node` for one node's slots); the delta marks both
//     endpoints of each flipped slot dirty.
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
  /// A steady-state rebind allocates only when the base passes its previous
  /// edge-count record.
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

  /// Sets every slot's membership to `on_of(s)`, called once per slot in
  /// slot order; a change dirties both endpoints.
  template <class OnOf>
  void assign(OnOf&& on_of) {
    batch b = open_batch();
    for (std::size_t s = 0; s < on_.size(); ++s) b.update(s, on_of(s));
    close_batch(b);
  }

  /// Recomputes on = live(u) && live(v) for every slot incident to `u`
  /// (the churn path, after u's liveness flipped).
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

  /// One batch of slot updates.  The arrays and counters are copied into
  /// this local object, so the byte stores of the batch cannot alias them
  /// and they stay in registers; `close_batch` writes the counters back.
  struct batch {
    char* on = nullptr;
    char* dirty = nullptr;
    node_id* dirty_list = nullptr;
    const node_id* slot_u = nullptr;
    const node_id* slot_v = nullptr;
    char track = 0;  // 0 while everything is dirty anyway
    std::size_t on_count = 0;
    std::size_t dirty_count = 0;

    /// Sets slot `s`'s membership; a change lists each endpoint not yet
    /// dirty.  Flips of random chains are unpredictable, so this takes no
    /// branch on them.
    void update(std::size_t s, bool value) {
      const char now = value ? 1 : 0;
      const char flip = static_cast<char>((on[s] ^ now) & track);
      on_count += static_cast<std::size_t>(now);
      on_count -= static_cast<std::size_t>(on[s]);
      on[s] = now;
      mark(slot_u[s], flip);
      mark(slot_v[s], flip);
    }

    /// Lists x when `flip` is its first change since the last apply.
    void mark(node_id x, char flip) {
      dirty_list[dirty_count] = x;
      dirty_count += static_cast<std::size_t>(flip & (dirty[x] ^ 1));
      dirty[x] = static_cast<char>(dirty[x] | flip);
    }
  };

  batch open_batch() {
    batch b;
    b.on = on_.data();
    b.dirty = dirty_.data();
    b.dirty_list = dirty_list_.data();
    b.slot_u = slot_u_.data();
    b.slot_v = slot_v_.data();
    b.track = all_dirty_ ? 0 : 1;
    b.on_count = on_count_;
    b.dirty_count = dirty_count_;
    return b;
  }

  void close_batch(const batch& b) {
    on_count_ = b.on_count;
    dirty_count_ = b.dirty_count;
  }

  /// Refills x's adjacency list with its on slots' other endpoints, in
  /// slot order.
  void fill_node(graph& out, node_id x) const;

  const graph* bound_ = nullptr;
  std::uint64_t bound_revision_ = 0;

  // Slot s is the s-th unique base edge in global scan order.
  std::vector<node_id> slot_u_;
  std::vector<node_id> slot_v_;
  std::vector<char> on_;  // 0 or 1
  std::size_t on_count_ = 0;

  // CSR over nodes: slot indices incident to each node, ascending (slot
  // ids are assigned in scan order, so per-node ascending order IS the
  // global candidate order restricted to that node).
  std::vector<std::uint32_t> incident_offsets_;
  std::vector<std::uint32_t> incident_slots_;

  // The first dirty_count_ entries of dirty_list_ (n + 1 long) are the
  // nodes changed since the last apply.
  std::vector<char> dirty_;  // 0 or 1
  std::vector<node_id> dirty_list_;
  std::size_t dirty_count_ = 0;
  bool all_dirty_ = true;

  // The connectivity-repair edges appended by the previous apply, in
  // append order; popped from adjacency tails (reversed) next round.
  std::vector<std::pair<node_id, node_id>> forced_;

  // Working memory kept across calls: rebind's per-node stamp (the last
  // u that took a slot to this node, plus one) and CSR fill cursor, and
  // the connectivity repair's union-find.
  std::vector<node_id> seen_;
  std::vector<std::uint32_t> cursor_;
  gen::scratch repair_;
};

}  // namespace ncdn
