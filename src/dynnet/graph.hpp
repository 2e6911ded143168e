// Undirected graphs: the per-round communication topologies G(t) of the
// dynamic network model (paper §4.1).  The model requires every G(t) to be
// connected; `is_connected` backs that contract, and powers/BFS serve the
// patching construction of §8.1.
//
// Storage is one vector per node, grown by `add_edge`.  Adversaries keep
// one graph each and rebuild it in place every round: `reset` empties the
// lists but keeps their capacity, the generators refill them, and the
// per-round delta path edits them (see dynnet/delta.hpp), so a steady-state
// round allocates only when a node passes its previous degree record.
//
// Neighbor order is behavior-relevant repo-wide (the network builds inboxes
// in `neighbors(u)` order, which feeds decoder insertion order and hence
// the byte-identical sweep contract), so `operator==` compares that order,
// not just the edge set.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <vector>

#include "core/contracts.hpp"

namespace ncdn {

using node_id = std::uint32_t;
using round_t = std::uint64_t;

constexpr std::uint32_t infinite_distance = 0xffffffffu;

namespace detail {

/// Process-unique graph revision stamps.  Per-object counters would
/// collide when a graph object is rebuilt in place with the same mutation
/// count — two different windows of a generator base could then masquerade
/// as "unchanged" to a delta consumer.  The stamp is compared for equality
/// only and never emitted, so the global counter cannot perturb any
/// output.
inline std::uint64_t next_graph_revision() noexcept {
  static std::atomic<std::uint64_t> counter{0};
  return counter.fetch_add(1, std::memory_order_relaxed) + 1;
}

}  // namespace detail

/// Reusable BFS working memory (distance labels + flat frontier queue).
/// Callers that traverse every round hold one of these so steady-state
/// traversals allocate nothing; `grows` counts the times a traversal had
/// to enlarge a buffer (zero after warmup — asserted in the scaling bench).
struct bfs_scratch {
  std::vector<std::uint32_t> dist;
  std::vector<node_id> frontier;
  std::size_t grows = 0;
};

class graph {
 public:
  graph() = default;
  explicit graph(std::size_t n) : n_(n), adj_(n) {}

  std::size_t order() const noexcept { return n_; }
  std::size_t edge_count() const noexcept { return edges_; }

  /// Changes after every mutation; (address, revision) identifies a
  /// topology snapshot, which is how delta consumers detect that a base
  /// graph they bound to has been rebuilt in place.  A mutation only clears
  /// the stamp and the next read draws a fresh process-unique one, so a
  /// batch of edits costs one atomic increment.  Like every other member,
  /// the lazy stamp assumes one thread uses the graph at a time.
  std::uint64_t revision() const noexcept {
    if (rev_ == 0) rev_ = detail::next_graph_revision();
    return rev_;
  }

  /// Empties the graph to `n` isolated nodes, keeping each adjacency
  /// list's capacity.
  void reset(std::size_t n) {
    n_ = n;
    adj_.resize(n);
    for (auto& list : adj_) list.clear();
    edges_ = 0;
    rev_ = 0;
  }

  void add_edge(node_id u, node_id v) {
    NCDN_EXPECTS(u < order() && v < order() && u != v);
    adj_[u].push_back(v);
    adj_[v].push_back(u);
    ++edges_;
    rev_ = 0;
  }

  /// Removes edge (u,v), which must be the most recently appended entry at
  /// BOTH endpoints.  Delta consumers append repair/extra edges at the
  /// adjacency tails each round and undo them here next round, restoring
  /// the exact pre-append neighbor order.
  void pop_edge_tail(node_id u, node_id v) {
    NCDN_EXPECTS(u < order() && v < order());
    NCDN_ASSERT(!adj_[u].empty() && adj_[u].back() == v);
    NCDN_ASSERT(!adj_[v].empty() && adj_[v].back() == u);
    adj_[u].pop_back();
    adj_[v].pop_back();
    --edges_;
    rev_ = 0;
  }

  std::span<const node_id> neighbors(node_id u) const noexcept {
    NCDN_EXPECTS(u < order());
    return adj_[u];
  }

  std::size_t degree(node_id u) const noexcept { return neighbors(u).size(); }

  bool has_edge(node_id u, node_id v) const noexcept;

  /// Exact structural equality: same order and the same neighbor sequence
  /// at every node.  Deliberately stricter
  /// than set-equality — it is the delta-vs-rebuild cross-check.
  bool operator==(const graph& other) const noexcept;

  bool is_connected() const;
  bool is_connected(bfs_scratch& scratch) const;

  /// BFS distances from src (infinite_distance if unreachable).
  std::vector<std::uint32_t> bfs_distances(node_id src) const;

  /// BFS distances from a set of sources (multi-source BFS).
  std::vector<std::uint32_t> bfs_distances(
      const std::vector<node_id>& srcs) const;

  /// Scratch-reusing multi-source BFS; distances land in `scratch.dist`.
  void bfs_distances(std::span<const node_id> srcs,
                     bfs_scratch& scratch) const;

  /// Exact diameter via n BFS runs; infinite_distance if disconnected.
  std::uint32_t diameter() const;

  /// D-th graph power: edge (u,v) iff 0 < dist(u,v) <= D.
  graph power(std::uint32_t d) const;
  graph power(std::uint32_t d, bfs_scratch& scratch) const;

 private:
  // The delta engine edits adjacency tails and rebuilds per-node lists
  // in place; it owns the pairwise consistency argument (see delta.hpp).
  friend class topology_delta;

  std::size_t n_ = 0;
  std::vector<std::vector<node_id>> adj_;
  std::size_t edges_ = 0;
  mutable std::uint64_t rev_ = 0;  // 0: not stamped since the last mutation
};

}  // namespace ncdn
