// Topology generators.  The adversary suite composes these into per-round
// topology sequences; all generated graphs are connected, as the dynamic
// network model requires (paper §4.1).
#pragma once

#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "dynnet/graph.hpp"

namespace ncdn::gen {

graph path(std::size_t n);
graph star(std::size_t n);
graph clique(std::size_t n);
graph grid(std::size_t width, std::size_t height);

/// Two cliques of ~n/2 nodes joined by a single bridge edge: a classic
/// bottleneck topology (one-bit-per-round cut).
graph dumbbell(std::size_t n);

/// Working memory of the per-round generators and of
/// `make_connected_over`, owned by the caller that regenerates every round
/// (the adversary), so a steady-state call allocates nothing.
struct scratch {
  std::vector<node_id> order;   // shuffled labels
  std::vector<double> x, y;     // geometric positions
  bfs_scratch bfs;              // geometric connectivity patch
  std::vector<node_id> parent;  // union-find forest
  std::vector<char> has_kept;   // per root: its component holds a kept node
};

// The random families come in two forms.  The in-place form resets `out`
// to n nodes (keeping its adjacency capacity) and fills it; the by-value
// form wraps it with a fresh graph and scratch.  Both make the same rng
// draws and the same neighbor order.

/// Uniform random labelled spanning tree (random Prüfer-like attachment).
graph random_tree(std::size_t n, rng& r);
void random_tree(graph& out, std::size_t n, rng& r, scratch& s);

/// Random tree plus `extra_edges` additional uniform random edges
/// (connected by construction).
graph random_connected(std::size_t n, std::size_t extra_edges, rng& r);
void random_connected(graph& out, std::size_t n, std::size_t extra_edges,
                      rng& r, scratch& s);

/// Path with the node labels randomly permuted.  Re-generated each round,
/// this is the canonical "hard" oblivious adversary: constant degree,
/// diameter n-1, and the labelling gives protocols no positional stability.
graph permuted_path(std::size_t n, rng& r);
void permuted_path(graph& out, std::size_t n, rng& r, scratch& s);

/// Random geometric graph on the unit square with connectivity patched by
/// bridging nearest components (models a mobile ad-hoc mesh).
graph random_geometric(std::size_t n, double radius, rng& r);
void random_geometric(graph& out, std::size_t n, double radius, rng& r,
                      scratch& s);

/// Makes `g` connected in place by adding edges, preferring edges of
/// `base` (scanned in deterministic adjacency order) and falling back to
/// direct links between component representatives when `base` itself
/// cannot bridge the gap.  `keep` (optional, size n) restricts the repair
/// to the marked nodes: unmarked nodes are left untouched (and isolated
/// unmarked nodes do not count against connectivity).  Returns the number
/// of edges added; when `added_out` is non-null every added edge is also
/// appended to it in add order (the delta path pops them off the adjacency
/// tails next round).  Returns as soon as the kept nodes form one
/// component: every later candidate would join a component to itself.
std::size_t make_connected_over(
    graph& g, const graph& base, const std::vector<char>* keep,
    std::vector<std::pair<node_id, node_id>>* added_out, scratch& s);

}  // namespace ncdn::gen
