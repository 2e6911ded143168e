// Topology generators.  The adversary suite composes these into per-round
// topology sequences; all generated graphs are connected, as the dynamic
// network model requires (paper §4.1).
#pragma once

#include <utility>

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

/// Uniform random labelled spanning tree (random Prüfer-like attachment).
graph random_tree(std::size_t n, rng& r);

/// Random tree plus `extra_edges` additional uniform random edges
/// (connected by construction).
graph random_connected(std::size_t n, std::size_t extra_edges, rng& r);

/// Path with the node labels randomly permuted.  Re-generated each round,
/// this is the canonical "hard" oblivious adversary: constant degree,
/// diameter n-1, and the labelling gives protocols no positional stability.
graph permuted_path(std::size_t n, rng& r);

/// Random geometric graph on the unit square with connectivity patched by
/// bridging nearest components (models a mobile ad-hoc mesh).
graph random_geometric(std::size_t n, double radius, rng& r);

/// Makes `g` connected in place by adding edges, preferring edges of
/// `base` (scanned in deterministic adjacency order) and falling back to
/// direct links between component representatives when `base` itself
/// cannot bridge the gap.  `keep` (optional, size n) restricts the repair
/// to the marked nodes: unmarked nodes are left untouched (and isolated
/// unmarked nodes do not count against connectivity).  Returns the number
/// of edges added; when `added_out` is non-null every added edge is also
/// appended to it in add order (the delta path pops them off the adjacency
/// tails next round).
std::size_t make_connected_over(
    graph& g, const graph& base, const std::vector<char>* keep = nullptr,
    std::vector<std::pair<node_id, node_id>>* added_out = nullptr);

}  // namespace ncdn::gen
