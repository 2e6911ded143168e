#include "dynnet/graph.hpp"

#include <algorithm>

namespace ncdn {

bool graph::has_edge(node_id u, node_id v) const noexcept {
  NCDN_EXPECTS(u < order() && v < order());
  const std::span<const node_id> nu = neighbors(u);
  const std::span<const node_id> nv = neighbors(v);
  const std::span<const node_id> smaller = nu.size() <= nv.size() ? nu : nv;
  const node_id target = nu.size() <= nv.size() ? v : u;
  return std::find(smaller.begin(), smaller.end(), target) != smaller.end();
}

bool graph::operator==(const graph& other) const noexcept {
  if (n_ != other.n_ || edges_ != other.edges_) return false;
  for (node_id u = 0; u < n_; ++u) {
    const std::span<const node_id> a = neighbors(u);
    const std::span<const node_id> b = other.neighbors(u);
    if (a.size() != b.size()) return false;
    if (!std::equal(a.begin(), a.end(), b.begin())) return false;
  }
  return true;
}

bool graph::is_connected() const {
  bfs_scratch scratch;
  return is_connected(scratch);
}

bool graph::is_connected(bfs_scratch& scratch) const {
  if (order() == 0) return true;
  const node_id root = 0;
  bfs_distances(std::span<const node_id>(&root, 1), scratch);
  return std::none_of(scratch.dist.begin(), scratch.dist.end(),
                      [](std::uint32_t d) { return d == infinite_distance; });
}

std::vector<std::uint32_t> graph::bfs_distances(node_id src) const {
  return bfs_distances(std::vector<node_id>{src});
}

std::vector<std::uint32_t> graph::bfs_distances(
    const std::vector<node_id>& srcs) const {
  bfs_scratch scratch;
  bfs_distances(std::span<const node_id>(srcs.data(), srcs.size()), scratch);
  return std::move(scratch.dist);
}

void graph::bfs_distances(std::span<const node_id> srcs,
                          bfs_scratch& scratch) const {
  const std::size_t n = order();
  if (scratch.dist.capacity() < n || scratch.frontier.capacity() < n) {
    ++scratch.grows;
  }
  scratch.dist.assign(n, infinite_distance);
  scratch.frontier.clear();
  scratch.frontier.reserve(n);
  for (node_id s : srcs) {
    NCDN_EXPECTS(s < n);
    if (scratch.dist[s] == infinite_distance) {
      scratch.dist[s] = 0;
      scratch.frontier.push_back(s);
    }
  }
  // Flat FIFO over the frontier vector: same visit order as a std::queue,
  // zero node allocations.
  for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
    const node_id u = scratch.frontier[head];
    for (node_id v : neighbors(u)) {
      if (scratch.dist[v] == infinite_distance) {
        scratch.dist[v] = scratch.dist[u] + 1;
        scratch.frontier.push_back(v);
      }
    }
  }
}

std::uint32_t graph::diameter() const {
  bfs_scratch scratch;
  std::uint32_t best = 0;
  for (node_id u = 0; u < order(); ++u) {
    bfs_distances(std::span<const node_id>(&u, 1), scratch);
    for (std::uint32_t d : scratch.dist) {
      if (d == infinite_distance) return infinite_distance;
      best = std::max(best, d);
    }
  }
  return best;
}

graph graph::power(std::uint32_t d) const {
  bfs_scratch scratch;
  return power(d, scratch);
}

graph graph::power(std::uint32_t d, bfs_scratch& scratch) const {
  NCDN_EXPECTS(d >= 1);
  const std::size_t n = order();
  graph out(n);
  for (node_id u = 0; u < n; ++u) {
    // Truncated BFS to depth d, reusing the caller's scratch across sources.
    if (scratch.dist.capacity() < n || scratch.frontier.capacity() < n) {
      ++scratch.grows;
    }
    scratch.dist.assign(n, infinite_distance);
    scratch.frontier.clear();
    scratch.frontier.reserve(n);
    scratch.dist[u] = 0;
    scratch.frontier.push_back(u);
    for (std::size_t head = 0; head < scratch.frontier.size(); ++head) {
      const node_id x = scratch.frontier[head];
      if (scratch.dist[x] == d) continue;
      for (node_id y : neighbors(x)) {
        if (scratch.dist[y] == infinite_distance) {
          scratch.dist[y] = scratch.dist[x] + 1;
          scratch.frontier.push_back(y);
        }
      }
    }
    for (node_id v = u + 1; v < n; ++v) {
      if (scratch.dist[v] != infinite_distance && scratch.dist[v] >= 1) {
        out.add_edge(u, v);
      }
    }
  }
  return out;
}

}  // namespace ncdn
