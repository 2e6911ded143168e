#include "dynnet/generators.hpp"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace ncdn::gen {

graph path(std::size_t n) {
  NCDN_EXPECTS(n >= 1);
  graph g(n);
  for (node_id u = 0; u + 1 < n; ++u) g.add_edge(u, u + 1);
  return g;
}

graph star(std::size_t n) {
  NCDN_EXPECTS(n >= 2);
  graph g(n);
  for (node_id u = 1; u < n; ++u) g.add_edge(0, u);
  return g;
}

graph clique(std::size_t n) {
  NCDN_EXPECTS(n >= 1);
  graph g(n);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  return g;
}

graph grid(std::size_t width, std::size_t height) {
  NCDN_EXPECTS(width >= 1 && height >= 1);
  graph g(width * height);
  auto id = [width](std::size_t x, std::size_t y) {
    return static_cast<node_id>(y * width + x);
  };
  for (std::size_t y = 0; y < height; ++y) {
    for (std::size_t x = 0; x < width; ++x) {
      if (x + 1 < width) g.add_edge(id(x, y), id(x + 1, y));
      if (y + 1 < height) g.add_edge(id(x, y), id(x, y + 1));
    }
  }
  return g;
}

graph dumbbell(std::size_t n) {
  NCDN_EXPECTS(n >= 2);
  const std::size_t half = n / 2;
  graph g(n);
  for (node_id u = 0; u < half; ++u) {
    for (node_id v = u + 1; v < half; ++v) g.add_edge(u, v);
  }
  for (node_id u = static_cast<node_id>(half); u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) g.add_edge(u, v);
  }
  g.add_edge(static_cast<node_id>(half - 1), static_cast<node_id>(half));
  return g;
}

void random_tree(graph& out, std::size_t n, rng& r, scratch& s) {
  NCDN_EXPECTS(n >= 1);
  // Random attachment with a random node ordering produces a uniform-ish
  // random tree shape; exact uniformity over labelled trees is not needed.
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), 0);
  r.shuffle(s.order);
  out.reset(n);
  for (std::size_t i = 1; i < n; ++i) {
    const node_id parent = s.order[r.below(i)];
    out.add_edge(s.order[i], parent);
  }
}

void random_connected(graph& out, std::size_t n, std::size_t extra_edges,
                      rng& r, scratch& s) {
  random_tree(out, n, r, s);
  if (n < 2) return;
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const node_id u = static_cast<node_id>(r.below(n));
    node_id v = static_cast<node_id>(r.below(n - 1));
    if (v >= u) ++v;
    if (!out.has_edge(u, v)) out.add_edge(u, v);
  }
}

void permuted_path(graph& out, std::size_t n, rng& r, scratch& s) {
  NCDN_EXPECTS(n >= 1);
  s.order.resize(n);
  std::iota(s.order.begin(), s.order.end(), 0);
  r.shuffle(s.order);
  out.reset(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    out.add_edge(s.order[i], s.order[i + 1]);
  }
}

void random_geometric(graph& out, std::size_t n, double radius, rng& r,
                      scratch& s) {
  NCDN_EXPECTS(n >= 1);
  s.x.resize(n);
  s.y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.x[i] = r.uniform01();
    s.y[i] = r.uniform01();
  }
  out.reset(n);
  const double r2 = radius * radius;
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      const double dx = s.x[u] - s.x[v];
      const double dy = s.y[u] - s.y[v];
      if (dx * dx + dy * dy <= r2) out.add_edge(u, v);
    }
  }
  // Patch connectivity: in id order, link each node that node 0 cannot
  // reach to its geometrically nearest reachable node.  Only reachability
  // matters, so after each link a flood from the linked node marks its
  // component instead of a fresh BFS from node 0.
  const node_id root = 0;
  out.bfs_distances(std::span<const node_id>(&root, 1), s.bfs);
  std::vector<std::uint32_t>& dist = s.bfs.dist;
  std::vector<node_id>& queue = s.bfs.frontier;
  for (node_id v = 0; v < n; ++v) {
    if (dist[v] != infinite_distance) continue;
    node_id best = 0;
    double best_d = 1e300;
    for (node_id u = 0; u < n; ++u) {
      if (dist[u] != infinite_distance) {
        const double dx = s.x[u] - s.x[v];
        const double dy = s.y[u] - s.y[v];
        const double d = dx * dx + dy * dy;
        if (d < best_d) {
          best_d = d;
          best = u;
        }
      }
    }
    out.add_edge(v, best);
    queue.clear();
    queue.push_back(v);
    dist[v] = 0;
    for (std::size_t head = 0; head < queue.size(); ++head) {
      for (node_id w : out.neighbors(queue[head])) {
        if (dist[w] == infinite_distance) {
          dist[w] = 0;
          queue.push_back(w);
        }
      }
    }
  }
}

graph random_tree(std::size_t n, rng& r) {
  graph g;
  scratch s;
  random_tree(g, n, r, s);
  return g;
}

graph random_connected(std::size_t n, std::size_t extra_edges, rng& r) {
  graph g;
  scratch s;
  random_connected(g, n, extra_edges, r, s);
  return g;
}

graph permuted_path(std::size_t n, rng& r) {
  graph g;
  scratch s;
  permuted_path(g, n, r, s);
  return g;
}

graph random_geometric(std::size_t n, double radius, rng& r) {
  graph g;
  scratch s;
  random_geometric(g, n, radius, r, s);
  return g;
}

std::size_t make_connected_over(
    graph& g, const graph& base, const std::vector<char>* keep,
    std::vector<std::pair<node_id, node_id>>* added_out, scratch& s) {
  const std::size_t n = g.order();
  NCDN_EXPECTS(base.order() == n);
  NCDN_EXPECTS(keep == nullptr || keep->size() == n);
  auto kept = [&](node_id u) { return keep == nullptr || (*keep)[u] != 0; };

  // Union-find over node ids (path halving; the smallest id wins a union,
  // which keeps the representatives deterministic).  `apart` counts the
  // components that hold a kept node; once it is 1, every later unite of
  // two kept nodes fails and nothing more can be added.
  std::vector<node_id>& parent = s.parent;
  std::vector<char>& has_kept = s.has_kept;
  parent.resize(n);
  has_kept.resize(n);
  std::size_t apart = 0;
  for (node_id u = 0; u < n; ++u) {
    parent[u] = u;
    has_kept[u] = kept(u) ? 1 : 0;
    apart += static_cast<std::size_t>(has_kept[u]);
  }
  if (apart <= 1) return 0;
  auto find = [&](node_id x) {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  auto unite = [&](node_id a, node_id b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (b < a) std::swap(a, b);
    parent[b] = a;
    if (has_kept[a] != 0 && has_kept[b] != 0) --apart;
    has_kept[a] = static_cast<char>(has_kept[a] | has_kept[b]);
    return true;
  };

  for (node_id u = 0; u < n; ++u) {
    for (node_id v : g.neighbors(u)) {
      if (u < v && unite(u, v) && apart == 1) return 0;
    }
  }

  std::size_t added = 0;
  auto record = [&](node_id u, node_id v) {
    if (added_out != nullptr) added_out->emplace_back(u, v);
  };
  // First pass: base edges between kept nodes, in adjacency order, so the
  // repair reuses links the base topology actually offers.
  for (node_id u = 0; u < n; ++u) {
    if (!kept(u)) continue;
    for (node_id v : base.neighbors(u)) {
      if (u < v && kept(v) && unite(u, v)) {
        if (!g.has_edge(u, v)) {
          g.add_edge(u, v);
          record(u, v);
        }
        ++added;
        if (apart == 1) return added;
      }
    }
  }
  // Fallback: the base cannot bridge (it may only connect the components
  // through excluded nodes); the adversary is free to invent edges, so link
  // each remaining component's representative to the smallest kept node.
  node_id anchor = 0;
  while (!kept(anchor)) ++anchor;
  for (node_id u = anchor + 1; u < n; ++u) {
    if (kept(u) && unite(anchor, u)) {
      g.add_edge(anchor, u);
      record(anchor, u);
      ++added;
      if (apart == 1) return added;
    }
  }
  return added;
}

}  // namespace ncdn::gen
