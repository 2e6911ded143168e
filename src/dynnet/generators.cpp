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

graph random_tree(std::size_t n, rng& r) {
  NCDN_EXPECTS(n >= 1);
  graph g(n);
  // Random attachment with a random node ordering produces a uniform-ish
  // random tree shape; exact uniformity over labelled trees is not needed.
  std::vector<node_id> order(n);
  std::iota(order.begin(), order.end(), 0);
  r.shuffle(order);
  for (std::size_t i = 1; i < n; ++i) {
    const node_id parent = order[r.below(i)];
    g.add_edge(order[i], parent);
  }
  return g;
}

graph random_connected(std::size_t n, std::size_t extra_edges, rng& r) {
  graph g = random_tree(n, r);
  if (n < 2) return g;
  for (std::size_t e = 0; e < extra_edges; ++e) {
    const node_id u = static_cast<node_id>(r.below(n));
    node_id v = static_cast<node_id>(r.below(n - 1));
    if (v >= u) ++v;
    if (!g.has_edge(u, v)) g.add_edge(u, v);
  }
  return g;
}

graph permuted_path(std::size_t n, rng& r) {
  NCDN_EXPECTS(n >= 1);
  std::vector<node_id> order(n);
  std::iota(order.begin(), order.end(), 0);
  r.shuffle(order);
  graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_edge(order[i], order[i + 1]);
  return g;
}

graph random_geometric(std::size_t n, double radius, rng& r) {
  NCDN_EXPECTS(n >= 1);
  std::vector<double> x(n), y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = r.uniform01();
    y[i] = r.uniform01();
  }
  graph g(n);
  const double r2 = radius * radius;
  for (node_id u = 0; u < n; ++u) {
    for (node_id v = u + 1; v < n; ++v) {
      const double dx = x[u] - x[v];
      const double dy = y[u] - y[v];
      if (dx * dx + dy * dy <= r2) g.add_edge(u, v);
    }
  }
  // Patch connectivity: link each non-root component to its geometrically
  // nearest already-connected node.
  auto dist = g.bfs_distances(0);
  for (node_id v = 0; v < n; ++v) {
    if (dist[v] == infinite_distance) {
      node_id best = 0;
      double best_d = 1e300;
      for (node_id u = 0; u < n; ++u) {
        if (dist[u] != infinite_distance) {
          const double dx = x[u] - x[v];
          const double dy = y[u] - y[v];
          const double d = dx * dx + dy * dy;
          if (d < best_d) {
            best_d = d;
            best = u;
          }
        }
      }
      g.add_edge(v, best);
      dist = g.bfs_distances(0);
    }
  }
  return g;
}

namespace {

// Minimal union-find over node ids (path halving + union by id, which keeps
// representative choice deterministic).
class dsu {
 public:
  explicit dsu(std::size_t n) : parent_(n) {
    for (std::size_t i = 0; i < n; ++i) parent_[i] = static_cast<node_id>(i);
  }

  node_id find(node_id x) {
    while (parent_[x] != x) {
      parent_[x] = parent_[parent_[x]];
      x = parent_[x];
    }
    return x;
  }

  bool unite(node_id a, node_id b) {
    a = find(a);
    b = find(b);
    if (a == b) return false;
    if (b < a) std::swap(a, b);  // smallest id wins: deterministic reps
    parent_[b] = a;
    return true;
  }

 private:
  std::vector<node_id> parent_;
};

}  // namespace

std::size_t make_connected_over(
    graph& g, const graph& base, const std::vector<char>* keep,
    std::vector<std::pair<node_id, node_id>>* added_out) {
  const std::size_t n = g.order();
  NCDN_EXPECTS(base.order() == n);
  NCDN_EXPECTS(keep == nullptr || keep->size() == n);
  auto kept = [&](node_id u) { return keep == nullptr || (*keep)[u] != 0; };

  dsu components(n);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v : g.neighbors(u)) {
      if (u < v) components.unite(u, v);
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
      if (u < v && kept(v) && components.unite(u, v)) {
        if (!g.has_edge(u, v)) {
          g.add_edge(u, v);
          record(u, v);
        }
        ++added;
      }
    }
  }
  // Fallback: the base cannot bridge (it may only connect the components
  // through excluded nodes); the adversary is free to invent edges, so link
  // each remaining component's representative to the smallest kept node.
  node_id anchor = 0;
  bool have_anchor = false;
  for (node_id u = 0; u < n; ++u) {
    if (kept(u)) {
      anchor = u;
      have_anchor = true;
      break;
    }
  }
  if (!have_anchor) return added;
  for (node_id u = 0; u < n; ++u) {
    if (kept(u) && components.unite(anchor, u)) {
      g.add_edge(anchor, u);
      record(anchor, u);
      ++added;
    }
  }
  return added;
}

}  // namespace ncdn::gen
