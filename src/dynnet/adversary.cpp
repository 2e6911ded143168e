#include "dynnet/adversary.hpp"

#include <algorithm>
#include <numeric>

namespace ncdn {

static_adversary::static_adversary(graph g) : g_(std::move(g)) {
  NCDN_EXPECTS(g_.is_connected());
}

generator_adversary::generator_adversary(std::string name, generator_fn fn,
                                         std::uint64_t seed)
    : name_(std::move(name)), fn_(std::move(fn)), rng_(seed) {}

const graph& generator_adversary::topology(round_t r, const knowledge_view&) {
  if (r != current_round_) {
    current_ = fn_(rng_);
    NCDN_ENSURES(current_.is_connected(scratch_));
    current_round_ = r;
  }
  return current_;
}

t_stable_adversary::t_stable_adversary(std::unique_ptr<adversary> inner,
                                       round_t t)
    : inner_(std::move(inner)), t_(t) {
  NCDN_EXPECTS(t_ >= 1);
  NCDN_EXPECTS(inner_ != nullptr);
}

const graph& t_stable_adversary::topology(round_t r,
                                          const knowledge_view& view) {
  const round_t window = r / t_;
  if (window != cached_window_ || cached_ == nullptr) {
    // The inner adversary sees the state at the *start of the window*,
    // matching T-stability: within a window the topology cannot react.
    cached_ = &inner_->topology(window, view);
    cached_window_ = window;
  }
  return *cached_;
}

std::string t_stable_adversary::name() const {
  return inner_->name() + "/T=" + std::to_string(t_);
}

t_interval_adversary::t_interval_adversary(std::size_t n, round_t t,
                                           std::size_t extra_edges,
                                           std::uint64_t seed)
    : n_(n), t_(t), extra_edges_(extra_edges), rng_(seed) {
  NCDN_EXPECTS(n >= 2 && t >= 1);
}

const graph& t_interval_adversary::topology(round_t r,
                                            const knowledge_view&) {
  const round_t window = r / t_;
  if (window != tree_window_) {
    tree_ = gen::random_tree(n_, rng_);
    tree_window_ = window;
    window_fresh_ = true;
  }
  if (r != current_round_) {
    // The backbone is copied once per window; per round the previous
    // extras are popped off the adjacency tails (they were appended last)
    // and fresh ones appended, so each node's neighbor order is the
    // window tree's followed by this round's extras.
    if (window_fresh_) {
      current_ = tree_;
      extras_.clear();
      window_fresh_ = false;
    } else {
      for (auto it = extras_.rbegin(); it != extras_.rend(); ++it) {
        current_.pop_edge_tail(it->first, it->second);
      }
      extras_.clear();
    }
    for (std::size_t e = 0; e < extra_edges_; ++e) {
      const node_id u = static_cast<node_id>(rng_.below(n_));
      node_id v = static_cast<node_id>(rng_.below(n_ - 1));
      if (v >= u) ++v;
      if (!current_.has_edge(u, v)) {
        current_.add_edge(u, v);
        extras_.emplace_back(u, v);
      }
    }
    NCDN_AUDIT(current_ == audit_rebuild());  // delta == rebuild
    current_round_ = r;
  }
  return current_;
}

graph t_interval_adversary::audit_rebuild() const {
  graph g = tree_;
  for (const auto& [u, v] : extras_) g.add_edge(u, v);
  return g;
}

std::string t_interval_adversary::name() const {
  return "t-interval/T=" + std::to_string(t_);
}

edge_markov_adversary::edge_markov_adversary(std::unique_ptr<adversary> base,
                                             double p_on, double p_off,
                                             std::uint64_t seed)
    : base_(std::move(base)), p_on_(p_on), p_off_(p_off), rng_(seed) {
  NCDN_EXPECTS(base_ != nullptr);
  NCDN_EXPECTS(p_on_ > 0.0 && p_on_ <= 1.0);
  NCDN_EXPECTS(p_off_ >= 0.0 && p_off_ <= 1.0);
}

const graph& edge_markov_adversary::topology(round_t r,
                                             const knowledge_view& view) {
  if (r == current_round_) return current_;
  const graph& base = base_->topology(r, view);
  const std::size_t n = base.order();
  // Slots enumerate the base's unique candidate edges in first-sighting
  // scan order, and each round advances every slot's chain once, in slot
  // order (parallel base edges share one chain).  The map is the chain
  // archive across base changes: a chain survives a rebind.
  if (!delta_.bound_to(base)) {
    delta_.rebind(base);
    chains_.clear();
    chains_.reserve(delta_.slots());
    for (std::size_t s = 0; s < delta_.slots(); ++s) {
      const std::uint64_t key =
          static_cast<std::uint64_t>(delta_.slot_u(s)) * n + delta_.slot_v(s);
      chains_.push_back(&states_[key]);
    }
  }
  for (std::size_t s = 0; s < delta_.slots(); ++s) {
    edge_state& st = *chains_[s];
    if (st.last != r) {
      if (st.last == ~round_t{0}) {
        // First sighting: stationary distribution of the chain.
        st.on = rng_.bernoulli(p_on_ / (p_on_ + p_off_));
      } else if (st.on) {
        st.on = !rng_.bernoulli(p_off_);
      } else {
        st.on = rng_.bernoulli(p_on_);
      }
      st.last = r;
    }
    delta_.set_on(s, st.on);
  }
  forced_edges_ = delta_.apply(current_, base);
  NCDN_ENSURES(current_.is_connected(scratch_));
  current_round_ = r;
  return current_;
}

std::string edge_markov_adversary::name() const {
  return "edge-markov(" + base_->name() + ")";
}

churn_adversary::churn_adversary(std::unique_ptr<adversary> base, double rate,
                                 double rejoin, std::size_t min_live,
                                 round_t max_down, std::uint64_t seed)
    : base_(std::move(base)),
      rate_(rate),
      rejoin_(rejoin),
      min_live_(min_live),
      max_down_(max_down),
      rng_(seed) {
  NCDN_EXPECTS(base_ != nullptr);
  NCDN_EXPECTS(rate_ >= 0.0 && rate_ < 1.0);
  NCDN_EXPECTS(rejoin_ >= 0.0 && rejoin_ <= 1.0);
  NCDN_EXPECTS(min_live_ >= 2);
  NCDN_EXPECTS(max_down_ >= 1);
}

const graph& churn_adversary::topology(round_t r, const knowledge_view& view) {
  if (r == current_round_) return current_;
  const graph& base = base_->topology(r, view);
  const std::size_t n = base.order();
  if (live_.empty()) {
    NCDN_EXPECTS(min_live_ <= n);
    live_.assign(n, 1);
    down_since_.assign(n, 0);
    live_count_ = n;
  }
  // Advance the arrival/departure process in node-id order (deterministic;
  // the live floor is enforced against the running count).  Flips are
  // recorded so only the affected slots are refreshed.
  flipped_.clear();
  for (node_id u = 0; u < n; ++u) {
    if (live_[u] != 0) {
      if (live_count_ > min_live_ && rng_.bernoulli(rate_)) {
        live_[u] = 0;
        down_since_[u] = r;
        --live_count_;
        flipped_.push_back(u);
      }
    } else {
      // Bounded downtime: the guaranteed rejoin keeps dissemination
      // terminating even at rejoin_ = 0.
      if (r - down_since_[u] >= max_down_ || rng_.bernoulli(rejoin_)) {
        live_[u] = 1;
        ++live_count_;
        flipped_.push_back(u);
      }
    }
  }
  // The base topology induced on the live set: a slot is on iff both
  // endpoints are live, so departed nodes are isolated.  Refreshing
  // happens after the whole liveness pass (an edge's state depends on both
  // endpoints' final liveness this round).
  if (!delta_.bound_to(base)) {
    delta_.rebind(base);
    for (std::size_t s = 0; s < delta_.slots(); ++s) {
      delta_.set_on(s, live_[delta_.slot_u(s)] != 0 &&
                           live_[delta_.slot_v(s)] != 0);
    }
  } else {
    for (node_id u : flipped_) delta_.refresh_node(u, live_);
  }
  // The live set must stay connected (its own §4.1 contract); the base
  // may only connect it through departed nodes, so invented links can
  // appear.
  delta_.apply(current_, base, &live_);
  NCDN_AUDIT(audit_live_invariants(current_, r));
  current_round_ = r;
  return current_;
}

bool churn_adversary::audit_live_invariants(const graph& g, round_t r) const {
  // Census: the running live_count_ matches the mask, and the floor holds.
  std::size_t live = 0;
  for (char c : live_) live += static_cast<std::size_t>(c != 0);
  if (live != live_count_ || live < min_live_) return false;
  const std::size_t n = live_.size();
  for (node_id u = 0; u < n; ++u) {
    // Bounded downtime: the forced rejoin fired before max_down_ elapsed.
    if (live_[u] == 0 && r - down_since_[u] >= max_down_) return false;
    // Departed nodes are isolated — no edge may lean on them.
    if (live_[u] == 0 && !g.neighbors(u).empty()) return false;
  }
  // The live-induced subgraph is connected: one multi-source-free BFS from
  // any live node must reach every live node (departed ones are isolated,
  // so reachability cannot route through them).
  node_id src = 0;
  while (src < n && live_[src] == 0) ++src;
  if (src == n) return live == 0;
  const std::vector<std::uint32_t> dist = g.bfs_distances(src);
  for (node_id u = 0; u < n; ++u) {
    if (live_[u] != 0 && dist[u] == infinite_distance) return false;
  }
  return true;
}

std::string churn_adversary::name() const {
  return "churn(" + base_->name() + ")";
}

const graph& adaptive_min_cut_adversary::topology(round_t,
                                                  const knowledge_view& view) {
  const std::size_t n = view.node_count();
  std::vector<node_id> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](node_id a, node_id b) {
    return view.knowledge(a) < view.knowledge(b);
  });
  // Split at the widest knowledge gap: the frontier the protocol most
  // needs to cross.  Uniform knowledge has no frontier to attack; fall
  // back to a balanced split.
  std::size_t split = n / 2;
  std::size_t best_gap = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t gap =
        view.knowledge(order[i]) - view.knowledge(order[i - 1]);
    if (gap > best_gap) {
      best_gap = gap;
      split = i;
    }
  }
  if (split == 0 || split == n) split = n / 2;

  graph g(n);
  auto side = [&](std::size_t begin, std::size_t end) {
    if (clique_sides_) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < end; ++j) {
          g.add_edge(order[i], order[j]);
        }
      }
    } else {
      for (std::size_t i = begin; i + 1 < end; ++i) {
        g.add_edge(order[i], order[i + 1]);
      }
    }
  };
  side(0, split);
  side(split, n);
  // The single bridge joins the two knowledge-adjacent boundary nodes —
  // the pair whose exchange is least informative.
  if (split < n && split > 0) g.add_edge(order[split - 1], order[split]);

  low_side_.assign(n, 0);
  for (std::size_t i = 0; i < split; ++i) low_side_[order[i]] = 1;
  current_ = std::move(g);
  return current_;
}

const graph& sorted_path_adversary::topology(round_t,
                                             const knowledge_view& view) {
  const std::size_t n = view.node_count();
  std::vector<node_id> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(), [&](node_id a, node_id b) {
    const std::size_t ka = view.knowledge(a);
    const std::size_t kb = view.knowledge(b);
    return ascending_ ? ka < kb : ka > kb;
  });
  graph g(n);
  for (std::size_t i = 0; i + 1 < n; ++i) g.add_edge(order[i], order[i + 1]);
  current_ = std::move(g);
  return current_;
}

std::unique_ptr<adversary> make_static_path(std::size_t n) {
  return std::make_unique<static_adversary>(gen::path(n));
}

std::unique_ptr<adversary> make_static_star(std::size_t n) {
  return std::make_unique<static_adversary>(gen::star(n));
}

std::unique_ptr<adversary> make_permuted_path(std::size_t n,
                                              std::uint64_t seed) {
  return std::make_unique<generator_adversary>(
      "permuted-path", [n](rng& r) { return gen::permuted_path(n, r); }, seed);
}

std::unique_ptr<adversary> make_random_connected(std::size_t n,
                                                 std::size_t extra_edges,
                                                 std::uint64_t seed) {
  return std::make_unique<generator_adversary>(
      "random-connected",
      [n, extra_edges](rng& r) {
        return gen::random_connected(n, extra_edges, r);
      },
      seed);
}

std::unique_ptr<adversary> make_random_geometric(std::size_t n, double radius,
                                                 std::uint64_t seed) {
  return std::make_unique<generator_adversary>(
      "random-geometric",
      [n, radius](rng& r) { return gen::random_geometric(n, radius, r); },
      seed);
}

std::unique_ptr<adversary> make_sorted_path() {
  return std::make_unique<sorted_path_adversary>();
}

std::unique_ptr<adversary> make_t_stable(std::unique_ptr<adversary> inner,
                                         round_t t) {
  return std::make_unique<t_stable_adversary>(std::move(inner), t);
}

std::unique_ptr<adversary> make_t_interval(std::size_t n, round_t t,
                                           std::size_t extra_edges,
                                           std::uint64_t seed) {
  return std::make_unique<t_interval_adversary>(n, t, extra_edges, seed);
}

std::unique_ptr<adversary> make_static_clique(std::size_t n) {
  return std::make_unique<static_adversary>(gen::clique(n));
}

std::unique_ptr<adversary> make_edge_markov(std::unique_ptr<adversary> base,
                                            double p_on, double p_off,
                                            std::uint64_t seed) {
  return std::make_unique<edge_markov_adversary>(std::move(base), p_on, p_off,
                                                 seed);
}

std::unique_ptr<adversary> make_churn(std::unique_ptr<adversary> base,
                                      double rate, double rejoin,
                                      std::size_t min_live, round_t max_down,
                                      std::uint64_t seed) {
  return std::make_unique<churn_adversary>(std::move(base), rate, rejoin,
                                           min_live, max_down, seed);
}

std::unique_ptr<adversary> make_adaptive_min_cut(bool clique_sides) {
  return std::make_unique<adaptive_min_cut_adversary>(clique_sides);
}

}  // namespace ncdn
