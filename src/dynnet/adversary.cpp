#include "dynnet/adversary.hpp"

#include <algorithm>

namespace ncdn {

static_adversary::static_adversary(graph g) : g_(std::move(g)) {
  NCDN_EXPECTS(g_.is_connected());
}

generator_adversary::generator_adversary(std::string name, generator_fn fn,
                                         std::uint64_t seed)
    : name_(std::move(name)), fn_(std::move(fn)), rng_(seed) {}

const graph& generator_adversary::topology(round_t r, const knowledge_view&) {
  if (r != current_round_) {
    fn_(current_, rng_, scratch_);
    NCDN_ENSURES(current_.is_connected(scratch_.bfs));
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
  extras_.reserve(extra_edges_);
}

const graph& t_interval_adversary::topology(round_t r,
                                            const knowledge_view&) {
  if (r != current_round_) {
    // The window's first round draws the backbone tree straight into
    // `current_`; later rounds pop the previous extras off the adjacency
    // tails (they were appended last) and append fresh ones, so each
    // node's neighbor order is the window tree's followed by this round's
    // extras.
    const round_t window = r / t_;
    if (window != tree_window_) {
      window_rng_ = rng_;
      gen::random_tree(current_, n_, rng_, scratch_);
      tree_window_ = window;
    } else {
      for (auto it = extras_.rbegin(); it != extras_.rend(); ++it) {
        current_.pop_edge_tail(it->first, it->second);
      }
    }
    extras_.clear();
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
  rng replay = window_rng_;
  graph g = gen::random_tree(n_, replay);
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
  // Slots enumerate the base's unique candidate edges in first-sighting
  // scan order, and each round advances every slot's chain once, in slot
  // order (parallel base edges share one chain).  The archive outlives
  // base changes: a chain survives a rebind.  The first binding's slots
  // take archive positions 0, 1, ... unindexed; the old binding's slots
  // enter the index just before a rebind finds it empty.
  if (!delta_.bound_to(base)) {
    if (index_.empty()) {
      for (std::size_t s = 0; s < slot_chain_.size(); ++s) {
        index_.find_or_insert(slot_key(s), slot_chain_[s]);
      }
    }
    delta_.rebind(base);
    slot_chain_.resize(delta_.slots());
    for (std::size_t s = 0; s < delta_.slots(); ++s) {
      const auto fresh = static_cast<std::uint32_t>(archive_.size());
      slot_chain_[s] =
          index_.empty() ? fresh : index_.find_or_insert(slot_key(s), fresh);
      if (slot_chain_[s] == fresh) archive_.push_back(edge_unseen);
    }
  }
  // One draw per slot: bernoulli(p_on) from off, !bernoulli(p_off) from
  // on, bernoulli(stationary) at first sighting.  Indexing the threshold
  // by state and flipping the on-state's outcome takes no state branch.
  // The generator runs on a local copy, which the byte stores of the loop
  // cannot alias, so its state stays in registers.
  const double threshold[3] = {p_on_, p_off_, p_on_ / (p_on_ + p_off_)};
  rng draws = rng_;
  edge_state* const chain = archive_.data();
  const std::uint32_t* const slot_chain = slot_chain_.data();
  delta_.assign([&](std::size_t s) {
    edge_state& st = chain[slot_chain[s]];
    const bool on = (draws.uniform01() < threshold[st]) != (st == edge_on);
    st = on ? edge_on : edge_off;
    return on;
  });
  rng_ = draws;
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
    flipped_.reserve(n);
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
    delta_.assign([&](std::size_t s) {
      return live_[delta_.slot_u(s)] != 0 && live_[delta_.slot_v(s)] != 0;
    });
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

namespace {

// Orders the nodes by knowledge, ties by node id: the order a stable sort
// of the identity permutation gives, without its merge buffer.  Each
// node's knowledge is read into `key` once.
void sort_by_knowledge(const knowledge_view& view, bool ascending,
                       std::vector<std::size_t>& key,
                       std::vector<node_id>& order) {
  const std::size_t n = view.node_count();
  key.resize(n);
  order.resize(n);
  for (node_id u = 0; u < n; ++u) {
    key[u] = view.knowledge(u);
    order[u] = u;
  }
  std::sort(order.begin(), order.end(), [&](node_id a, node_id b) {
    if (key[a] != key[b]) return ascending ? key[a] < key[b] : key[a] > key[b];
    return a < b;
  });
}

}  // namespace

const graph& adaptive_min_cut_adversary::topology(round_t,
                                                  const knowledge_view& view) {
  const std::size_t n = view.node_count();
  sort_by_knowledge(view, /*ascending=*/true, key_, order_);
  // Split at the widest knowledge gap: the frontier the protocol most
  // needs to cross.  Uniform knowledge has no frontier to attack; fall
  // back to a balanced split.
  std::size_t split = n / 2;
  std::size_t best_gap = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::size_t gap = key_[order_[i]] - key_[order_[i - 1]];
    if (gap > best_gap) {
      best_gap = gap;
      split = i;
    }
  }
  if (split == 0 || split == n) split = n / 2;

  current_.reset(n);
  auto side = [&](std::size_t begin, std::size_t end) {
    if (clique_sides_) {
      for (std::size_t i = begin; i < end; ++i) {
        for (std::size_t j = i + 1; j < end; ++j) {
          current_.add_edge(order_[i], order_[j]);
        }
      }
    } else {
      for (std::size_t i = begin; i + 1 < end; ++i) {
        current_.add_edge(order_[i], order_[i + 1]);
      }
    }
  };
  side(0, split);
  side(split, n);
  // The single bridge joins the two knowledge-adjacent boundary nodes —
  // the pair whose exchange is least informative.
  if (split < n && split > 0) {
    current_.add_edge(order_[split - 1], order_[split]);
  }

  low_side_.assign(n, 0);
  for (std::size_t i = 0; i < split; ++i) low_side_[order_[i]] = 1;
  return current_;
}

const graph& sorted_path_adversary::topology(round_t,
                                             const knowledge_view& view) {
  const std::size_t n = view.node_count();
  sort_by_knowledge(view, ascending_, key_, order_);
  current_.reset(n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    current_.add_edge(order_[i], order_[i + 1]);
  }
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
      "permuted-path",
      [n](graph& out, rng& r, gen::scratch& s) {
        gen::permuted_path(out, n, r, s);
      },
      seed);
}

std::unique_ptr<adversary> make_random_connected(std::size_t n,
                                                 std::size_t extra_edges,
                                                 std::uint64_t seed) {
  return std::make_unique<generator_adversary>(
      "random-connected",
      [n, extra_edges](graph& out, rng& r, gen::scratch& s) {
        gen::random_connected(out, n, extra_edges, r, s);
      },
      seed);
}

std::unique_ptr<adversary> make_random_geometric(std::size_t n, double radius,
                                                 std::uint64_t seed) {
  return std::make_unique<generator_adversary>(
      "random-geometric",
      [n, radius](graph& out, rng& r, gen::scratch& s) {
        gen::random_geometric(out, n, radius, r, s);
      },
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
