// The adversary chooses the communication graph each round (paper §4.1).
//
// Ordering, faithful to the paper's *adaptive adversary*: at the start of a
// round the adversary sees the complete current state of all nodes (exposed
// through `knowledge_view`), commits a connected topology, and only then do
// nodes draw their (possibly random) messages.  The omniscient adversary of
// §6 additionally knows future coin flips; it lives next to the protocol it
// attacks (protocols/deterministic_nc) because it inspects coding state
// directly.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/pair_index.hpp"
#include "core/rng.hpp"
#include "dynnet/delta.hpp"
#include "dynnet/generators.hpp"
#include "dynnet/graph.hpp"

namespace ncdn {

/// Read-only view of node knowledge that adaptive adversaries may inspect.
/// For coding protocols `knowledge(u)` is the rank of u's received span; for
/// forwarding protocols it is the number of tokens u knows.
class knowledge_view {
 public:
  knowledge_view() : view_id_(next_id()) {}
  // Copies are distinct accounting entities (fresh id); assignment keeps
  // the target's identity.
  knowledge_view(const knowledge_view&) : view_id_(next_id()) {}
  knowledge_view& operator=(const knowledge_view&) { return *this; }
  virtual ~knowledge_view() = default;
  virtual std::size_t node_count() const = 0;
  virtual std::size_t knowledge(node_id u) const = 0;

  /// Cumulative decode work (XOR word-ops) behind this view, for the
  /// session's per-round elimination accounting.  Coding views report
  /// their decoders' counters; state with no elimination cost reports 0.
  virtual std::uint64_t coding_work() const { return 0; }

  /// Per-token decode-delay histogram behind this view, or nullptr for
  /// views with no decode surface.  Index = rounds from the view's first
  /// round until a (node, token) pair first became decodable (seeds land
  /// in bucket 0); value = count of such pairs.  Cumulative per view —
  /// the session diffs snapshots keyed on view_id, like coding_work.
  virtual const std::vector<std::uint64_t>* decode_delays() const {
    return nullptr;
  }

  /// Process-unique identity (never 0).  The session keys its coding_work
  /// deltas on this rather than the address: a protocol phase's fresh view
  /// allocated where a freed one lived must not inherit its counter.
  std::uint64_t view_id() const noexcept { return view_id_; }

 private:
  static std::uint64_t next_id() noexcept {
    static std::atomic<std::uint64_t> counter{0};
    return counter.fetch_add(1, std::memory_order_relaxed) + 1;
  }

  std::uint64_t view_id_;
};

/// Trivial view for protocol phases with no adversary-relevant state.
class opaque_view final : public knowledge_view {
 public:
  explicit opaque_view(std::size_t n) : n_(n) {}
  std::size_t node_count() const override { return n_; }
  std::size_t knowledge(node_id) const override { return 0; }

 private:
  std::size_t n_;
};

class adversary {
 public:
  virtual ~adversary() = default;
  /// The connected communication graph for round `r`.  The reference is
  /// valid until the next call: every family rebuilds one graph in place,
  /// so a steady-state round allocates only when a node passes its previous
  /// degree record (or, for edge-markov, a never-seen pair gets a chain).
  virtual const graph& topology(round_t r, const knowledge_view& view) = 0;
  virtual std::string name() const = 0;

  /// True when every round's topology is connected over *all* nodes (the
  /// §4.1 model every protocol in the paper is specified against).
  /// Families that only guarantee connectivity of a live subset (churn)
  /// return false; the session refuses to pair them with protocols whose
  /// correctness rests on whole-graph agreement (min-flood consensus).
  virtual bool full_connectivity() const { return true; }

  /// Does nothing: every family has one topology path.  It stays virtual
  /// only because `bench/ncdn_bench`'s timing decorator overrides it, and
  /// goes when that harness stops doing so.
  virtual void set_rebuild_mode(bool) {}

  /// Per-node liveness on the most recently committed round (1 = live), or
  /// nullptr when every node is always live.  Only the churn family
  /// maintains a mask; wrappers forward to their inner adversary.  The
  /// versioned-content epoch driver reads this to scope per-epoch
  /// completion to the nodes that can actually receive.
  virtual const std::vector<char>* live_mask() const { return nullptr; }
};

/// Fixed topology every round (the static-network degenerate case).
class static_adversary final : public adversary {
 public:
  explicit static_adversary(graph g);
  const graph& topology(round_t, const knowledge_view&) override {
    return g_;
  }
  std::string name() const override { return "static"; }

 private:
  graph g_;
};

/// A fresh graph from an in-place generator every round (oblivious).
class generator_adversary final : public adversary {
 public:
  /// Refills `out` from the rng, using the scratch for working memory.
  using generator_fn = std::function<void(graph&, rng&, gen::scratch&)>;
  generator_adversary(std::string name, generator_fn fn, std::uint64_t seed);
  const graph& topology(round_t r, const knowledge_view&) override;
  std::string name() const override { return name_; }

 private:
  std::string name_;
  generator_fn fn_;
  rng rng_;
  graph current_;
  round_t current_round_ = ~round_t{0};
  gen::scratch scratch_;  // also serves the connectivity contract's BFS
};

/// T-stability wrapper (§8): delegates to an inner adversary but only lets
/// the topology change every T rounds.
class t_stable_adversary final : public adversary {
 public:
  t_stable_adversary(std::unique_ptr<adversary> inner, round_t t);
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override;
  bool full_connectivity() const override {
    return inner_->full_connectivity();
  }
  const std::vector<char>* live_mask() const override {
    return inner_->live_mask();
  }
  round_t stability() const noexcept { return t_; }

 private:
  std::unique_ptr<adversary> inner_;
  round_t t_;
  const graph* cached_ = nullptr;
  round_t cached_window_ = ~round_t{0};
};

/// T-interval connectivity (the Kuhn et al. notion the paper's T-stability
/// strengthens): within each window of T rounds a random spanning *tree*
/// stays fixed, while extra edges are redrawn every round.  Harsher than
/// T-stability — only the tree is dependable — and the model the paper's
/// §9 asks about extending the patch algorithms to.
class t_interval_adversary final : public adversary {
 public:
  t_interval_adversary(std::size_t n, round_t t, std::size_t extra_edges,
                       std::uint64_t seed);
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override;
  round_t interval() const noexcept { return t_; }

 private:
  /// Audit oracle: the window tree plus the recorded extras, rebuilt from
  /// scratch (the tree replayed from a copy of the window's generator
  /// state, so the adversary's own stream is not consumed) — must equal
  /// the delta-maintained `current_`.
  graph audit_rebuild() const;

  std::size_t n_;
  round_t t_;
  std::size_t extra_edges_;
  rng rng_;
  rng window_rng_;  // rng_ as it stood before drawing the window tree
  gen::scratch scratch_;
  round_t tree_window_ = ~round_t{0};
  graph current_;
  round_t current_round_ = ~round_t{0};
  // Extras actually added this round, in add order; they are popped off
  // the adjacency tails before the next round's extras are drawn.
  std::vector<std::pair<node_id, node_id>> extras_;
};

/// Adaptive adversary: arranges nodes on a path sorted by current knowledge
/// so that neighbours know (nearly) the same things — the canonical way to
/// waste token-forwarding broadcasts (§5.2's "most token forwarding steps
/// are therefore wasted" situation, engineered on purpose).
class sorted_path_adversary final : public adversary {
 public:
  explicit sorted_path_adversary(bool ascending = true)
      : ascending_(ascending) {}
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override { return "sorted-path"; }

 private:
  bool ascending_;
  graph current_;
  std::vector<std::size_t> key_;  // each node's knowledge, read once
  std::vector<node_id> order_;
};

/// Per-edge on/off Markov chains over a base adversary's edge set
/// (Ashrafi-Roy-Firooz's evolving ad-hoc graphs).  Each round the base
/// commits its topology — the *candidate* edge set — and every candidate
/// edge carries a persistent two-state chain: off -> on with `p_on`,
/// on -> off with `p_off` (first sighting draws from the stationary
/// distribution p_on / (p_on + p_off)).  The round's graph is the "on"
/// candidates, patched back to connectivity (the model's §4.1 contract)
/// with base edges first and invented links as a last resort.
class edge_markov_adversary final : public adversary {
 public:
  edge_markov_adversary(std::unique_ptr<adversary> base, double p_on,
                        double p_off, std::uint64_t seed);
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override;

  /// Connectivity-repair edges added on the most recent round (observable
  /// so tests can assert the patching stays minimal).
  std::size_t last_forced_edges() const noexcept { return forced_edges_; }

  /// Chains in the archive: every pair the base has ever offered.
  std::size_t chains() const noexcept { return archive_.size(); }

 private:
  /// A chain's state; a pair not yet sighted draws its first state from
  /// the stationary distribution.
  enum edge_state : std::uint8_t { edge_off = 0, edge_on = 1, edge_unseen = 2 };

  /// Slot s's pair key, u << 32 | v with u < v.
  std::uint64_t slot_key(std::size_t s) const {
    return (static_cast<std::uint64_t>(delta_.slot_u(s)) << 32) |
           delta_.slot_v(s);
  }

  std::unique_ptr<adversary> base_;
  double p_on_;
  double p_off_;
  rng rng_;
  // The chain archive, in first-sighting order.  A chain survives a
  // rebind: a pair that leaves the base and returns resumes its state.
  std::vector<edge_state> archive_;
  // Each pair's archive position.  The first binding's chains are its
  // slots in slot order and need no index; it is filled just before the
  // second rebind, the first that can meet a pair again.
  pair_index index_;
  graph current_;
  round_t current_round_ = ~round_t{0};
  std::size_t forced_edges_ = 0;
  // Slot structure over the base's candidate edges plus each slot's
  // archive position, so the steady state advances chains and flips slots
  // without rebuilding the graph.
  topology_delta delta_;
  std::vector<std::uint32_t> slot_chain_;
  bfs_scratch scratch_;
};

/// Node churn over a base adversary: each round a live node departs with
/// probability `rate` (never dropping the live population below
/// `min_live`) and a departed node rejoins with probability `rejoin` — or
/// unconditionally after `max_down` rounds, so downtime is bounded and
/// dissemination still terminates.  The round's graph is the base topology
/// induced on the live set, patched so the live set stays connected;
/// departed nodes are isolated (degree 0) until they return.
class churn_adversary final : public adversary {
 public:
  churn_adversary(std::unique_ptr<adversary> base, double rate, double rejoin,
                  std::size_t min_live, round_t max_down, std::uint64_t seed);
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override;
  /// Departed nodes are isolated: only the live set is connected.
  bool full_connectivity() const override { return false; }

  /// Liveness of every node on the most recent round (1 = live).
  const std::vector<char>& live() const noexcept { return live_; }
  /// nullptr until the first round commits a mask (every node starts live).
  const std::vector<char>* live_mask() const override {
    return live_.empty() ? nullptr : &live_;
  }
  std::size_t live_count() const noexcept { return live_count_; }
  std::size_t min_live() const noexcept { return min_live_; }

 private:
  /// Audit-build sweep of the §4.1 churn contracts: live census and
  /// floor, bounded downtime, isolated departed nodes, and connectivity
  /// of the live-induced subgraph.
  bool audit_live_invariants(const graph& g, round_t r) const;

  std::unique_ptr<adversary> base_;
  double rate_;
  double rejoin_;
  std::size_t min_live_;
  round_t max_down_;
  rng rng_;
  std::vector<char> live_;
  std::vector<round_t> down_since_;
  std::size_t live_count_ = 0;
  graph current_;
  round_t current_round_ = ~round_t{0};
  // A slot's on-state is live(u) && live(v); only nodes whose liveness
  // flipped this round refresh their incident slots.
  topology_delta delta_;
  std::vector<node_id> flipped_;
};

/// Adaptive worst case: every round the adversary sorts nodes by current
/// knowledge, splits them at the widest knowledge gap, and commits two
/// dense sides joined by a single bridge — so the cut between the
/// have-nots and the haves carries exactly one O(b)-bit message per round.
/// This is the frontier-min-cut engineered on purpose: token-forwarding
/// protocols are throttled to the bridge bandwidth while coded broadcasts
/// keep every bridge message innovative (§5's gap, made adversarial).
class adaptive_min_cut_adversary final : public adversary {
 public:
  /// `clique_sides`: dense (clique) sides when true, knowledge-sorted
  /// paths when false (paths additionally starve intra-side mixing).
  explicit adaptive_min_cut_adversary(bool clique_sides = true)
      : clique_sides_(clique_sides) {}
  const graph& topology(round_t r, const knowledge_view& view) override;
  std::string name() const override { return "adaptive-min-cut"; }

  /// The split committed on the most recent round: nodes in the low-
  /// knowledge side (1 = low side), for the cut-size invariant tests.
  const std::vector<char>& last_low_side() const noexcept { return low_side_; }

 private:
  bool clique_sides_;
  graph current_;
  std::vector<char> low_side_;
  std::vector<std::size_t> key_;  // each node's knowledge, read once
  std::vector<node_id> order_;
};

/// Convenience factories for the standard adversaries used by tests and
/// benches.  `seed` feeds the adversary's private randomness.
std::unique_ptr<adversary> make_static_path(std::size_t n);
std::unique_ptr<adversary> make_static_star(std::size_t n);
std::unique_ptr<adversary> make_permuted_path(std::size_t n,
                                              std::uint64_t seed);
std::unique_ptr<adversary> make_random_connected(std::size_t n,
                                                 std::size_t extra_edges,
                                                 std::uint64_t seed);
std::unique_ptr<adversary> make_random_geometric(std::size_t n, double radius,
                                                 std::uint64_t seed);
std::unique_ptr<adversary> make_sorted_path();
std::unique_ptr<adversary> make_t_stable(std::unique_ptr<adversary> inner,
                                         round_t t);
std::unique_ptr<adversary> make_t_interval(std::size_t n, round_t t,
                                           std::size_t extra_edges,
                                           std::uint64_t seed);
std::unique_ptr<adversary> make_static_clique(std::size_t n);
std::unique_ptr<adversary> make_edge_markov(std::unique_ptr<adversary> base,
                                            double p_on, double p_off,
                                            std::uint64_t seed);
std::unique_ptr<adversary> make_churn(std::unique_ptr<adversary> base,
                                      double rate, double rejoin,
                                      std::size_t min_live, round_t max_down,
                                      std::uint64_t seed);
std::unique_ptr<adversary> make_adaptive_min_cut(bool clique_sides = true);

}  // namespace ncdn
