// The composable dynamic-adversary engine (PR5): per-round invariants of
// the new families (connectivity contracts, bounded churn downtime,
// single-bridge frontier cuts), registry parameter round-trips through the
// error/recognized-keys path, the scenario-matrix generator's tier labels
// and coverage floors, and sweep determinism across worker counts for the
// new cells.
#include <gtest/gtest.h>

#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/session.hpp"
#include "runner/sweep.hpp"

namespace ncdn {
namespace {

// Adaptive adversaries read node state through a knowledge_view; tests
// drive them with a hand-set one.
class fake_view final : public knowledge_view {
 public:
  explicit fake_view(std::vector<std::size_t> k) : k_(std::move(k)) {}
  std::size_t node_count() const override { return k_.size(); }
  std::size_t knowledge(node_id u) const override { return k_[u]; }

 private:
  std::vector<std::size_t> k_;
};

// Whether every node marked in `keep` (all nodes when empty) is reachable
// from the first marked node using only marked nodes.
bool subset_connected(const graph& g, const std::vector<char>& keep) {
  const std::size_t n = g.order();
  std::vector<char> mark = keep.empty() ? std::vector<char>(n, 1) : keep;
  node_id src = 0;
  std::size_t kept = 0;
  for (node_id u = 0; u < n; ++u) {
    if (mark[u] != 0) {
      if (kept == 0) src = u;
      ++kept;
    }
  }
  if (kept <= 1) return true;
  std::vector<char> seen(n, 0);
  std::vector<node_id> stack = {src};
  seen[src] = 1;
  std::size_t reached = 1;
  while (!stack.empty()) {
    const node_id u = stack.back();
    stack.pop_back();
    for (node_id v : g.neighbors(u)) {
      if (mark[v] != 0 && seen[v] == 0) {
        seen[v] = 1;
        ++reached;
        stack.push_back(v);
      }
    }
  }
  return reached == kept;
}

std::string dump(const graph& g) {
  std::string out;
  for (node_id u = 0; u < g.order(); ++u) {
    for (node_id v : g.neighbors(u)) {
      if (u < v) {
        out += std::to_string(u) + "-" + std::to_string(v) + ";";
      }
    }
  }
  return out;
}

TEST(edge_markov, connected_every_round_and_deterministic) {
  const std::size_t n = 12;
  fake_view view(std::vector<std::size_t>(n, 0));
  auto a = make_edge_markov(make_static_clique(n), 0.2, 0.4, 99);
  auto b = make_edge_markov(make_static_clique(n), 0.2, 0.4, 99);
  std::set<std::string> shapes;
  for (round_t r = 0; r < 200; ++r) {
    const graph& g = a->topology(r, view);
    ASSERT_EQ(g.order(), n);
    EXPECT_TRUE(g.is_connected()) << "round " << r;
    EXPECT_EQ(dump(g), dump(b->topology(r, view))) << "round " << r;
    shapes.insert(dump(g));
  }
  // The chains actually evolve: many distinct per-round shapes.
  EXPECT_GT(shapes.size(), 20u);
}

TEST(edge_markov, respects_a_sparse_dynamic_base) {
  // Over a permuted-path base the candidate set is itself dynamic; the
  // result must still be connected each round.  With p_off = 0 the
  // stationary first draw is p_on / (p_on + 0) = 1, so every candidate
  // edge is on and stays on: the graph is exactly the base path and the
  // connectivity repair must add *zero* edges — pinning that
  // make_connected_over never patches an already-connected round.
  const std::size_t n = 10;
  fake_view view(std::vector<std::size_t>(n, 0));
  auto adv = make_edge_markov(make_permuted_path(n, 7), 0.5, 0.0, 3);
  auto* markov = dynamic_cast<edge_markov_adversary*>(adv.get());
  ASSERT_NE(markov, nullptr);
  for (round_t r = 0; r < 100; ++r) {
    const graph& g = adv->topology(r, view);
    EXPECT_TRUE(g.is_connected()) << "round " << r;
    EXPECT_EQ(markov->last_forced_edges(), 0u) << "round " << r;
    EXPECT_EQ(g.edge_count(), n - 1) << "round " << r;
  }
}

TEST(edge_markov, archive_holds_one_chain_per_pair_across_rebinds) {
  // A permuted-path base offers a new path every round, so every round
  // rebinds; a pair that returns must resume its chain, not start a new
  // one.  The first binding's chains enter the pair index only at the
  // second rebind, so this also pins that they are found there.
  const std::size_t n = 6;
  fake_view view(std::vector<std::size_t>(n, 0));
  auto adv = make_edge_markov(make_permuted_path(n, 5), 0.3, 0.3, 9);
  auto* markov = dynamic_cast<edge_markov_adversary*>(adv.get());
  ASSERT_NE(markov, nullptr);
  auto base = make_permuted_path(n, 5);
  std::set<std::pair<node_id, node_id>> offered;
  for (round_t r = 0; r < 60; ++r) {
    const graph& b = base->topology(r, view);
    for (node_id u = 0; u < n; ++u) {
      for (node_id v : b.neighbors(u)) {
        if (u < v) offered.emplace(u, v);
      }
    }
    adv->topology(r, view);
    ASSERT_EQ(markov->chains(), offered.size()) << "round " << r;
  }
  EXPECT_EQ(offered.size(), n * (n - 1) / 2);  // every pair came back
}

TEST(churn, live_set_connected_departed_isolated_downtime_bounded) {
  const std::size_t n = 16;
  const std::size_t min_live = 6;
  const round_t max_down = 5;
  fake_view view(std::vector<std::size_t>(n, 0));
  auto adv = make_churn(make_random_connected(n, 8, 21), /*rate=*/0.3,
                        /*rejoin=*/0.1, min_live, max_down, 77);
  auto* churn = dynamic_cast<churn_adversary*>(adv.get());
  ASSERT_NE(churn, nullptr);

  std::vector<round_t> down_for(n, 0);
  bool saw_departure = false;
  for (round_t r = 0; r < 400; ++r) {
    const graph& g = adv->topology(r, view);
    const std::vector<char>& live = churn->live();
    ASSERT_EQ(live.size(), n);
    EXPECT_GE(churn->live_count(), min_live) << "round " << r;
    EXPECT_TRUE(subset_connected(g, live)) << "round " << r;
    for (node_id u = 0; u < n; ++u) {
      if (live[u] == 0) {
        saw_departure = true;
        EXPECT_EQ(g.degree(u), 0u) << "round " << r << " node " << u;
        ++down_for[u];
        EXPECT_LE(down_for[u], static_cast<round_t>(max_down))
            << "node " << u << " stuck down at round " << r;
      } else {
        down_for[u] = 0;
      }
    }
  }
  EXPECT_TRUE(saw_departure);  // rate 0.3 over 400 rounds must churn
}

TEST(churn, live_mask_is_null_or_n_entries_before_the_first_round) {
  // The live_mask() contract is an n-entry mask or nullptr; readers index
  // it by node id before the first topology() call (the content driver
  // snapshots it at epoch 0).
  const std::size_t n = 16;
  auto adv = make_churn(make_random_connected(n, 8, 21), /*rate=*/0.3,
                        /*rejoin=*/0.1, /*min_live=*/6, /*max_down=*/5, 77);
  const std::vector<char>* before = adv->live_mask();
  EXPECT_TRUE(before == nullptr || before->size() == n);

  fake_view view(std::vector<std::size_t>(n, 0));
  (void)adv->topology(0, view);
  const std::vector<char>* after = adv->live_mask();
  ASSERT_NE(after, nullptr);
  EXPECT_EQ(after->size(), n);
}

TEST(t_interval_random, fixed_within_window_fresh_across_windows) {
  const std::size_t n = 16;
  const round_t t = 8;
  fake_view view(std::vector<std::size_t>(n, 0));
  problem prob;
  prob.n = n;  // extra_edges defaults to n / 2
  auto adv = build_adversary(
      prob, {"t-interval-random", {{"t", std::to_string(t)}}}, 5);
  std::vector<std::string> window_shapes;
  for (round_t r = 0; r < 8 * t; ++r) {
    const graph& g = adv->topology(r, view);
    EXPECT_TRUE(g.is_connected()) << "round " << r;
    if (r % t == 0) {
      window_shapes.push_back(dump(g));
    } else {
      EXPECT_EQ(dump(g), window_shapes.back()) << "round " << r;
    }
  }
  // Fresh draws across windows: at least one boundary must change the
  // graph (16-node random connected graphs colliding 7 times is ~0).
  std::set<std::string> distinct(window_shapes.begin(), window_shapes.end());
  EXPECT_GT(distinct.size(), 1u);
}

TEST(adaptive_min_cut, single_bridge_across_the_knowledge_frontier) {
  // Distinct knowledge levels with one wide gap: the adversary must place
  // the split at that gap and leave exactly one edge across it.
  std::vector<std::size_t> k = {0, 1, 1, 2, 9, 9, 10, 11};
  fake_view view(k);
  adaptive_min_cut_adversary adv(/*clique_sides=*/true);
  const graph& g = adv.topology(0, view);
  ASSERT_EQ(g.order(), k.size());
  EXPECT_TRUE(g.is_connected());

  const std::vector<char>& low = adv.last_low_side();
  std::size_t crossing = 0;
  for (node_id u = 0; u < g.order(); ++u) {
    for (node_id v : g.neighbors(u)) {
      if (u < v && low[u] != low[v]) ++crossing;
    }
  }
  EXPECT_EQ(crossing, 1u);
  // The split sits at the widest gap (2 -> 9): low side = {0, 1, 2, 3}.
  for (node_id u = 0; u < g.order(); ++u) {
    EXPECT_EQ(low[u] != 0, k[u] <= 2) << "node " << u;
  }

  // Uniform knowledge: no frontier to attack, still connected (balanced
  // split), path sides work too.
  fake_view flat(std::vector<std::size_t>(9, 4));
  adaptive_min_cut_adversary path_adv(/*clique_sides=*/false);
  EXPECT_TRUE(path_adv.topology(0, flat).is_connected());
}

// --- registry round-trips ---------------------------------------------------

problem tiny_problem() {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  return prob;
}

TEST(dyn_registry, every_new_family_builds_and_completes_a_session) {
  const problem prob = tiny_problem();
  for (const char* adv : {"static-clique", "t-interval-random", "edge-markov",
                          "churn", "adaptive-min-cut", "compose"}) {
    session s(prob, protocol_spec{"rlnc-direct", {}},
              adversary_spec{adv, {}}, 19);
    const run_report rep = s.run_to_completion();
    EXPECT_TRUE(rep.complete) << adv;
    EXPECT_GT(rep.rounds, 0u) << adv;
  }
}

TEST(dyn_registry, params_round_trip_and_typos_name_the_vocabulary) {
  const problem prob = tiny_problem();

  // Valid param sets construct.
  EXPECT_NO_THROW(build_adversary(
      prob, {"edge-markov", {{"p_on", "0.5"}, {"p_off", "0.5"}}}, 1));
  EXPECT_NO_THROW(build_adversary(
      prob,
      {"churn",
       {{"rate", "0.2"}, {"rejoin", "0.5"}, {"min_live", "4"},
        {"max_down", "3"}, {"base", "static-star"}}},
      1));
  EXPECT_NO_THROW(
      build_adversary(prob, {"t-interval-random", {{"t", "16"}}}, 1));
  EXPECT_NO_THROW(
      build_adversary(prob, {"adaptive-min-cut", {{"side", "path"}}}, 1));
  EXPECT_NO_THROW(build_adversary(
      prob,
      {"compose",
       {{"modifier", "t-stable"}, {"base", "permuted-path"}, {"t", "6"}}},
      1));

  // A typo'd key is rejected *and* the error names the recognized keys, so
  // the vocabulary round-trips through the error path.
  try {
    build_adversary(prob, {"edge-markov", {{"p_onn", "0.5"}}}, 1);
    FAIL() << "typo accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("p_onn"), std::string::npos) << msg;
    EXPECT_NE(msg.find("p_on"), std::string::npos) << msg;
    EXPECT_NE(msg.find("p_off"), std::string::npos) << msg;
  }
  try {
    build_adversary(prob, {"churn", {{"rat", "0.5"}}}, 1);
    FAIL() << "typo accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("'rat'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rate"), std::string::npos) << msg;
    EXPECT_NE(msg.find("max_down"), std::string::npos) << msg;
  }

  // Malformed values are rejected with the family named.
  EXPECT_THROW(build_adversary(prob, {"edge-markov", {{"p_on", "0"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"edge-markov", {{"p_on", "1.5"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"churn", {{"rate", "1"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"churn", {{"min_live", "1"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"churn", {{"min_live", "99"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"churn", {{"max_down", "0"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"t-interval-random", {{"t", "0"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      build_adversary(prob, {"adaptive-min-cut", {{"side", "torus"}}}, 1),
      std::invalid_argument);

  // The compose layer rejects unknown modifiers, unknown bases, and
  // composite bases (no modifier-over-modifier stacking via params).
  EXPECT_THROW(build_adversary(prob, {"compose", {{"modifier", "bogus"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"compose", {{"base", "no-such"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"compose", {{"base", "churn"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_adversary(prob, {"edge-markov", {{"base", "compose"}}}, 1),
               std::invalid_argument);
}

TEST(dyn_registry, churn_only_pairs_with_partition_tolerant_protocols) {
  const problem prob = tiny_problem();
  // The coded-broadcast family runs (any received combination helps)...
  for (const char* alg :
       {"rlnc-direct", "rlnc-sparse", "rlnc-gen", "centralized-rlnc"}) {
    session s(prob, protocol_spec{alg, {}}, adversary_spec{"churn", {}}, 3);
    EXPECT_TRUE(s.run_to_completion().complete) << alg;
  }
  // ... and §4.1-model protocols are rejected up front, with the pairing
  // explained, instead of aborting mid-run on a flood-agreement contract.
  for (const char* alg : {"token-forwarding", "naive-indexed",
                          "greedy-forward", "tstable/auto"}) {
    try {
      session s(prob, protocol_spec{alg, {}}, adversary_spec{"churn", {}}, 3);
      FAIL() << alg << " accepted a live-subset adversary";
    } catch (const std::invalid_argument& err) {
      const std::string msg = err.what();
      EXPECT_NE(msg.find("full per-round connectivity"), std::string::npos)
          << msg;
      EXPECT_NE(msg.find(alg), std::string::npos) << msg;
    }
  }
  // The same holds when churn arrives through the compose layer.
  EXPECT_THROW(session(prob, protocol_spec{"token-forwarding", {}},
                       adversary_spec{"compose", {{"modifier", "churn"}}}, 3),
               std::invalid_argument);
}

// --- scenario matrix --------------------------------------------------------

namespace rn = ncdn::runner;

TEST(scenario_matrix, tier_labels_cover_the_matrix) {
  const std::vector<rn::scenario>& all = rn::scenario_registry();
  EXPECT_GE(all.size(), 400u);  // the acceptance gate
  std::size_t smoke = 0, full = 0, nightly = 0, xl = 0;
  for (const rn::scenario& s : all) {
    EXPECT_EQ(s.tier, rn::tier_for(s.prob.n)) << s.name;
    if (s.tier == "smoke") {
      EXPECT_LE(s.prob.n, 16u) << s.name;
      ++smoke;
    } else if (s.tier == "full") {
      ++full;
    } else if (s.tier == "nightly") {
      EXPECT_GT(s.prob.n, 32u) << s.name;
      EXPECT_LE(s.prob.n, 128u) << s.name;
      ++nightly;
    } else if (s.tier == "nightly-xl") {
      EXPECT_GT(s.prob.n, 128u) << s.name;
      ++xl;
    } else {
      FAIL() << s.name << " has unknown tier '" << s.tier << "'";
    }
  }
  EXPECT_GT(smoke, 0u);
  EXPECT_GT(full, 0u);
  EXPECT_GT(nightly, 0u);
  EXPECT_GT(xl, 0u);
  EXPECT_EQ(rn::scenarios_in_tier("smoke").size(), smoke);
  EXPECT_EQ(rn::scenarios_in_tier("full").size(), full);
  EXPECT_EQ(rn::scenarios_in_tier("nightly").size(), nightly);
  EXPECT_EQ(rn::scenarios_in_tier("nightly-xl").size(), xl);
}

TEST(scenario_matrix, new_families_and_size_tiers_are_represented) {
  const std::vector<rn::scenario>& all = rn::scenario_registry();
  for (const char* adv : {"t-interval-random", "edge-markov", "churn",
                          "adaptive-min-cut", "compose"}) {
    std::size_t count = 0;
    for (const rn::scenario& s : all) count += s.adv == adv;
    EXPECT_GT(count, 0u) << adv;
  }
  bool n64 = false, n128 = false;
  for (const rn::scenario& s : all) {
    n64 = n64 || s.prob.n == 64;
    n128 = n128 || s.prob.n == 128;
  }
  EXPECT_TRUE(n64);
  EXPECT_TRUE(n128);

  // Grid variants are additive: canonical names survive, bracketed names
  // resolve, and every name is unique.
  EXPECT_NE(rn::find_scenario("rlnc-direct/random-connected/n16"), nullptr);
  EXPECT_NE(rn::find_scenario("rlnc-sparse[rho=0.05]/edge-markov/n32"),
            nullptr);
  EXPECT_NE(
      rn::find_scenario("rlnc-direct/compose[churn-geo]/n128"), nullptr);
  std::set<std::string> names;
  for (const rn::scenario& s : all) {
    EXPECT_TRUE(names.insert(s.name).second) << "duplicate " << s.name;
  }
}

TEST(scenario_matrix, churn_cells_only_pair_partition_tolerant_protocols) {
  const std::set<std::string> tolerant = {"rlnc-direct", "rlnc-sparse",
                                          "rlnc-gen", "centralized-rlnc"};
  std::size_t churn_cells = 0;
  for (const rn::scenario& s : rn::scenario_registry()) {
    const bool live_subset =
        s.adv == "churn" || (s.adv == "compose" && s.params.count("modifier") &&
                             s.params.at("modifier") == "churn");
    if (live_subset) {
      ++churn_cells;
      EXPECT_TRUE(tolerant.count(s.alg) != 0) << s.name;
    }
  }
  EXPECT_GT(churn_cells, 0u);
}

TEST(scenario_matrix, every_smoke_cell_constructs_through_the_registries) {
  // Construction-only pass over the whole smoke tier: any typo'd name or
  // param in the generator fails here, in milliseconds, not mid-sweep.
  for (const rn::scenario& s : rn::scenarios_in_tier("smoke")) {
    EXPECT_NO_THROW(session(s.prob, s.protocol(), s.adversary(), 1))
        << s.name;
  }
}

TEST(dyn_sweep, new_family_cells_are_byte_identical_across_workers) {
  // The engine-level determinism contract for the new families: the same
  // slice swept with different worker counts dumps identical bytes.  (The
  // CI smoke job re-checks this through the CLI.)
  std::vector<rn::scenario> scens;
  for (const char* name :
       {"rlnc-direct/edge-markov/n16", "rlnc-direct/churn/n16",
        "rlnc-direct/t-interval-random/n16", "rlnc-direct/adaptive-min-cut/n16",
        "rlnc-direct/compose[markov-geo]/n16",
        "token-forwarding/edge-markov[sticky]/n16"}) {
    const rn::scenario* s = rn::find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    scens.push_back(*s);
  }
  rn::sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 7;
  std::vector<std::string> dumps;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    opts.threads = threads;
    dumps.push_back(rn::sweep_to_json(rn::run_sweep(scens, opts)).dump());
  }
  for (std::size_t i = 1; i < dumps.size(); ++i) {
    EXPECT_EQ(dumps[0], dumps[i]) << "worker count " << i << " diverged";
  }
  // Tier labels travel into the JSON rows.
  EXPECT_NE(dumps[0].find("\"tier\":\"smoke\""), std::string::npos);
}

}  // namespace
}  // namespace ncdn
