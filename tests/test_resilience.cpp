// Failure-injection and bottleneck-topology tests: the Las-Vegas recovery
// machinery (fail flags + reinstatement) under deliberately skimpy whp
// budgets, and dissemination through one-edge cuts.
#include <gtest/gtest.h>

#include "core/session.hpp"
#include "protocols/coded_nodes.hpp"
#include "protocols/greedy_forward.hpp"
#include "protocols/naive_indexed.hpp"
#include "protocols/priority_forward.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {
namespace {

TEST(resilience, priority_forward_recovers_from_decode_failures) {
  // broadcast_factor ~1.1 makes decode failures frequent; the fail-flag
  // path must still converge to full dissemination.
  const std::size_t n = 16, k = 16, d = 8, b = 32;
  rng r(3);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_permuted_path(n, 5);
  network net(n, b, *adv, 7);
  token_state st(dist);
  priority_forward_config cfg;
  cfg.b_bits = b;
  cfg.broadcast_factor = 1.1;
  cfg.max_iterations = 4000;
  cfg.skip_greedy_phase = true;
  const priority_forward_result res =
      run_rounds(priority_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(resilience, naive_indexed_recovers_from_decode_failures) {
  const std::size_t n = 16, k = 16, d = 8, b = 48;
  rng r(11);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_permuted_path(n, 13);
  network net(n, b, *adv, 17);
  token_state st(dist);
  naive_indexed_config cfg;
  cfg.b_bits = b;
  cfg.broadcast_factor = 1.1;
  cfg.max_iterations = 4000;
  const protocol_result res = run_rounds(naive_indexed_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(resilience, tstable_chunked_recovers_from_decode_failures) {
  // A broadcast cap of a few rounds leaves most chunked broadcasts
  // undecoded somewhere; the vetoed epochs must put their tokens back
  // until every node has them.
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  prob.t_stability = 4;
  const adversary_spec adv{"permuted-path", {}};
  session tight(prob,
                protocol_spec{"tstable/chunked",
                              {{"broadcast_cap_factor", "0.001"}}},
                adv, 1);
  const run_report& rep = tight.run_to_completion();
  EXPECT_TRUE(rep.complete);
  session roomy(prob, protocol_spec{"tstable/chunked", {}}, adv, 1);
  EXPECT_GT(rep.epochs, roomy.run_to_completion().epochs);
}

TEST(resilience, retirement_ledger_reinstates_a_vetoed_broadcast) {
  // Node 0 holds both tokens and decodes its own broadcast; node 1 hears
  // nothing.  Node 1 raises its fail bit, and the flood that sees it puts
  // both tokens back into node 0's consideration.
  rng r(71);
  const auto dist = make_distribution(2, 2, 8, placement::single_source, r);
  token_state st(dist);
  const block_layout blocks = {{0}, {1}};
  rlnc_session session(2, 2, 8);
  for (std::size_t t = 0; t < 2; ++t) {
    session.seed(0, t, dist.tokens[t].payload);
  }
  retirement_ledger ledger(2);
  ledger.settle(st, session, blocks);
  EXPECT_EQ(st.remaining_count(0), 0u);
  EXPECT_EQ(ledger.fail_bits(), (std::vector<bool>{false, true}));
  ledger.close_flood(st, /*fail_seen=*/true);
  EXPECT_EQ(st.remaining_count(0), 2u);
  EXPECT_EQ(ledger.fail_bits(), (std::vector<bool>{false, false}));
  // A clean flood forgets the broadcast, so a later veto has nothing of it
  // to put back.
  ledger.settle(st, session, blocks);
  ledger.close_flood(st, /*fail_seen=*/false);
  ledger.close_flood(st, /*fail_seen=*/true);
  EXPECT_EQ(st.remaining_count(0), 0u);
}

TEST(resilience, retirement_ledger_settles_exactly_the_block_layout) {
  // Item 0 carries tokens 0 and 1; item 1 carries token 3 and a padded
  // slot.  Token 2 is in no block.  Node 1 starts with nothing and decodes
  // both items, so it learns and retires exactly the layout's tokens, as
  // does node 0, which holds all four.
  rng r(73);
  const auto dist = make_distribution(2, 4, 8, placement::single_source, r);
  token_state st(dist);
  const block_layout blocks = {{0, 1}, {3}};
  rlnc_session session(2, 2, 16);
  for (node_id u = 0; u < 2; ++u) {
    for (std::size_t i = 0; i < 2; ++i) {
      session.seed(u, i, pack_block(dist, blocks[i], 16));
    }
  }
  retirement_ledger ledger(2);
  ledger.settle(st, session, blocks);
  const auto tokens_of = [&](node_id u, bool remaining) {
    std::vector<std::size_t> out;
    for (std::size_t t = 0; t < 4; ++t) {
      if (remaining ? st.in_consideration(u, t) : st.knows(u, t)) {
        out.push_back(t);
      }
    }
    return out;
  };
  const std::vector<std::size_t> layout_tokens{0, 1, 3};
  EXPECT_EQ(tokens_of(1, false), layout_tokens);
  EXPECT_EQ(tokens_of(1, true), std::vector<std::size_t>{});
  EXPECT_EQ(tokens_of(0, true), std::vector<std::size_t>{2});
  EXPECT_EQ(ledger.fail_bits(), (std::vector<bool>{false, false}));
  // A veto puts back exactly what each node retired.
  ledger.close_flood(st, /*fail_seen=*/true);
  EXPECT_EQ(tokens_of(1, true), layout_tokens);
  EXPECT_EQ(tokens_of(0, true), (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(resilience, retirement_ledger_rejects_a_layout_naming_the_wrong_token) {
  // Item 0 carries token 0's payload, but the layout claims token 1.
  rng r(79);
  const auto dist = make_distribution(2, 2, 8, placement::single_source, r);
  token_state st(dist);
  rlnc_session session(2, 2, 8);
  for (std::size_t t = 0; t < 2; ++t) {
    session.seed(0, t, dist.tokens[t].payload);
  }
  retirement_ledger ledger(2);
  EXPECT_DEATH(ledger.settle(st, session, {{1}, {0}}),
               "invariant violation.*payload");
}

TEST(resilience, greedy_forward_with_adaptive_adversary_and_tight_budget) {
  // The E16 thrash scenario in miniature: tight budget + rank-sorted
  // adversary; must still terminate correctly, just slowly.
  const std::size_t n = 12, k = 12, d = 8, b = 16;
  rng r(19);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  auto adv = make_sorted_path();
  network net(n, b, *adv, 23);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = b;
  cfg.broadcast_factor = 2.0;
  cfg.max_epochs = 5000;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

TEST(resilience, dissemination_through_a_one_edge_cut) {
  // Dumbbell: all information between the halves crosses one edge.  Both
  // forwarding-based and coded dissemination must squeeze through.
  const std::size_t n = 16, k = 16, d = 8, b = 32;
  {
    rng r(29);
    const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
    static_adversary adv(gen::dumbbell(n));
    network net(n, b, adv, 31);
    token_state st(dist);
    greedy_forward_config cfg;
    cfg.b_bits = b;
    const protocol_result res =
        run_rounds(greedy_forward_machine(net, st, cfg));
    EXPECT_TRUE(res.complete);
  }
  {
    // Pure RLNC through the cut: rank flows one dimension per round across
    // the bridge, so completion takes ~items extra rounds but succeeds.
    static_adversary adv(gen::dumbbell(n));
    network net(n, 8 + 16, adv, 37);
    rlnc_session s(n, 8, 16);
    rng r(41);
    for (std::size_t i = 0; i < 8; ++i) {
      bitvec p(16);
      p.randomize(r);
      s.seed(0, i, p);  // all items on one side of the cut
    }
    run_rounds(s.run_stepped(net, 2000, true));
    EXPECT_TRUE(s.all_complete());
  }
}

TEST(resilience, rlnc_with_absent_item_never_completes_but_stays_sane) {
  // If an item is never seeded anywhere, rank saturates at k-1 and the
  // session reports incomplete rather than decoding garbage.
  const std::size_t n = 8, k = 4, d = 8;
  auto adv = make_permuted_path(n, 43);
  network net(n, k + d, *adv, 47);
  rlnc_session s(n, k, d);
  rng r(53);
  for (std::size_t i = 0; i < k - 1; ++i) {  // item k-1 missing
    bitvec p(d);
    p.randomize(r);
    s.seed(static_cast<node_id>(i), i, p);
  }
  const round_t used = run_rounds(s.run_stepped(net, 500, true));
  EXPECT_EQ(used, 500u);  // ran to the cap
  EXPECT_FALSE(s.all_complete());
  for (node_id u = 0; u < n; ++u) {
    EXPECT_LE(s.knowledge(u), k - 1);
    EXPECT_FALSE(s.can_decode(u, k - 1));
  }
}

TEST(resilience, token_state_reinstate_requires_knowledge) {
  rng r(59);
  const auto dist = make_distribution(4, 4, 8, placement::one_per_node, r);
  token_state st(dist);
  // Reinstating a token the node does not know is a contract violation.
  EXPECT_DEATH(st.reinstate(0, 1), "precondition");
}

TEST(resilience, star_hub_bottleneck) {
  // On a static star the hub relays everything; coded blocks still get
  // through and the spokes (which only ever hear the hub) decode.
  const std::size_t n = 12, k = 12, d = 8, b = 32;
  rng r(61);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  static_adversary adv(gen::star(n));
  network net(n, b, adv, 67);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = b;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  EXPECT_TRUE(res.complete);
}

}  // namespace
}  // namespace ncdn
