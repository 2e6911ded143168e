// Round-engine and adversary semantics (systems S3/S5): delivery matches
// the committed topology, message slots carry only what their round made,
// message budgets are enforced, T-stability caches windows, adaptive
// adversaries see pre-round state, and runs are deterministic given a
// seed.
#include <gtest/gtest.h>

#include "dynnet/adversary.hpp"
#include "dynnet/network.hpp"
#include "linkmodel/linkmodel.hpp"

namespace ncdn {
namespace {

struct ping_msg {
  node_id from = 0;
  std::size_t bit_size() const noexcept { return 16; }
};

TEST(network, delivers_along_topology) {
  auto adv = make_static_path(4);  // 0-1-2-3
  network net(4, 64, *adv, 1);
  opaque_view view(4);
  std::vector<std::vector<node_id>> heard(4);
  net.step<ping_msg>(
      view,
      [](node_id u, rng&, ping_msg& m) {
        m.from = u;
        return true;
      },
      [&](node_id u, const std::vector<const ping_msg*>& inbox) {
        for (auto* m : inbox) heard[u].push_back(m->from);
      });
  EXPECT_EQ(net.rounds_elapsed(), 1u);
  EXPECT_EQ(heard[0], (std::vector<node_id>{1}));
  EXPECT_EQ(heard[1], (std::vector<node_id>{0, 2}));
  EXPECT_EQ(heard[2], (std::vector<node_id>{1, 3}));
  EXPECT_EQ(heard[3], (std::vector<node_id>{2}));
}

TEST(network, silent_nodes_send_nothing) {
  auto adv = make_static_star(5);
  network net(5, 64, *adv, 2);
  opaque_view view(5);
  std::size_t center_inbox = 0;
  net.step<ping_msg>(
      view,
      [](node_id u, rng&, ping_msg& m) {
        if (u % 2 == 0) return false;  // nodes 0,2,4 silent
        m.from = u;
        return true;
      },
      [&](node_id u, const std::vector<const ping_msg*>& inbox) {
        if (u == 0) center_inbox = inbox.size();
      });
  EXPECT_EQ(center_inbox, 2u);  // only 1 and 3 spoke
}

// Slots outlive their round (network.hpp, "Message slots"): node 1 fills
// its slot in round 0 and is silent in round 1, so what the slot still
// holds must reach no inbox in round 1 — on the reliable path and through
// a link model.
TEST(network, a_silent_node_reaches_no_inbox_with_its_old_slot) {
  for (const bool linked : {false, true}) {
    auto adv = make_static_path(3);  // 0-1-2
    network net(3, 64, *adv, 12);
    if (linked) {
      net.set_link_model(build_link_model(link_spec{"perfect", {}}, 1));
    }
    opaque_view view(3);
    for (round_t r = 0; r < 2; ++r) {
      std::vector<std::vector<node_id>> heard(3);
      net.step<ping_msg>(
          view,
          [r](node_id u, rng&, ping_msg& m) {
            if (r == 1 && u == 1) return false;
            m.from = u;
            return true;
          },
          [&](node_id u, const std::vector<const ping_msg*>& inbox) {
            for (auto* m : inbox) heard[u].push_back(m->from);
          });
      const std::vector<node_id> from_1 =
          r == 0 ? std::vector<node_id>{1} : std::vector<node_id>{};
      EXPECT_EQ(heard[0], from_1) << "round " << r << " linked " << linked;
      EXPECT_EQ(heard[1], (std::vector<node_id>{0, 2})) << "round " << r;
      EXPECT_EQ(heard[2], from_1) << "round " << r << " linked " << linked;
    }
  }
}

struct words_msg {
  std::vector<std::uint64_t> words;
  std::size_t bit_size() const noexcept { return 64 * words.size(); }
};

// A delayed copy is taken when it is sent: node 0 rewrites its slot in
// place every round, and the copy sent in round r still reads r when it
// arrives in round r + 2.
TEST(network, a_delayed_copy_keeps_the_content_it_was_sent_with) {
  auto adv = make_static_path(2);
  network net(2, 256, *adv, 13);
  net.set_link_model(
      build_link_model(link_spec{"perfect", {{"delay", "2"}}}, 1));
  opaque_view view(2);
  std::vector<std::vector<std::uint64_t>> arrived;
  for (std::uint64_t r = 0; r < 5; ++r) {
    net.step<words_msg>(
        view,
        [r](node_id u, rng&, words_msg& m) {
          if (u != 0) return false;
          m.words.assign(3, r);
          return true;
        },
        [&](node_id u, const std::vector<const words_msg*>& inbox) {
          if (u != 1) return;
          for (auto* m : inbox) arrived.push_back(m->words);
        });
  }
  const std::vector<std::vector<std::uint64_t>> sent_in_rounds_0_to_2 = {
      {0, 0, 0}, {1, 1, 1}, {2, 2, 2}};
  EXPECT_EQ(arrived, sent_in_rounds_0_to_2);
}

TEST(network, records_max_message_bits) {
  auto adv = make_static_path(3);
  network net(3, 128, *adv, 3);
  opaque_view view(3);
  struct sized_msg {
    std::size_t bits;
    std::size_t bit_size() const noexcept { return bits; }
  };
  net.step<sized_msg>(
      view,
      [](node_id u, rng&, sized_msg& m) {
        m.bits = 10 + 20 * static_cast<std::size_t>(u);
        return true;
      },
      [](node_id, const std::vector<const sized_msg*>&) {});
  EXPECT_EQ(net.max_observed_message_bits(), 50u);
}

TEST(network, requires_b_at_least_log_n) {
  auto adv = make_static_path(300);
  EXPECT_DEATH(network(300, 4, *adv, 4), "precondition");
}

struct rand_msg {
  std::uint64_t v;
  std::size_t bit_size() const noexcept { return 64; }
};

// Folds one round of random traffic into a hash.
static void hash_step(network& net, const knowledge_view& view,
                      std::uint64_t& hash) {
  net.step<rand_msg>(
      view,
      [](node_id, rng& prng, rand_msg& m) {
        m.v = prng();
        return true;
      },
      [&](node_id u, const std::vector<const rand_msg*>& inbox) {
        for (auto* m : inbox) {
          hash ^= m->v + 0x9e3779b97f4a7c15ULL + (hash << 6) + u;
        }
      });
}

TEST(network, deterministic_given_seed) {
  auto a1 = make_permuted_path(16, 99);
  auto a2 = make_permuted_path(16, 99);
  network n1(16, 64, *a1, 7);
  network n2(16, 64, *a2, 7);
  opaque_view view(16);
  std::uint64_t h1 = 0, h2 = 0;
  for (int r = 0; r < 10; ++r) {
    hash_step(n1, view, h1);
    hash_step(n2, view, h2);
  }
  EXPECT_EQ(h1, h2);
  EXPECT_NE(h1, 0u);
}

TEST(adversary, t_stable_caches_topology_within_window) {
  auto inner = make_permuted_path(12, 5);
  t_stable_adversary adv(std::move(inner), 4);
  opaque_view view(12);
  const graph* g0 = &adv.topology(0, view);
  for (round_t r = 1; r < 4; ++r) {
    EXPECT_EQ(&adv.topology(r, view), g0) << "round " << r;
  }
  const graph* g1 = &adv.topology(4, view);
  // A fresh permuted path at round 4 (pointer may coincide; compare edges).
  (void)g1;
  for (round_t r = 5; r < 8; ++r) {
    EXPECT_EQ(&adv.topology(r, view), g1);
  }
}

class fake_view final : public knowledge_view {
 public:
  explicit fake_view(std::vector<std::size_t> k) : k_(std::move(k)) {}
  std::size_t node_count() const override { return k_.size(); }
  std::size_t knowledge(node_id u) const override { return k_[u]; }

 private:
  std::vector<std::size_t> k_;
};

TEST(adversary, sorted_path_orders_by_knowledge) {
  sorted_path_adversary adv;
  fake_view view({5, 1, 3, 2});  // knowledge per node
  const graph& g = adv.topology(0, view);
  // Ascending order: 1(k=1) - 3(k=2) - 2(k=3) - 0(k=5)
  EXPECT_TRUE(g.has_edge(1, 3));
  EXPECT_TRUE(g.has_edge(3, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_EQ(g.edge_count(), 3u);
}

TEST(adversary, generator_produces_fresh_connected_graphs) {
  auto adv = make_random_connected(20, 10, 77);
  opaque_view view(20);
  for (round_t r = 0; r < 20; ++r) {
    EXPECT_TRUE(adv->topology(r, view).is_connected());
  }
}

TEST(network, silent_rounds_advance_clock) {
  auto adv = make_static_path(4);
  network net(4, 64, *adv, 11);
  net.silent_rounds(17);
  EXPECT_EQ(net.rounds_elapsed(), 17u);
}

}  // namespace
}  // namespace ncdn
