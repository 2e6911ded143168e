// Scale-refactor invariants: each stateful adversary family evolves its
// topology through per-round deltas, so two instances built from one spec
// and seed must replay the same graph sequence (adjacency order included),
// and audit builds check every round against the family's from-scratch
// oracle.  The session's row arena changes where coded rows live, never
// the rows themselves.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coding/matrix.hpp"
#include "core/arena.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "dynnet/adversary.hpp"
#include "protocols/rlnc_broadcast.hpp"

namespace ncdn {
namespace {

// Adaptive families read node state through a knowledge_view; a hand-set
// one drives both instances with identical inputs.
class fake_view final : public knowledge_view {
 public:
  fake_view(std::size_t n, std::size_t k, round_t r) : k_(n) {
    for (node_id u = 0; u < n; ++u) {
      k_[u] = (static_cast<std::size_t>(u) * 7 + r * 3) % (k + 1);
    }
  }
  std::size_t node_count() const override { return k_.size(); }
  std::size_t knowledge(node_id u) const override { return k_[u]; }

 private:
  std::vector<std::size_t> k_;
};

// One spec per registered family on its defaults, and one per compose
// modifier (compose has no defaults for its modifier/base selectors).
std::vector<adversary_spec> family_specs() {
  std::vector<adversary_spec> out;
  for (const adversary_entry& entry :
       adversary_registry::instance().entries()) {
    if (entry.name != "compose") {
      out.push_back({entry.name, {}});
      continue;
    }
    for (const char* modifier : {"edge-markov", "churn", "t-stable"}) {
      param_map params;
      params["modifier"] = modifier;
      params["base"] = "random-geometric";
      out.push_back({entry.name, params});
    }
  }
  return out;
}

std::string dump(const graph& g) {
  std::string out;
  for (node_id u = 0; u < g.order(); ++u) {
    out.append(std::to_string(u));
    out.push_back(':');
    for (node_id v : g.neighbors(u)) {
      out.push_back(' ');
      out.append(std::to_string(v));
    }
    out.push_back('\n');
  }
  return out;
}

// Every node `live` marks (all nodes when null) reaches every other.
bool live_set_connected(const graph& g, const std::vector<char>* live) {
  node_id src = 0;
  while (live != nullptr && src < g.order() && (*live)[src] == 0) ++src;
  if (src == g.order()) return true;
  const std::vector<std::uint32_t> dist = g.bfs_distances(src);
  for (node_id u = 0; u < g.order(); ++u) {
    const bool counted = live == nullptr || (*live)[u] != 0;
    if (counted && dist[u] == infinite_distance) return false;
  }
  return true;
}

// Each family has one topology path.  Its reference is its audit oracle
// (topology_delta::rebuild_reference, t_interval_adversary::audit_rebuild,
// churn's live invariants), which every topology() call below runs under
// -DNCDN_AUDIT=ON.  In every build, a twin built from the same spec and
// seed must emit the same graphs, adjacency order included (inbox order
// depends on it), and the connectivity contract must hold every round:
// over all nodes, or over the live set for families that keep a mask.
TEST(scale_refactor, every_family_replays_and_passes_its_audit_oracle) {
  problem prob;
  prob.n = 24;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  for (const round_t t : {round_t{1}, round_t{3}}) {
    prob.t_stability = t;
    for (const adversary_spec& spec : family_specs()) {
      for (std::uint64_t seed : {3u, 17u, 91u}) {
        auto first = build_adversary(prob, spec, seed);
        auto twin = build_adversary(prob, spec, seed);
        SCOPED_TRACE(first->name() + " seed " + std::to_string(seed));
        for (round_t r = 0; r < 48; ++r) {
          const fake_view view(prob.n, prob.k, r);
          const graph& a = first->topology(r, view);
          const graph& b = twin->topology(r, view);
          ASSERT_TRUE(a == b) << "round " << r << "\nfirst:\n"
                              << dump(a) << "twin:\n"
                              << dump(b);
          ASSERT_EQ(a.order(), prob.n) << "round " << r;
          const std::vector<char>* live = first->live_mask();
          EXPECT_EQ(live == nullptr, first->full_connectivity()) << r;
          EXPECT_TRUE(live_set_connected(a, live)) << "round " << r;
        }
      }
    }
  }
}

struct coded_run {
  round_t rounds = 0;
  std::uint64_t xors = 0;
  std::vector<std::uint64_t> delays;
  std::vector<bitvec> decoded;  // every (node, item) pair decodable at the end
};

coded_run broadcast(const matrix_spec& cell, word_arena* arena) {
  constexpr std::size_t n = 12;
  constexpr std::size_t k = 10;
  constexpr std::size_t d = 16;
  auto adv = make_permuted_path(n, 41);
  network net(n, k + d, *adv, 43);
  net.set_arena(arena);
  rlnc_session s(n, k, d, make_matrix_backend(cell));
  s.set_arena(arena);
  rng payload_rng(47);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(payload_rng);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  coded_run run;
  run.rounds = run_rounds(s.run_stepped(net, 200 * (n + k), true));
  run.xors = s.xor_word_ops();
  run.delays = *s.decode_delays();
  for (node_id u = 0; u < n; ++u) {
    for (std::size_t i = 0; i < k; ++i) {
      if (s.can_decode(u, i)) run.decoded.push_back(s.decode(u, i));
    }
  }
  return run;
}

// Arena rows only change where a coded row's words live: the draws, the
// elimination work, the decode delays and the decoded payloads are the
// heap run's.
void expect_arena_neutral(const char* name, const matrix_spec& cell) {
  SCOPED_TRACE(name);
  const coded_run heap = broadcast(cell, nullptr);
  word_arena arena;
  const coded_run pooled = broadcast(cell, &arena);
  EXPECT_GT(heap.rounds, 0u);
  EXPECT_EQ(heap.rounds, pooled.rounds);
  EXPECT_EQ(heap.xors, pooled.xors);
  EXPECT_EQ(heap.delays, pooled.delays);
  EXPECT_FALSE(heap.decoded.empty());
  EXPECT_EQ(heap.decoded, pooled.decoded);
  EXPECT_GT(arena.reuses(), 0u);
}

// The full span, a banded generation layout and the recoding buffer.
TEST(scale_refactor, arena_rows_leave_coded_runs_unchanged) {
  expect_arena_neutral("dense", matrix_spec{});
  matrix_spec banded;
  banded.dec = "banded";
  banded.gen_size = 4;
  banded.band_overlap = 1;
  expect_arena_neutral("banded", banded);
  matrix_spec buffered;
  buffered.buf = 8;
  expect_arena_neutral("buf=8", buffered);
}

// A recycled row must be bit-for-bit the row a fresh bitvec would hold:
// the pool only hands out storage, never contents (PR9 leans on this when
// the epoch driver re-seeds a new backend from the same arena).
TEST(scale_refactor, recycled_arena_rows_come_back_zeroed) {
  word_arena arena;
  bitvec row = arena.make(192);
  EXPECT_EQ(arena.allocations(), 1u);
  for (std::size_t i = 0; i < row.size(); i += 3) row.set(i, true);
  arena.recycle(std::move(row));
  EXPECT_EQ(arena.pooled(), 1u);

  const bitvec again = arena.make(192);
  EXPECT_EQ(arena.reuses(), 1u);
  EXPECT_EQ(arena.allocations(), 1u);
  for (std::size_t i = 0; i < again.size(); ++i) {
    ASSERT_FALSE(again.get(i)) << "stale bit " << i;
  }
}

// Across a versioned-content run the session keeps one arena while the
// epoch driver tears down and re-seeds a coding backend per epoch; rows
// freed by epoch e's teardown must come back as epoch e+1's outgoing rows
// instead of fresh heap churn.
TEST(scale_refactor, content_epochs_recycle_arena_rows) {
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  prob.t_stability = 1;
  prob.place = placement::one_per_node;
  session s(prob, protocol_spec{"rlnc-direct", {}},
            adversary_spec{"permuted-path", {}}, link_spec{},
            content_spec{"steady", {}}, 2);
  const run_report& rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  ASSERT_GT(rep.metrics.content.epochs, 1u);
  EXPECT_GT(s.arena().reuses(), 0u);
  // Steady state: rounds far outnumber distinct buffers, so recycled rows
  // dominate fresh allocations across the epoch boundaries.
  EXPECT_GT(s.arena().reuses(), s.arena().allocations());
}

}  // namespace
}  // namespace ncdn
