// Link-model subsystem tests (src/linkmodel + the network's channel path):
// the no-channel equivalence contract, per-edge draw-stream independence,
// the Gilbert-Elliott chain against a forward replay, delay/conservation
// semantics, in-flight expiry across views, the recoding-buffer node mode,
// the loss-tolerance pairing guard, spec parsing/validation, and the
// sweep's byte-identity and JSON-shape guarantees over the "link:" cell
// axis.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/session.hpp"
#include "dynnet/network.hpp"
#include "linkmodel/linkmodel.hpp"
#include "runner/sweep.hpp"

namespace ncdn {
namespace {

problem small_problem(std::size_t n = 16, std::size_t b = 32) {
  problem prob;
  prob.n = n;
  prob.k = n;
  prob.d = 8;
  prob.b = b;
  prob.t_stability = 1;
  prob.place = placement::one_per_node;
  return prob;
}

run_report run_cell(const problem& prob, protocol_spec proto,
                    adversary_spec adv, link_spec link, std::uint64_t seed) {
  session s(prob, std::move(proto), std::move(adv), std::move(link), seed);
  return s.run_to_completion();
}

// --- no-channel equivalence -------------------------------------------------

// A zero-loss, zero-delay, full-medium channel must be bit-identical to
// the channel-free engine: same rounds, same draws, same traffic totals.
TEST(linkmodel, perfect_channel_matches_reliable_path) {
  const problem prob = small_problem();
  for (std::uint64_t seed : {1u, 7u, 42u}) {
    const run_report base =
        run_cell(prob, protocol_spec{"rlnc-direct", {}},
                 adversary_spec{"permuted-path", {}}, link_spec{}, seed);
    const run_report linked = run_cell(prob, protocol_spec{"rlnc-direct", {}},
                                       adversary_spec{"permuted-path", {}},
                                       link_spec{"perfect", {}}, seed);
    EXPECT_EQ(base.rounds, linked.rounds);
    EXPECT_EQ(base.complete, linked.complete);
    EXPECT_EQ(base.completion_round, linked.completion_round);
    EXPECT_EQ(base.max_message_bits, linked.max_message_bits);
    EXPECT_EQ(base.metrics.total_messages, linked.metrics.total_messages);
    EXPECT_EQ(base.metrics.total_message_bits,
              linked.metrics.total_message_bits);
    EXPECT_EQ(base.metrics.final_total_knowledge,
              linked.metrics.final_total_knowledge);
    EXPECT_EQ(base.metrics.total_elimination_xors,
              linked.metrics.total_elimination_xors);
    // The channel only adds accounting, never behavior.
    EXPECT_FALSE(base.metrics.link_active);
    EXPECT_TRUE(linked.metrics.link_active);
    EXPECT_EQ(linked.metrics.total_messages_dropped, 0u);
    EXPECT_EQ(linked.metrics.messages_in_flight, 0u);
    EXPECT_EQ(linked.metrics.total_messages_sent,
              linked.metrics.total_messages_delivered);
  }
}

// --- per-edge draw streams --------------------------------------------------

// Channel decisions are pure functions of (seed, edge, round): querying
// other edges in between must not perturb an edge's loss sequence, for the
// stateless bernoulli draw and for the Gilbert-Elliott chain (whose memo
// is per edge) alike.
TEST(linkmodel, per_edge_streams_are_independent) {
  for (const char* model : {"bernoulli", "gilbert-elliott"}) {
    link_spec spec;
    spec.name = model;
    if (spec.name == "bernoulli") spec.params["p"] = "0.5";
    auto solo = build_link_model(spec, 12345);
    auto interleaved = build_link_model(spec, 12345);
    std::vector<bool> expect;
    for (round_t r = 1; r <= 64; ++r) {
      expect.push_back(solo->lost(r, 2, 3));
    }
    for (round_t r = 1; r <= 64; ++r) {
      // Noise queries on other edges (same rounds, both directions).
      (void)interleaved->lost(r, 0, 1);
      (void)interleaved->lost(r, 3, 4);
      (void)interleaved->lost(r, 7, 2);
      EXPECT_EQ(interleaved->lost(r, 2, 3), expect[r - 1])
          << model << " round " << r;
    }
  }
}

// The Gilbert-Elliott chain as it is defined: a stationary initial draw,
// then one hashed flip draw per round, applied forward from round 1, then
// the per-copy loss draw.  The hash streams are restated here, so the
// oracle shares no code with the link model.
struct gilbert_elliott_replay {
  std::uint64_t seed;
  double p_good_bad, p_bad_good, loss_good, loss_bad;

  static std::uint64_t draw(std::uint64_t seed, std::uint64_t stream,
                            std::uint64_t a, std::uint64_t b) {
    std::uint64_t state = seed ^ (0x9e3779b97f4a7c15ULL * (stream + 1));
    state = splitmix64(state);
    state ^= 0xbf58476d1ce4e5b9ULL * (a + 1);
    state = splitmix64(state);
    state ^= 0x94d049bb133111ebULL * (b + 1);
    return splitmix64(state);
  }
  static double unit(std::uint64_t h) {
    return static_cast<double>(h >> 11) * 0x1.0p-53;
  }

  bool lost(round_t round, node_id from, node_id to) const {
    const std::uint64_t key =
        (std::uint64_t{std::min(from, to)} << 32) | std::max(from, to);
    const double denom = p_good_bad + p_bad_good;
    const double pi_bad = denom > 0.0 ? p_good_bad / denom : 0.0;
    bool bad = unit(draw(seed, 4, key, 0)) < pi_bad;
    for (round_t s = 1; s <= round; ++s) {
      const double u = unit(draw(seed, 3, key, s));
      bad = bad ? !(u < p_bad_good) : u < p_good_bad;
    }
    const double p = bad ? loss_bad : loss_good;
    const round_t slot = round * 2 + (from < to ? 0 : 1);
    return p > 0.0 && unit(draw(seed, 1, key, slot)) < p;
  }
};

// lost() must agree with the forward replay for every flip-probability
// regime: unequal (the walk back stops at a merging draw), equal (no draw
// merges, so long walks leave a memo entry), and the 0 / 1 corners.  Each
// model answers persistent edges in round order past the memo threshold,
// then random rounds in any order, repeated, in both directions.
TEST(linkmodel, gilbert_elliott_matches_forward_replay) {
  const std::vector<std::pair<double, double>> flips = {
      {0.1, 0.3}, {0.3, 0.1}, {0.2, 0.2}, {0.5, 0.5},
      {0.0, 0.0}, {1.0, 1.0}, {0.0, 0.3}, {0.3, 0.0},
      {1.0, 0.3}, {0.3, 1.0}, {0.0, 1.0}, {1.0, 0.0}};
  // loss_good = 0, loss_bad = 1 makes every answer the chain state itself;
  // the default losses add the per-copy draw on top.
  const std::vector<std::pair<double, double>> losses = {{0.0, 1.0},
                                                         {0.02, 0.6}};
  const std::vector<std::pair<node_id, node_id>> persistent = {
      {2, 3}, {9, 4}, {0, 1}};
  std::uint64_t seed = 100;
  for (const auto& [p_gb, p_bg] : flips) {
    for (const auto& [loss_good, loss_bad] : losses) {
      ++seed;
      const link_spec spec{"gilbert-elliott",
                           {{"p_good_bad", std::to_string(p_gb)},
                            {"p_bad_good", std::to_string(p_bg)},
                            {"loss_good", std::to_string(loss_good)},
                            {"loss_bad", std::to_string(loss_bad)}}};
      auto model = build_link_model(spec, seed);
      const gilbert_elliott_replay oracle{seed, p_gb, p_bg, loss_good,
                                          loss_bad};
      const auto check = [&](round_t r, node_id from, node_id to) {
        EXPECT_EQ(model->lost(r, from, to), oracle.lost(r, from, to))
            << "p_good_bad=" << p_gb << " p_bad_good=" << p_bg
            << " loss_bad=" << loss_bad << " round " << r << " edge "
            << from << "->" << to;
      };
      for (round_t r = 1; r <= 320; ++r) {
        for (const auto& [u, v] : persistent) {
          check(r, u, v);
          check(r, v, u);
        }
      }
      rng pick(seed);
      for (int q = 0; q < 400; ++q) {
        const round_t r = pick.below(641);
        const auto u = static_cast<node_id>(pick.below(12));
        const auto v = static_cast<node_id>((u + 1 + pick.below(11)) % 12);
        check(r, u, v);
        check(r, v, u);
        check(r, u, v);
      }
    }
  }
}

TEST(linkmodel, bernoulli_rate_is_roughly_p) {
  link_spec spec;
  spec.name = "bernoulli";
  spec.params["p"] = "0.25";
  auto model = build_link_model(spec, 99);
  std::size_t lost = 0;
  std::size_t draws = 0;
  for (round_t r = 1; r <= 200; ++r) {
    for (node_id u = 0; u < 10; ++u) {
      for (node_id v = u + 1; v < 10; ++v) {
        lost += model->lost(r, u, v) ? 1 : 0;
        ++draws;
      }
    }
  }
  const double rate = static_cast<double>(lost) / static_cast<double>(draws);
  EXPECT_GT(rate, 0.2);
  EXPECT_LT(rate, 0.3);
}

// --- latency and conservation -----------------------------------------------

TEST(linkmodel, fixed_delay_buckets_all_deliveries) {
  const problem prob = small_problem();
  link_spec spec;
  spec.name = "perfect";
  spec.params["delay"] = "2";
  const run_report rep = run_cell(prob, protocol_spec{"rlnc-direct", {}},
                                  adversary_spec{"static-path", {}}, spec, 3);
  EXPECT_TRUE(rep.complete);
  const session_metrics& m = rep.metrics;
  ASSERT_TRUE(m.link_active);
  EXPECT_EQ(m.total_messages_dropped, 0u);
  // Every delivered copy spent exactly two rounds in flight.
  ASSERT_EQ(m.delivery_latency.size(), 3u);
  EXPECT_EQ(m.delivery_latency[0], 0u);
  EXPECT_EQ(m.delivery_latency[1], 0u);
  EXPECT_EQ(m.delivery_latency[2], m.total_messages_delivered);
  // Conservation: every copy is delivered, dropped, or still queued.
  EXPECT_EQ(m.total_messages_sent, m.total_messages_delivered +
                                       m.total_messages_dropped +
                                       m.messages_in_flight);
}

TEST(linkmodel, uniform_delay_conserves_and_spreads) {
  const problem prob = small_problem();
  link_spec spec;
  spec.name = "bernoulli";
  spec.params["p"] = "0.1";
  spec.params["delay_max"] = "2";
  const run_report rep =
      run_cell(prob, protocol_spec{"rlnc-direct", {}},
               adversary_spec{"permuted-path", {}}, spec, 5);
  const session_metrics& m = rep.metrics;
  ASSERT_TRUE(m.link_active);
  EXPECT_GT(m.total_messages_dropped, 0u);
  EXPECT_EQ(m.total_messages_sent, m.total_messages_delivered +
                                       m.total_messages_dropped +
                                       m.messages_in_flight);
  // Uniform delay in [0, 2]: at least two distinct buckets populated.
  std::size_t populated = 0;
  for (std::size_t bucket : m.delivery_latency) {
    populated += bucket > 0 ? 1 : 0;
  }
  EXPECT_GE(populated, 2u);
}

// Delays near 2^64: delay_max = 2^64 - 1 makes the uniform span wrap to
// 0, and a fixed delay that large would wrap the due round to an early
// one.  Neither may crash or deliver a copy; every copy stays in flight.
TEST(linkmodel, delays_near_two_to_the_64_never_arrive) {
  const problem prob = small_problem(6, 32);
  for (const char* key : {"delay_max", "delay"}) {
    link_spec spec;
    spec.name = "perfect";
    spec.params[key] = "18446744073709551615";
    const run_report rep =
        run_cell(prob, protocol_spec{"rlnc-direct", {}},
                 adversary_spec{"static-path", {}}, spec, 1);
    const session_metrics& m = rep.metrics;
    EXPECT_FALSE(rep.complete) << key;
    EXPECT_GT(m.total_messages_sent, 0u) << key;
    EXPECT_EQ(m.total_messages_delivered, 0u) << key;
    EXPECT_EQ(m.total_messages_sent, m.total_messages_delivered +
                                         m.total_messages_dropped +
                                         m.messages_in_flight)
        << key;
  }
}

// A delayed copy belongs to the view that sent it.  A fresh view stepping
// the same message type (the next content epoch's coding session) must not
// receive the previous view's copies: they expire as drops when they come
// due, and the queue drains.
TEST(linkmodel, in_flight_copies_expire_when_the_view_changes) {
  struct probe_msg {
    std::size_t bit_size() const { return 8; }
  };
  const std::size_t n = 4;
  const auto adv = make_static_path(n);
  network net(n, 32, *adv, 1);
  net.set_link_model(
      build_link_model(link_spec{"perfect", {{"delay", "2"}}}, 1));
  std::size_t sent = 0;
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  net.set_round_hook([&](const round_traffic& traffic, const knowledge_view*) {
    sent += traffic.messages_sent;
    delivered += traffic.messages_delivered;
    dropped += traffic.messages_dropped;
  });
  const auto speak = [](node_id, rng&, probe_msg&) { return true; };
  const auto hush = [](node_id, rng&, probe_msg&) { return false; };
  std::size_t received = 0;
  const auto count = [&](node_id, const std::vector<const probe_msg*>& in) {
    received += in.size();
  };

  {
    opaque_view first(n);
    net.step<probe_msg>(first, speak, count);
  }
  EXPECT_EQ(net.messages_in_flight(), 2 * (n - 1));  // one per path arc
  opaque_view second(n);
  net.step<probe_msg>(second, hush, count);
  net.step<probe_msg>(second, hush, count);  // the first view's copies due
  EXPECT_EQ(received, 0u);
  EXPECT_EQ(net.messages_in_flight(), 0u);
  EXPECT_EQ(sent, 2 * (n - 1));
  EXPECT_EQ(delivered, 0u);
  EXPECT_EQ(sent, delivered + dropped + net.messages_in_flight());
}

// Each content epoch codes its delta set in a fresh session; over a delayed
// link the previous epoch's rows are still in flight when it starts.
TEST(linkmodel, content_epochs_over_a_delayed_link_complete) {
  const link_spec delayed{"perfect", {{"delay", "2"}}};
  session s(small_problem(), protocol_spec{"rlnc-direct", {}},
            adversary_spec{"permuted-path", {}}, delayed,
            content_spec{"steady", {}}, 1);
  const run_report rep = s.run_to_completion();
  EXPECT_TRUE(rep.complete);
  const session_metrics& m = rep.metrics;
  EXPECT_EQ(m.total_messages_sent, m.total_messages_delivered +
                                       m.total_messages_dropped +
                                       m.messages_in_flight);
}

// An all-transmit protocol on a clique broadcast medium with collisions:
// every receiver is either busy transmitting or hears >= 2 neighbours, so
// nothing is ever delivered and the run caps out incomplete.
TEST(linkmodel, broadcast_collisions_degenerate_on_clique) {
  problem prob = small_problem(8, 32);
  link_spec spec;
  spec.name = "perfect";
  spec.params["medium"] = "broadcast";
  const run_report rep =
      run_cell(prob, protocol_spec{"rlnc-direct", {}},
               adversary_spec{"static-clique", {}}, spec, 1);
  EXPECT_FALSE(rep.complete);
  ASSERT_TRUE(rep.metrics.link_active);
  EXPECT_GT(rep.metrics.total_messages_sent, 0u);
  EXPECT_EQ(rep.metrics.total_messages_delivered, 0u);
}

// With an ALOHA-style transmit gate the same medium makes progress.
TEST(linkmodel, broadcast_with_tx_gate_completes) {
  problem prob = small_problem(8, 32);
  link_spec spec;
  spec.name = "perfect";
  spec.params["medium"] = "broadcast";
  spec.params["tx_prob"] = "0.2";
  const run_report rep =
      run_cell(prob, protocol_spec{"rlnc-direct", {}},
               adversary_spec{"static-clique", {}}, spec, 1);
  EXPECT_TRUE(rep.complete);
  EXPECT_GT(rep.metrics.total_messages_delivered, 0u);
}

// --- recoding buffer --------------------------------------------------------

TEST(linkmodel, buffered_recoder_still_completes) {
  const problem prob = small_problem();
  for (const char* evict : {"oldest", "newest"}) {
    protocol_spec proto{"rlnc-direct", {{"buf", "8"}, {"evict", evict}}};
    link_spec spec;
    spec.name = "bernoulli";
    spec.params["p"] = "0.1";
    const run_report rep =
        run_cell(prob, proto, adversary_spec{"permuted-path", {}}, spec, 11);
    EXPECT_TRUE(rep.complete) << "evict=" << evict;
  }
  // And without any channel at all (the buffer is a node mode, not a
  // channel feature).
  const run_report rep =
      run_cell(prob, protocol_spec{"rlnc-direct", {{"buf", "8"}}},
               adversary_spec{"permuted-path", {}}, link_spec{}, 11);
  EXPECT_TRUE(rep.complete);
}

// A too-small buffer can genuinely stall: the coin-XOR span over 4 rows
// plateaus once every buffered row lies inside the neighbours' spans, so
// the run caps out — the honest incomplete report, not a contract abort.
TEST(linkmodel, undersized_buffer_caps_out_honestly) {
  const problem prob = small_problem();
  const run_report rep =
      run_cell(prob, protocol_spec{"rlnc-direct", {{"buf", "4"}}},
               adversary_spec{"permuted-path", {}}, link_spec{}, 1);
  EXPECT_FALSE(rep.complete);
  EXPECT_GT(rep.metrics.final_total_knowledge, prob.n);  // progress happened
}

// A buffered node emits only from its recoding buffer, so the sched=
// schedule it was validated with stays inert: a feedback or systematic
// schedule must not change a draw, a wire bit or an XOR.
TEST(linkmodel, buffered_node_schedule_is_inert) {
  const problem prob = small_problem();
  link_spec lossy;
  lossy.name = "bernoulli";
  lossy.params["p"] = "0.1";
  const auto run = [&](const char* alg, param_map params, const char* sched) {
    params["buf"] = "8";
    params["sched"] = sched;
    return run_cell(prob, protocol_spec{alg, std::move(params)},
                    adversary_spec{"permuted-path", {}}, lossy, 1);
  };
  const auto expect_same = [&](const run_report& a, const run_report& b) {
    // Decoding spread past the seeds, so the runs did real work.
    EXPECT_GT(a.metrics.decode_delay_events, prob.n);
    EXPECT_EQ(a.rounds, b.rounds);
    EXPECT_EQ(a.complete, b.complete);
    EXPECT_EQ(a.metrics.total_message_bits, b.metrics.total_message_bits);
    EXPECT_EQ(a.metrics.total_elimination_xors,
              b.metrics.total_elimination_xors);
    EXPECT_EQ(a.metrics.decode_delay_p50, b.metrics.decode_delay_p50);
    EXPECT_EQ(a.metrics.decode_delay_p90, b.metrics.decode_delay_p90);
    EXPECT_EQ(a.metrics.decode_delay_max, b.metrics.decode_delay_max);
  };
  const param_map gen = {{"gen_size", "8"}, {"band_overlap", "2"}};
  expect_same(run("rlnc-gen", gen, "dense"), run("rlnc-gen", gen, "feedback"));
  const run_report direct = run("rlnc-direct", {}, "dense");
  EXPECT_TRUE(direct.complete);
  expect_same(direct, run("rlnc-direct", {}, "systematic"));
}

TEST(linkmodel, buffered_recoder_rejects_bad_eviction_policy) {
  const problem prob = small_problem();
  EXPECT_THROW(
      run_cell(prob,
               protocol_spec{"rlnc-direct",
                             {{"buf", "8"}, {"evict", "random"}}},
               adversary_spec{"permuted-path", {}}, link_spec{}, 1),
      std::invalid_argument);
}

// --- pairing guard ----------------------------------------------------------

TEST(linkmodel, non_loss_tolerant_protocol_rejects_link) {
  const problem prob = small_problem(16, 16);
  EXPECT_THROW(run_cell(prob, protocol_spec{"token-forwarding", {}},
                        adversary_spec{"static-path", {}},
                        link_spec{"bernoulli", {}}, 1),
               std::invalid_argument);
  // The streaming flooding variant makes no agreement assertion and is
  // explicitly loss-tolerant.
  const run_report rep =
      run_cell(prob, protocol_spec{"token-forwarding-pipelined", {}},
               adversary_spec{"static-path", {}},
               link_spec{"bernoulli", {{"p", "0.1"}}}, 1);
  EXPECT_TRUE(rep.metrics.link_active);
}

// --- spec parsing and validation --------------------------------------------

TEST(linkmodel, parse_link_spec_roundtrip) {
  const link_spec spec = parse_link_spec("bernoulli,p=0.2,delay_max=3");
  EXPECT_EQ(spec.name, "bernoulli");
  ASSERT_EQ(spec.params.size(), 2u);
  EXPECT_EQ(spec.params.at("p"), "0.2");
  EXPECT_EQ(spec.params.at("delay_max"), "3");
  // format_spec inverts the parse of a canonical (key-ordered) spec.
  const link_spec canonical = parse_link_spec("bernoulli,delay_max=3,p=0.2");
  EXPECT_EQ(format_spec(canonical.name, canonical.params),
            "bernoulli,delay_max=3,p=0.2");

  EXPECT_THROW(parse_link_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_link_spec("p=0.2"), std::invalid_argument);
  EXPECT_THROW(parse_link_spec("bernoulli,p"), std::invalid_argument);
  EXPECT_THROW(parse_link_spec("bernoulli,=0.2"), std::invalid_argument);
}

TEST(linkmodel, build_rejects_bad_params) {
  // Unknown model, out-of-range probabilities, conflicting delay keys,
  // unknown medium, degenerate transmit gate, unconsumed keys.
  EXPECT_THROW(build_link_model({"nope", {}}, 1), std::invalid_argument);
  EXPECT_THROW(build_link_model({"bernoulli", {{"p", "1.5"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(
      build_link_model({"gilbert-elliott", {{"loss_bad", "-0.1"}}}, 1),
      std::invalid_argument);
  EXPECT_THROW(
      build_link_model({"perfect", {{"delay", "2"}, {"delay_max", "3"}}}, 1),
      std::invalid_argument);
  EXPECT_THROW(build_link_model({"perfect", {{"medium", "simplex"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_link_model({"perfect", {{"tx_prob", "0"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(build_link_model({"perfect", {{"rho", "0.5"}}}, 1),
               std::invalid_argument);
}

// --- sweep integration ------------------------------------------------------

runner::sweep_result sweep_links(std::size_t threads) {
  runner::sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 1;
  opts.threads = threads;
  return runner::run_sweep(runner::scenarios_matching("link:"), opts);
}

// The lossy/delay/broadcast cells must dump byte-identical JSON for any
// worker count, exactly like the reliable matrix.
TEST(linkmodel, sweep_is_byte_identical_across_workers) {
  const std::string baseline = runner::sweep_to_json(sweep_links(1)).dump();
  for (const std::size_t threads : {2u, 4u, 8u}) {
    EXPECT_EQ(runner::sweep_to_json(sweep_links(threads)).dump(), baseline)
        << "threads=" << threads;
  }
}

TEST(linkmodel, sweep_json_shape_for_link_and_completion) {
  const runner::sweep_result result = sweep_links(2);
  ASSERT_GE(result.scenarios.size(), 24u);  // the PR7 acceptance floor
  const json::value root = runner::sweep_to_json(result);
  const json::value* cells = root.find("cells");
  ASSERT_NE(cells, nullptr);
  std::size_t incomplete = 0;
  for (const json::value& cell : cells->items()) {
    // Every link cell names its channel and carries the accounting block.
    const json::value* link = cell.find("link");
    ASSERT_NE(link, nullptr);
    EXPECT_FALSE(link->as_string().empty());
    const json::value* metrics = cell.find("metrics");
    ASSERT_NE(metrics, nullptr);
    const json::value* lm = metrics->find("link");
    ASSERT_NE(lm, nullptr);
    const double sent = lm->find("messages_sent")->as_number();
    const double delivered = lm->find("messages_delivered")->as_number();
    const double dropped = lm->find("messages_dropped")->as_number();
    const double in_flight = lm->find("messages_in_flight")->as_number();
    EXPECT_EQ(sent, delivered + dropped + in_flight);

    const bool complete = cell.find("complete")->as_bool();
    const json::value* observed = metrics->find("observed_completion_round");
    ASSERT_NE(observed, nullptr);
    const json::value* rate = metrics->find("completion_rate");
    if (complete) {
      EXPECT_GE(observed->as_number(), 0.0);
      EXPECT_EQ(rate, nullptr);  // only capped-out cells carry the rate
    } else {
      ++incomplete;
      EXPECT_EQ(observed->as_number(), -1.0);
      ASSERT_NE(rate, nullptr);
      EXPECT_GT(rate->as_number(), 0.0);
      EXPECT_LT(rate->as_number(), 1.0);
    }
  }
  EXPECT_GT(incomplete, 0u);  // the axis includes capped-out cells

  // Summary rows carry completion_rate exactly when not all_complete.
  for (const json::value& row : root.find("scenarios")->items()) {
    const bool all_complete = row.find("all_complete")->as_bool();
    const json::value* rate = row.find("completion_rate");
    if (all_complete) {
      EXPECT_EQ(rate, nullptr);
    } else {
      ASSERT_NE(rate, nullptr);
      EXPECT_GT(rate->as_number(), 0.0);
      EXPECT_LT(rate->as_number(), 1.0);
    }
  }
}

}  // namespace
}  // namespace ncdn
