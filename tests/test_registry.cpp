// Registry + session tests: every registered protocol x adversary pair
// constructs and completes a tiny session through the string API, stepping
// is bit-identical to the inline run, and the observer stream / parameter
// machinery behave.
#include <gtest/gtest.h>

#include <map>
#include <stdexcept>
#include <string>

#include "core/session.hpp"

namespace ncdn {
namespace {

// Per-protocol sizing for the tiny (n=8, k=8) cross-product: message budget
// and the stability window the engine needs to be feasible (patching wants
// a window long enough for full broadcast cycles inside it, §8).
struct tiny_shape {
  std::size_t b = 32;
  round_t t = 1;
};

tiny_shape shape_for(const std::string& protocol) {
  if (protocol == "tstable/patch" || protocol == "tstable/patch-gather") {
    return {32, 256};
  }
  if (protocol.rfind("tstable/", 0) == 0) return {32, 4};
  return {32, 1};
}

problem tiny_problem(const std::string& protocol) {
  const tiny_shape shape = shape_for(protocol);
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = shape.b;
  prob.t_stability = shape.t;
  return prob;
}

void expect_reports_equal(const run_report& a, const run_report& b,
                          const std::string& what) {
  EXPECT_EQ(a.rounds, b.rounds) << what;
  EXPECT_EQ(a.completion_round, b.completion_round) << what;
  EXPECT_EQ(a.complete, b.complete) << what;
  EXPECT_EQ(a.early_stop, b.early_stop) << what;
  EXPECT_EQ(a.max_message_bits, b.max_message_bits) << what;
  EXPECT_EQ(a.epochs, b.epochs) << what;
  EXPECT_EQ(a.metrics.observed_completion_round,
            b.metrics.observed_completion_round)
      << what;
  EXPECT_EQ(a.metrics.total_message_bits, b.metrics.total_message_bits)
      << what;
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << what;
}

TEST(registries, every_enum_has_an_entry_and_names_are_unique) {
  // Names derive from the registries, so a new entry cannot silently miss
  // its string — and no enum may be left without an entry.
  for (const algorithm a :
       {algorithm::token_forwarding, algorithm::token_forwarding_pipelined,
        algorithm::naive_indexed, algorithm::greedy_forward,
        algorithm::priority_forward_flooding,
        algorithm::priority_forward_charged, algorithm::tstable_auto,
        algorithm::tstable_patch, algorithm::tstable_chunked,
        algorithm::tstable_patch_gather, algorithm::centralized_rlnc,
        algorithm::rlnc_direct}) {
    EXPECT_STRNE(to_string(a), "?");
    EXPECT_NE(protocol_registry::instance().find(to_string(a)), nullptr);
  }
  for (const topology_kind t :
       {topology_kind::static_path, topology_kind::static_star,
        topology_kind::permuted_path, topology_kind::random_connected,
        topology_kind::random_geometric, topology_kind::sorted_path}) {
    EXPECT_STRNE(to_string(t), "?");
    EXPECT_NE(adversary_registry::instance().find(to_string(t)), nullptr);
  }
  const std::vector<std::string> protos =
      protocol_registry::instance().names();
  const std::vector<std::string> advs =
      adversary_registry::instance().names();
  EXPECT_GE(protos.size(), 13u);  // 12 legacy + tstable/plain
  EXPECT_GE(advs.size(), 7u);     // 6 legacy + t-interval
  for (std::size_t i = 0; i < protos.size(); ++i) {
    for (std::size_t j = i + 1; j < protos.size(); ++j) {
      EXPECT_NE(protos[i], protos[j]);
    }
  }
  for (std::size_t i = 0; i < advs.size(); ++i) {
    for (std::size_t j = i + 1; j < advs.size(); ++j) {
      EXPECT_NE(advs[i], advs[j]);
    }
  }
}

// The acceptance gate: every registered protocol x adversary name builds a
// tiny session through the string API and runs to completion.
using cross_case = std::pair<std::string, std::string>;

class registry_cross_suite
    : public ::testing::TestWithParam<cross_case> {};

TEST_P(registry_cross_suite, string_api_completes) {
  const auto& [proto, adv] = GetParam();
  const problem prob = tiny_problem(proto);
  const std::uint64_t seed = 17;

  // Live-subset adversaries (churn) only pair with partition-tolerant
  // protocols; every other combination must be rejected cleanly at
  // construction, never aborted mid-run.
  {
    const protocol_entry* entry = protocol_registry::instance().find(proto);
    ASSERT_NE(entry, nullptr);
    const auto adv_probe = build_adversary(prob, adversary_spec{adv, {}}, 1);
    if (entry->needs_full_connectivity && !adv_probe->full_connectivity()) {
      EXPECT_THROW(session(prob, protocol_spec{proto, {}},
                           adversary_spec{adv, {}}, seed),
                   std::invalid_argument);
      return;
    }
  }

  session s(prob, protocol_spec{proto, {}}, adversary_spec{adv, {}}, seed);
  const run_report rep = s.run_to_completion();
  EXPECT_TRUE(rep.complete) << proto << " on " << adv;
  EXPECT_GT(rep.rounds, 0u) << proto << " on " << adv;
  EXPECT_EQ(rep.algorithm_name, proto);
  EXPECT_EQ(rep.adversary_name, adv);
  if (rep.complete) {
    EXPECT_GT(rep.metrics.observed_completion_round, 0u) << proto;
  }
}

std::vector<cross_case> cross_product() {
  std::vector<cross_case> out;
  for (const std::string& p : protocol_registry::instance().names()) {
    for (const std::string& a : adversary_registry::instance().names()) {
      out.push_back({p, a});
    }
  }
  return out;
}

std::string cross_name(const ::testing::TestParamInfo<cross_case>& info) {
  std::string s = info.param.first + "_" + info.param.second;
  for (char& ch : s) {
    if (!(std::isalnum(static_cast<unsigned char>(ch)))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(all_pairs, registry_cross_suite,
                         ::testing::ValuesIn(cross_product()), cross_name);

TEST(session, stepping_is_bit_identical_to_inline_run) {
  for (const char* proto :
       {"token-forwarding", "greedy-forward", "rlnc-direct", "tstable/auto"}) {
    const problem prob = tiny_problem(proto);
    session inline_s(prob, protocol_spec{proto, {}},
                     adversary_spec{"permuted-path", {}}, 23);
    const run_report inline_rep = inline_s.run_to_completion();

    session stepped(prob, protocol_spec{proto, {}},
                    adversary_spec{"permuted-path", {}}, 23);
    round_t observed_rounds = 0;
    round_t last_round = 0;
    stepped.set_observer([&](const round_metrics& m) {
      ++observed_rounds;
      EXPECT_EQ(m.round, last_round + 1);  // every round, exactly once
      last_round = m.round;
      EXPECT_EQ(m.knowledge.size(), prob.n);
    });
    round_t steps = 0;
    while (stepped.step()) ++steps;
    ASSERT_TRUE(stepped.finished());
    const run_report& step_rep = stepped.report();

    expect_reports_equal(inline_rep, step_rep,
                         std::string(proto) + " (stepped vs inline)");
    EXPECT_EQ(steps, observed_rounds);
    EXPECT_EQ(observed_rounds, step_rep.metrics.rounds);
  }
}

TEST(session, observer_sees_monotone_knowledge_and_completion) {
  const problem prob = tiny_problem("token-forwarding");
  session s(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"static-path", {}}, 5);
  std::size_t last_total = 0;
  round_t completion_seen = 0;
  s.set_observer([&](const round_metrics& m) {
    EXPECT_GE(m.total_knowledge, last_total);  // forwarding never forgets
    last_total = m.total_knowledge;
    if (completion_seen == 0 && m.all_complete(prob.k)) {
      completion_seen = m.round;
    }
  });
  const run_report& rep = s.run_to_completion();
  ASSERT_TRUE(rep.complete);
  EXPECT_EQ(completion_seen, rep.metrics.observed_completion_round);
  // The session's central observer subsumes the protocol's hand-rolled
  // completion tracking: flooding checks after every round, so the two
  // agree exactly.
  EXPECT_EQ(rep.metrics.observed_completion_round, rep.completion_round);
}

TEST(session, abandoning_a_stepped_session_mid_run_unwinds_cleanly) {
  const problem prob = tiny_problem("greedy-forward");
  session s(prob, protocol_spec{"greedy-forward", {}},
            adversary_spec{"permuted-path", {}}, 7);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.finished());
  // Destructor destroys the suspended machine's coroutine frames; there is
  // no protocol thread to cancel (see test_machine.cpp for the no-thread
  // assertions).
}

TEST(session, params_override_problem_and_reject_typos) {
  problem prob = tiny_problem("tstable/chunked");
  prob.t_stability = 1;  // overridden below

  param_map params;
  params["t_stability"] = "4";
  session s(prob, protocol_spec{"tstable/chunked", params},
            adversary_spec{"permuted-path", params}, 31);
  const run_report rep = s.run_to_completion();
  EXPECT_TRUE(rep.complete);
  EXPECT_EQ(rep.prob.t_stability, 4u);

  problem field_prob = prob;
  field_prob.t_stability = 4;
  session field(field_prob, protocol_spec{"tstable/chunked", {}},
                adversary_spec{"permuted-path", {}}, 31);
  expect_reports_equal(rep, field.run_to_completion(),
                       "t_stability=4 param vs problem field");

  // The CLI hands both specs the same --param map: a key consumed by one
  // side (radius belongs to the adversary) must not trip the other.
  param_map shared;
  shared["radius"] = "0.9";
  session ok(prob, protocol_spec{"greedy-forward", shared},
             adversary_spec{"random-geometric", shared}, 3);
  EXPECT_TRUE(ok.run_to_completion().complete);

  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {{"zap", "1"}}},
                       adversary_spec{"permuted-path", {}}, 1),
               std::invalid_argument);
  // Conflicting problem-level values across the two specs would configure
  // the driver and the network from different problems; rejected.
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {{"b", "64"}}},
                       adversary_spec{"permuted-path", {{"b", "16"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {}},
                       adversary_spec{"permuted-path", {{"radius", "x"}}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"no-such-protocol", {}},
                       adversary_spec{"permuted-path", {}}, 1),
               std::invalid_argument);
  EXPECT_THROW(session(prob, protocol_spec{"greedy-forward", {}},
                       adversary_spec{"no-such-adversary", {}}, 1),
               std::invalid_argument);
}

TEST(session, one_namespace_reaches_the_factory_that_reads_a_key) {
  // The two specs' params are one namespace: radius given only with the
  // protocol reaches random-geometric.  Radius 2 spans the unit square, so
  // every round's topology is the complete graph, and the run equals the
  // one with radius in the adversary spec.
  const problem prob = tiny_problem("rlnc-direct");
  const param_map wide = {{"radius", "2"}};
  session in_proto(prob, protocol_spec{"rlnc-direct", wide},
                   adversary_spec{"random-geometric", {}}, 3);
  const std::size_t clique = prob.n * (prob.n - 1) / 2;
  std::size_t rounds_seen = 0;
  in_proto.set_observer([&](const round_metrics& m) {
    EXPECT_EQ(m.topology_edges, clique) << "round " << m.round;
    ++rounds_seen;
  });
  const run_report rep = in_proto.run_to_completion();
  EXPECT_GT(rounds_seen, 0u);
  session in_adv(prob, protocol_spec{"rlnc-direct", {}},
                 adversary_spec{"random-geometric", wide}, 3);
  expect_reports_equal(rep, in_adv.run_to_completion(),
                       "radius in the protocol spec vs the adversary spec");
}

TEST(session, one_key_with_two_values_is_rejected_naming_it) {
  const problem prob = tiny_problem("rlnc-direct");
  try {
    session s(prob, protocol_spec{"rlnc-direct", {{"radius", "0.5"}}},
              adversary_spec{"random-geometric", {{"radius", "0.9"}}}, 3);
    FAIL() << "conflicting radius values were accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("'radius'"), std::string::npos) << msg;
  }
}

TEST(session, bad_window_and_round_budget_params_are_rejected_up_front) {
  // A zero window, a flood too short to reach every node (min-flood
  // agreement would fail mid-run), a negative round-budget factor, a forced
  // T-stable engine whose sizing does not fit, more tokens than d bits can
  // tell apart, a naive-indexed message too small for two token IDs, coded
  // rows over the message budget, or a slack below 1 is a user error, not
  // a contract abort or a cast that never terminates.
  struct bad_input {
    const char* protocol;
    const char* adversary;
    param_map params;
  };
  const bad_input inputs[] = {
      {"rlnc-direct", "t-interval", {{"t", "0"}}},
      {"tstable/patch", "static-path", {{"t_stability", "0"}}},
      {"token-forwarding", "static-path", {{"phase_factor", "0.5"}}},
      {"token-forwarding-pipelined", "static-path", {{"phase_factor", "-1"}}},
      {"greedy-forward", "static-path", {{"flood_factor", "0.5"}}},
      {"greedy-forward", "static-path", {{"gather_factor", "-1"}}},
      {"greedy-forward", "static-path", {{"broadcast_factor", "-1"}}},
      {"naive-indexed", "static-path", {{"broadcast_factor", "-1"}}},
      {"priority-forward/flooding",
       "static-path",
       {{"broadcast_factor", "-1"}}},
      {"priority-forward/charged", "static-path", {{"charged_factor", "-1"}}},
      {"tstable/chunked", "static-path", {{"gather_factor", "-1"}}},
      {"tstable/chunked", "static-path", {{"flood_factor", "0.5"}}},
      {"tstable/chunked", "static-path", {{"broadcast_cap_factor", "-1"}}},
      {"tstable/patch", "static-path", {{"t_stability", "4"}}},
      {"tstable/patch-gather", "static-path", {{"t_stability", "4"}}},
      {"tstable/chunked", "static-path", {{"b", "8"}, {"t_stability", "1"}}},
      {"tstable/chunked",
       "static-path",
       {{"n", "2"}, {"k", "1"}, {"d", "1"}, {"b", "1"},
        {"placement", "single-source"}}},
      {"rlnc-direct",
       "static-path",
       {{"n", "4"}, {"k", "4"}, {"d", "2"}, {"b", "8"}}},
      // One token ID costs bits_for(16) + bits_for(17) = 9 bits, and a
      // naive-indexed message needs room for two.
      {"naive-indexed", "static-path", {{"n", "16"}, {"k", "16"}, {"b", "16"}}},
      // Windows whose sizing products wrap a size_t.
      {"tstable/chunked", "static-path", {{"t_stability", "4294967296"}}},
      {"tstable/patch", "static-path", {{"t_stability", "1099511627776"}}},
      {"tstable/chunked", "static-path", {{"t_stability", "1099511627776"}}},
      {"tstable/patch-gather",
       "static-path",
       {{"t_stability", "1099511627776"}}},
      {"tstable/patch",
       "static-path",
       {{"t_stability", "18446744073709551615"}}},
      {"tstable/chunked",
       "static-path",
       {{"t_stability", "18446744073709551615"}}},
      {"tstable/patch-gather",
       "static-path",
       {{"t_stability", "18446744073709551615"}}},
      // Plans under 2^32 items whose coded vectors are gigabits wide.
      {"tstable/patch", "static-path", {{"t_stability", "2147483640"}}},
      {"tstable/patch-gather", "static-path", {{"t_stability", "2147483640"}}},
      {"tstable/chunked", "static-path", {{"t_stability", "268435456"}}},
      // Coded rows of k + d = 272 bits over the slack * b + framing =
      // 264-bit budget network::step asserts.
      {"rlnc-direct",
       "static-path",
       {{"n", "256"},
        {"k", "256"},
        {"d", "16"},
        {"b", "136"},
        {"slack", "1"}}},
      // A slack below 1 cannot hold the b-bit messages protocols send.
      {"token-forwarding",
       "static-path",
       {{"slack", "0.5"}, {"d", "128"}, {"b", "256"}}},
      {"token-forwarding-pipelined",
       "static-path",
       {{"slack", "0.5"}, {"d", "128"}, {"b", "256"}}},
      {"greedy-forward",
       "static-path",
       {{"slack", "0.5"}, {"d", "128"}, {"b", "256"}}},
      {"centralized-rlnc",
       "static-path",
       {{"slack", "0.5"}, {"d", "128"}, {"b", "256"}}},
      {"tstable/auto",
       "static-path",
       {{"slack", "0.5"}, {"d", "128"}, {"b", "256"}}},
      {"token-forwarding", "static-path", {{"slack", "-1"}}},
  };
  for (const bad_input& in : inputs) {
    const problem prob = tiny_problem(in.protocol);
    std::string what = in.protocol;
    for (const auto& [key, value] : in.params) what += " " + key + "=" + value;
    // The CLI hands both specs the same --param map.
    EXPECT_THROW(session(prob, protocol_spec{in.protocol, in.params},
                         adversary_spec{in.adversary, in.params}, 1),
                 std::invalid_argument)
        << what;
  }
  // tstable/auto falls back to an engine that fits those windows and
  // completes.
  for (const char* t : {"2147483640", "268435456"}) {
    const param_map params = {{"t_stability", t}};
    session s(tiny_problem("tstable/auto"),
              protocol_spec{"tstable/auto", params},
              adversary_spec{"static-path", params}, 1);
    EXPECT_TRUE(s.run_to_completion().complete) << "T=" << t;
  }
}

// A random-connected family draws once per extra edge, so a count past the
// n(n-1)/2 node pairs would run for ever; a negative radius would act as
// its absolute value.  Each is rejected with a message naming the key,
// also as the base of a composite family.
TEST(session, out_of_range_topology_params_are_rejected_naming_the_key) {
  struct bad_input {
    const char* adversary;
    const char* base;  // "" = no base= param
    const char* key;
    const char* value;
  };
  const char* const huge = "18446744073709551615";
  const bad_input inputs[] = {
      {"random-connected", "", "extra_edges", huge},
      {"random-connected", "", "extra_edges", "29"},
      {"t-interval", "", "extra_edges", huge},
      {"t-interval", "", "extra_edges", "1000000000000"},
      {"t-interval-random", "", "extra_edges", huge},
      {"compose", "random-connected", "extra_edges", huge},
      {"compose", "t-interval", "extra_edges", huge},
      {"random-geometric", "", "radius", "-1"},
      {"compose", "random-geometric", "radius", "-1"},
  };
  const problem prob = tiny_problem("rlnc-direct");  // n = 8: 28 node pairs
  for (const bad_input& in : inputs) {
    param_map params = {{in.key, in.value}};
    if (in.base[0] != '\0') params["base"] = in.base;
    const std::string what =
        std::string(in.adversary) + " " + in.key + "=" + in.value;
    try {
      session s(prob, protocol_spec{"rlnc-direct", {}},
                adversary_spec{in.adversary, params}, 1);
      ADD_FAILURE() << "expected std::invalid_argument: " << what;
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(in.key), std::string::npos)
          << what << ": " << err.what();
    }
  }
  // The bounds themselves are accepted.
  const adversary_spec at_the_bound[] = {
      {"random-connected", {{"extra_edges", "28"}}},
      {"t-interval", {{"extra_edges", "28"}}},
      {"t-interval-random", {{"extra_edges", "28"}}},
      {"random-geometric", {{"radius", "0"}}},
  };
  for (const adversary_spec& adv : at_the_bound) {
    EXPECT_NO_THROW(session(prob, protocol_spec{"rlnc-direct", {}}, adv, 1))
        << adv.name;
  }
}

TEST(session, coded_rows_within_the_framing_allowance_complete) {
  // The coded broadcasts admit any k + d up to message_bit_limit (slack * b
  // plus framing), the bound network::step asserts — not just 2 * b.  Here
  // k + d = 24 bits exceeds 2 * b = 22 but fits the 118-bit budget (and the
  // 140-bit one at slack 4): each run must start and complete.
  for (const char* protocol : {"rlnc-direct", "rlnc-sparse", "rlnc-gen"}) {
    for (const char* slack : {"2", "4"}) {
      const param_map params = {{"n", "16"}, {"k", "16"}, {"d", "8"},
                                {"b", "11"}, {"slack", slack}};
      session s(tiny_problem(protocol), protocol_spec{protocol, params},
                adversary_spec{"static-path", params}, 1);
      const run_report rep = s.run_to_completion();
      EXPECT_TRUE(rep.complete) << protocol << " slack=" << slack;
      EXPECT_GT(rep.max_message_bits, 22u) << protocol << " slack=" << slack;
    }
  }
}

// Every registry resolves user-supplied names through one lookup, whose
// error names the kind, the bad name, and every registered alternative.
template <class Build>
void expect_unknown_name(Build build, const std::string& kind,
                         const std::vector<std::string>& names) {
  try {
    build();
    ADD_FAILURE() << kind << ": unknown name accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unknown " + kind + " 'no-such'"), std::string::npos)
        << what;
    for (const std::string& name : names) {
      EXPECT_NE(what.find(name), std::string::npos) << name << ": " << what;
    }
  }
}

TEST(registries, unknown_names_list_every_registered_name) {
  const problem prob = tiny_problem("rlnc-direct");
  expect_unknown_name(
      [&] {
        session s(prob, protocol_spec{"no-such", {}},
                  adversary_spec{"permuted-path", {}}, 1);
      },
      "protocol", protocol_registry::instance().names());
  expect_unknown_name(
      [&] {
        session s(prob, protocol_spec{"rlnc-direct", {}},
                  adversary_spec{"no-such", {}}, 1);
      },
      "adversary", adversary_registry::instance().names());
  expect_unknown_name([] { build_link_model({"no-such", {}}, 1); },
                      "link model", link_registry::instance().names());
  expect_unknown_name(
      [&] { build_content_schedule({"no-such", {}}, prob, 1); },
      "content model", content_registry::instance().names());
}

TEST(session, spread_placements_reject_more_tokens_than_nodes) {
  // §4.2 allows k > n only when a single source holds every token.
  problem prob = tiny_problem("rlnc-direct");
  prob.k = prob.n + 1;
  for (const placement place :
       {placement::random_spread, placement::adversarial_far}) {
    prob.place = place;
    EXPECT_THROW(session(prob, protocol_spec{"rlnc-direct", {}},
                         adversary_spec{"static-path", {}}, 1),
                 std::invalid_argument);
  }
  prob.place = placement::single_source;
  session s(prob, protocol_spec{"rlnc-direct", {}},
            adversary_spec{"static-path", {}}, 1);
  EXPECT_TRUE(s.run_to_completion().complete);
}

TEST(session, adversary_params_reshape_the_topology) {
  problem prob = tiny_problem("token-forwarding");
  // A denser random-connected graph should not disseminate slower on
  // average; mainly this proves the factory actually consumes the key.
  session sparse(prob, protocol_spec{"token-forwarding", {}},
                 adversary_spec{"random-connected", {{"extra_edges", "0"}}},
                 11);
  session dense(prob, protocol_spec{"token-forwarding", {}},
                adversary_spec{"random-connected", {{"extra_edges", "20"}}},
                11);
  const run_report rs = sparse.run_to_completion();
  const run_report rd = dense.run_to_completion();
  EXPECT_TRUE(rs.complete);
  EXPECT_TRUE(rd.complete);
  EXPECT_LE(rd.metrics.observed_completion_round,
            rs.metrics.observed_completion_round);
}

}  // namespace
}  // namespace ncdn
