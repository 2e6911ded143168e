// protocol_machine / session tests for the round-driven execution
// redesign:
//
//   * stepping is thread-free (asserted against /proc/self/status) and
//     bit-identical to the inline run for EVERY registered protocol name
//     crossed with an oblivious and an adaptive adversary;
//   * step() after completion (or after run_to_completion()) returns false
//     deterministically and leaves the report untouched;
//   * 64 sessions stepped round-robin on one thread yield reports
//     bit-identical to running them sequentially, and a session that
//     throws mid-run leaves the sessions stepped beside it intact;
//   * unknown-parameter errors name the valid keys the factories queried;
//   * the observer's per-round stream sums to the session's totals, with
//     each view's deltas taken against its own last reading.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/session.hpp"

namespace ncdn {
namespace {

// Per-protocol sizing for the tiny (n=8, k=8) cross-product (same shapes
// as test_registry.cpp: patch engines need a window that fits whole
// broadcast cycles).
problem tiny_problem(const std::string& protocol) {
  problem prob;
  prob.n = 8;
  prob.k = 8;
  prob.d = 8;
  prob.b = 32;
  prob.t_stability = 1;
  if (protocol == "tstable/patch" || protocol == "tstable/patch-gather") {
    prob.t_stability = 256;
  } else if (protocol.rfind("tstable/", 0) == 0) {
    prob.t_stability = 4;
  }
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
  EXPECT_EQ(a.metrics.rounds, b.metrics.rounds) << what;
  EXPECT_EQ(a.metrics.rounds_with_traffic, b.metrics.rounds_with_traffic)
      << what;
  EXPECT_EQ(a.metrics.observed_completion_round,
            b.metrics.observed_completion_round)
      << what;
  EXPECT_EQ(a.metrics.total_messages, b.metrics.total_messages) << what;
  EXPECT_EQ(a.metrics.total_message_bits, b.metrics.total_message_bits)
      << what;
  EXPECT_EQ(a.metrics.peak_round_bits, b.metrics.peak_round_bits) << what;
  EXPECT_EQ(a.metrics.final_min_knowledge, b.metrics.final_min_knowledge)
      << what;
  EXPECT_EQ(a.metrics.final_total_knowledge, b.metrics.final_total_knowledge)
      << what;
  EXPECT_EQ(a.metrics.final_tokens_retired, b.metrics.final_tokens_retired)
      << what;
  EXPECT_EQ(a.metrics.total_elimination_xors,
            b.metrics.total_elimination_xors)
      << what;
}

#ifdef __linux__
std::size_t os_thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return static_cast<std::size_t>(std::stoul(line.substr(8)));
    }
  }
  return 0;
}
#endif

// The acceptance gate of the redesign: for EVERY registered protocol name,
// against one oblivious and one adaptive adversary, driving the session
// round-by-round with step() produces a report bit-identical to
// run_to_completion() at the same seed.
using machine_case = std::pair<std::string, std::string>;

class machine_cross_suite : public ::testing::TestWithParam<machine_case> {};

TEST_P(machine_cross_suite, stepped_report_is_bit_identical_to_inline) {
  const auto& [proto, adv] = GetParam();
  const problem prob = tiny_problem(proto);
  const std::uint64_t seed = 41;

  session inline_s(prob, protocol_spec{proto, {}}, adversary_spec{adv, {}},
                   seed);
  const run_report inline_rep = inline_s.run_to_completion();

  session stepped(prob, protocol_spec{proto, {}}, adversary_spec{adv, {}},
                  seed);
  round_t steps = 0;
  while (stepped.step()) ++steps;
  ASSERT_TRUE(stepped.finished());
  expect_reports_equal(inline_rep, stepped.report(),
                       proto + " on " + adv + " (stepped vs inline)");
  // Machines suspend at every round boundary, so the step count is the
  // round count.
  EXPECT_EQ(steps, inline_rep.metrics.rounds) << proto << " on " << adv;
}

std::vector<machine_case> machine_cross_cases() {
  std::vector<machine_case> out;
  for (const std::string& p : protocol_registry::instance().names()) {
    for (const char* a : {"permuted-path", "sorted-path"}) {
      out.push_back({p, a});
    }
  }
  return out;
}

std::string machine_case_name(
    const ::testing::TestParamInfo<machine_case>& info) {
  std::string s = info.param.first + "_" + info.param.second;
  for (char& ch : s) {
    if (!std::isalnum(static_cast<unsigned char>(ch))) ch = '_';
  }
  return s;
}

INSTANTIATE_TEST_SUITE_P(all_registered, machine_cross_suite,
                         ::testing::ValuesIn(machine_cross_cases()),
                         machine_case_name);

TEST(machine, stepping_spawns_no_threads) {
  const problem prob = tiny_problem("greedy-forward");
  session s(prob, protocol_spec{"greedy-forward", {}},
            adversary_spec{"permuted-path", {}}, 9);
#ifdef __linux__
  const std::size_t before = os_thread_count();
  ASSERT_GT(before, 0u);
#endif
  for (int i = 0; i < 32; ++i) {
    ASSERT_TRUE(s.step());
#ifdef __linux__
    EXPECT_EQ(os_thread_count(), before) << "step " << i;
#endif
  }
  // ...and the partially-stepped report still matches a fresh inline run
  // once finished (no rendezvous state to tear down or resynchronize).
  const run_report& rep = s.run_to_completion();
  session inline_s(prob, protocol_spec{"greedy-forward", {}},
                   adversary_spec{"permuted-path", {}}, 9);
  expect_reports_equal(inline_s.run_to_completion(), rep,
                       "mid-stepped then completed vs inline");
#ifdef __linux__
  EXPECT_EQ(os_thread_count(), before);
#endif
}

TEST(machine, step_after_completion_returns_false_deterministically) {
  const problem prob = tiny_problem("token-forwarding");

  // After run_to_completion(): step() must keep returning false without
  // touching torn-down protocol state, and the report must stay stable.
  session a(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"static-path", {}}, 3);
  const run_report first = a.run_to_completion();
  const round_t rounds = a.rounds_elapsed();
  for (int i = 0; i < 4; ++i) {
    EXPECT_FALSE(a.step());
    EXPECT_TRUE(a.finished());
    EXPECT_EQ(a.rounds_elapsed(), rounds);  // nothing advanced
  }
  expect_reports_equal(first, a.report(), "report after post-run step()s");

  // After stepping to the end: same contract.
  session b(prob, protocol_spec{"token-forwarding", {}},
            adversary_spec{"static-path", {}}, 3);
  while (b.step()) {
  }
  for (int i = 0; i < 4; ++i) EXPECT_FALSE(b.step());
  expect_reports_equal(first, b.report(), "stepped-out session");

  // And run_to_completion() after completion is a no-op returning the same
  // report.
  expect_reports_equal(first, b.run_to_completion(), "re-run after finish");
}

TEST(machine, abandoned_mid_run_session_unwinds_cleanly) {
  // Coroutine frames (including awaited sub-phase frames) are destroyed
  // with the session; nothing leaks and no thread needs cancelling.  Run
  // under ASan to make this bite.
  for (const char* proto : {"greedy-forward", "tstable/patch", "rlnc-gen"}) {
    const problem prob = tiny_problem(proto);
    session s(prob, protocol_spec{proto, {}},
              adversary_spec{"permuted-path", {}}, 7);
    for (int i = 0; i < 5; ++i) EXPECT_TRUE(s.step());
    EXPECT_FALSE(s.finished());
  }
}

TEST(machine, round_robin_stepping_matches_sequential_bit_for_bit) {
  // 64 live sessions on ONE thread, mixed protocols, each stepped one
  // round in turn; every report must equal the sequentially-run session at
  // the same (spec, seed).
  const std::vector<std::string> protos = {"rlnc-direct", "token-forwarding",
                                           "greedy-forward", "naive-indexed"};
  const std::size_t seeds_per_proto = 16;  // 4 x 16 = 64 sessions

  std::vector<run_report> sequential;
  for (const std::string& proto : protos) {
    for (std::uint64_t seed = 1; seed <= seeds_per_proto; ++seed) {
      session s(tiny_problem(proto), protocol_spec{proto, {}},
                adversary_spec{"permuted-path", {}}, seed);
      sequential.push_back(s.run_to_completion());
    }
  }

#ifdef __linux__
  const std::size_t before = os_thread_count();
#endif
  std::vector<std::unique_ptr<session>> live;
  for (const std::string& proto : protos) {
    for (std::uint64_t seed = 1; seed <= seeds_per_proto; ++seed) {
      live.push_back(std::make_unique<session>(
          tiny_problem(proto), protocol_spec{proto, {}},
          adversary_spec{"permuted-path", {}}, seed));
    }
  }
  ASSERT_EQ(live.size(), 64u);
  std::size_t passes = 0;
  for (bool any = true; any; ++passes) {
    any = false;
    for (const auto& s : live) any = s->step() || any;
  }
  EXPECT_GT(passes, 1u);
#ifdef __linux__
  EXPECT_EQ(os_thread_count(), before);  // every session ran in-thread
#endif

  for (std::size_t i = 0; i < live.size(); ++i) {
    ASSERT_TRUE(live[i]->finished()) << "session " << i;
    expect_reports_equal(sequential[i], live[i]->report(),
                         "round-robin session " + std::to_string(i));
  }
}

TEST(params, unknown_parameter_error_names_the_valid_keys) {
  const problem prob = tiny_problem("rlnc-sparse");

  // Through the session (one namespace for both factories): the rho typo
  // must be named AND the real vocabulary listed.
  try {
    session s(prob, protocol_spec{"rlnc-sparse", {{"rh", "0.1"}}},
              adversary_spec{"permuted-path", {}}, 1);
    FAIL() << "typo'd parameter was accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("'rh'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid keys"), std::string::npos) << msg;
    EXPECT_NE(msg.find("rho"), std::string::npos) << msg;
    EXPECT_NE(msg.find("cap_factor"), std::string::npos) << msg;
  }

  // Through build_protocol's spec form: the expect_fully_consumed() error
  // carries the same vocabulary.
  try {
    build_protocol(prob, protocol_spec{"rlnc-sparse", {{"rh", "0.1"}}});
    FAIL() << "typo'd parameter was accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("'rh'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("valid keys: "), std::string::npos) << msg;
    EXPECT_NE(msg.find("rho"), std::string::npos) << msg;
  }

  // Adversary-side typo lists the adversary's vocabulary too.
  try {
    session s(prob, protocol_spec{"rlnc-direct", {}},
              adversary_spec{"random-geometric", {{"radiuss", "0.4"}}}, 1);
    FAIL() << "typo'd parameter was accepted";
  } catch (const std::invalid_argument& err) {
    const std::string msg = err.what();
    EXPECT_NE(msg.find("'radiuss'"), std::string::npos) << msg;
    EXPECT_NE(msg.find("radius"), std::string::npos) << msg;
  }
}

TEST(machine, throwing_machine_marks_the_session_failed_not_reported) {
  // Registered lazily (inside the test body) so the registry-wide
  // cross-product suites above never see this deliberately-broken entry.
  static const bool registered = [] {
    protocol_registry::instance().add(
        {"test/throws-mid-run", "throws after 3 rounds (test-only entry)",
         std::nullopt, [](const problem&, param_reader&) {
           return make_protocol_machine([](session_env& env) {
             return [](session_env& inner_env) -> round_task<protocol_result> {
               for (int r = 0; r < 3; ++r) {
                 inner_env.net.silent_rounds(1);
                 co_await next_round;
               }
               throw std::runtime_error("protocol exploded");
             }(env);
           });
         }});
    return true;
  }();
  ASSERT_TRUE(registered);
  const problem prob = tiny_problem("token-forwarding");

  // Alone: the throw surfaces from step(), the session is finished-but-
  // failed, and later step() calls stay false without touching the corpse.
  session s(prob, protocol_spec{"test/throws-mid-run", {}},
            adversary_spec{"permuted-path", {}}, 1);
  for (int r = 0; r < 3; ++r) EXPECT_TRUE(s.step());
  EXPECT_THROW(s.step(), std::runtime_error);
  EXPECT_TRUE(s.finished());
  EXPECT_TRUE(s.failed());
  EXPECT_FALSE(s.step());

  // Stepped round-robin beside two healthy sessions: the thrower's step()
  // throws and marks it failed, and the healthy sessions still finish
  // with the reports they produce alone.
  std::vector<std::unique_ptr<session>> live;
  for (const auto& [proto, seed] :
       {std::pair{"token-forwarding", 2}, std::pair{"test/throws-mid-run", 2},
        std::pair{"token-forwarding", 3}}) {
    live.push_back(std::make_unique<session>(
        prob, protocol_spec{proto, {}}, adversary_spec{"permuted-path", {}},
        seed));
  }
  bool threw = false;
  for (bool any = true; any;) {
    any = false;
    for (const auto& t : live) {
      try {
        any = t->step() || any;
      } catch (const std::runtime_error&) {
        EXPECT_FALSE(threw) << "a second throw";
        EXPECT_EQ(t.get(), live[1].get()) << "a healthy session threw";
        threw = true;
      }
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(live[1]->finished());
  EXPECT_TRUE(live[1]->failed());
  session lone2(prob, protocol_spec{"token-forwarding", {}},
                adversary_spec{"permuted-path", {}}, 2);
  session lone3(prob, protocol_spec{"token-forwarding", {}},
                adversary_spec{"permuted-path", {}}, 3);
  ASSERT_FALSE(live[0]->failed());
  ASSERT_FALSE(live[2]->failed());
  expect_reports_equal(lone2.run_to_completion(), live[0]->report(),
                       "survivor before the thrower");
  expect_reports_equal(lone3.run_to_completion(), live[2]->report(),
                       "survivor after the thrower");
}

// The observer's stream is the session's one per-round record: summed over
// the run, it must give the report's totals.  The cells step several views:
// tstable/patch alternates opaque patch-building views with its coded
// session's, greedy-forward steps token_state and a fresh RLNC view per
// epoch, and rlnc-direct runs over a lossy link with in-flight delays.
TEST(session, per_round_stream_folds_to_the_session_totals) {
  struct stream_cell {
    const char* protocol;
    const char* adversary;
    param_map params;
    link_spec link;
  };
  const stream_cell cells[] = {
      {"tstable/patch",
       "permuted-path",
       {{"n", "32"}, {"k", "32"}, {"b", "16"}, {"t_stability", "256"}},
       {}},
      {"greedy-forward", "sorted-path", {{"n", "32"}, {"k", "32"}}, {}},
      {"rlnc-direct",
       "permuted-path",
       {{"n", "16"}, {"k", "16"}},
       parse_link_spec("bernoulli,p=0.1,delay_max=2")},
  };
  for (const stream_cell& c : cells) {
    session s(tiny_problem(c.protocol), protocol_spec{c.protocol, c.params},
              adversary_spec{c.adversary, c.params}, c.link, 3);
    round_t rounds = 0;
    std::size_t messages = 0;
    std::size_t message_bits = 0;
    std::uint64_t xors = 0;
    std::uint64_t decodable = 0;
    std::uint64_t sent = 0;
    std::uint64_t delivered = 0;
    std::uint64_t dropped = 0;
    std::vector<std::size_t> latency;
    s.set_observer([&](const round_metrics& m) {
      ++rounds;
      messages += m.messages;
      message_bits += m.message_bits;
      xors += m.elimination_xors;
      decodable += m.newly_decodable;
      sent += m.messages_sent;
      delivered += m.messages_delivered;
      dropped += m.messages_dropped;
      if (latency.size() < m.delivery_latency.size()) {
        latency.resize(m.delivery_latency.size());
      }
      for (std::size_t i = 0; i < m.delivery_latency.size(); ++i) {
        latency[i] += m.delivery_latency[i];
      }
    });
    const run_report& rep = s.run_to_completion();
    const session_metrics& m = rep.metrics;
    const std::string what = c.protocol;
    ASSERT_TRUE(rep.complete) << what;
    EXPECT_EQ(rounds, m.rounds) << what;
    EXPECT_EQ(messages, m.total_messages) << what;
    EXPECT_EQ(message_bits, m.total_message_bits) << what;
    EXPECT_GT(xors, 0u) << what;
    EXPECT_EQ(xors, m.total_elimination_xors) << what;
    EXPECT_EQ(decodable, m.decode_delay_events) << what;
    EXPECT_EQ(sent, m.total_messages_sent) << what;
    EXPECT_EQ(delivered, m.total_messages_delivered) << what;
    EXPECT_EQ(dropped, m.total_messages_dropped) << what;
    EXPECT_EQ(latency, m.delivery_latency) << what;
    EXPECT_EQ(sent, delivered + dropped + m.messages_in_flight) << what;
    if (!c.link.empty()) {
      EXPECT_GT(dropped, 0u) << what;
      EXPECT_EQ(latency.size(), 3u) << what;  // delays 0, 1 and 2
    }
  }
}

// A view whose cumulative counters the protocol below sets by hand.
class scripted_view final : public knowledge_view {
 public:
  explicit scripted_view(std::size_t n) : n_(n) {}
  std::size_t node_count() const override { return n_; }
  std::size_t knowledge(node_id) const override { return 0; }
  std::uint64_t coding_work() const override { return work; }
  const std::vector<std::uint64_t>* decode_delays() const override {
    return &delays;
  }

  // Each round this view steps adds `work_per_round` XORs and
  // `pairs_per_round` decodable pairs, in the bucket of its own round.
  void advance(std::uint64_t work_per_round, std::uint64_t pairs_per_round) {
    work += work_per_round;
    delays.push_back(pairs_per_round);
  }

  std::uint64_t work = 0;
  std::vector<std::uint64_t> delays;

 private:
  std::size_t n_;
};

// Which view steps each round of the scripted protocol: 'a' and 'b' are
// two coding views, 'o' an opaque one, and 's' a silent round.
constexpr std::string_view view_script = "aaoabbaosbaoa";

struct scripted_msg {
  std::size_t bit_size() const { return 8; }
};

round_task<protocol_result> scripted_views_machine(session_env& env) {
  const std::size_t n = env.prob.n;
  scripted_view a(n);
  scripted_view b(n);
  opaque_view quiet(n);
  const auto speak = [](node_id, rng&, scripted_msg&) { return true; };
  const auto ignore = [](node_id, const std::vector<const scripted_msg*>&) {};
  for (const char which : view_script) {
    if (which == 's') {
      env.net.silent_rounds(1);
    } else if (which == 'o') {
      env.net.step<scripted_msg>(quiet, speak, ignore);
    } else {
      scripted_view& v = which == 'a' ? a : b;
      v.advance(which == 'a' ? 10 : 7, which == 'a' ? 3 : 2);
      env.net.step<scripted_msg>(v, speak, ignore);
    }
    co_await next_round;
  }
  protocol_result res;
  res.rounds = env.net.rounds_elapsed();
  co_return res;
}

// Each view's per-round deltas are taken against its own last reading, so
// however a protocol interleaves its views, the totals are the views' final
// counters: 10 XORs and 3 pairs per 'a' round, 7 XORs and 2 pairs per 'b'
// round.  Diffing against the last stepped view instead would charge a
// returning view its whole history again.
TEST(session, per_view_deltas_survive_interleaved_views) {
  static const bool registered = [] {
    protocol_registry::instance().add(
        {"test/scripted-views",
         "steps two coding views and an opaque one in turn (test-only entry)",
         std::nullopt, [](const problem&, param_reader&) {
           return make_protocol_machine(
               [](session_env& env) { return scripted_views_machine(env); });
         }});
    return true;
  }();
  ASSERT_TRUE(registered);
  const auto count = [](char which) {
    return static_cast<std::uint64_t>(
        std::count(view_script.begin(), view_script.end(), which));
  };
  const std::uint64_t want_xors = 10 * count('a') + 7 * count('b');
  const std::uint64_t want_pairs = 3 * count('a') + 2 * count('b');

  session s(tiny_problem("token-forwarding"),
            protocol_spec{"test/scripted-views", {}},
            adversary_spec{"static-path", {}}, 1);
  std::uint64_t xors = 0;
  std::uint64_t pairs = 0;
  s.set_observer([&](const round_metrics& m) {
    xors += m.elimination_xors;
    pairs += m.newly_decodable;
  });
  const run_report& rep = s.run_to_completion();
  EXPECT_EQ(rep.metrics.rounds, view_script.size());
  EXPECT_EQ(xors, want_xors);
  EXPECT_EQ(rep.metrics.total_elimination_xors, want_xors);
  EXPECT_EQ(pairs, want_pairs);
  EXPECT_EQ(rep.metrics.decode_delay_events, want_pairs);
}

}  // namespace
}  // namespace ncdn
