// Versioned-content workload invariants (PR9): the schedule generator is a
// pure deterministic function of (spec, problem, seed), targets are closed
// dependency closures with supersede shortcuts, the epoch driver completes
// on static and churned topologies, delta re-seeding beats the resync=full
// baseline on wire bits, and the multi-epoch cells keep the sweep's
// byte-identity contract across worker counts.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "content/content.hpp"
#include "core/registry.hpp"
#include "core/session.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace ncdn {
namespace {

problem content_problem(std::size_t n = 16, std::size_t b = 32) {
  problem prob;
  prob.n = n;
  prob.k = n;
  prob.d = 8;
  prob.b = b;
  prob.t_stability = 1;
  prob.place = placement::one_per_node;
  return prob;
}

run_report run_content(const std::string& alg, const std::string& adv,
                       const param_map& adv_params, const std::string& model,
                       const param_map& content_params, std::uint64_t seed) {
  session s(content_problem(), protocol_spec{alg, adv_params},
            adversary_spec{adv, adv_params}, link_spec{},
            content_spec{model, content_params}, seed);
  return s.run_to_completion();
}

TEST(content, schedule_is_deterministic) {
  const problem prob = content_problem();
  const content_spec spec{"steady", {{"supersede", "0.6"}}};
  const auto a = build_content_schedule(spec, prob, 41);
  const auto b = build_content_schedule(spec, prob, 41);
  ASSERT_EQ(a->versions(), b->versions());
  ASSERT_EQ(a->epochs(), b->epochs());
  for (std::size_t v = 0; v < a->versions(); ++v) {
    const content_patch& pa = a->patch(v);
    const content_patch& pb = b->patch(v);
    EXPECT_EQ(pa.epoch, pb.epoch) << v;
    EXPECT_EQ(pa.author, pb.author) << v;
    EXPECT_EQ(pa.parents, pb.parents) << v;
    EXPECT_EQ(pa.supersedes, pb.supersedes) << v;
    EXPECT_TRUE(pa.payload == pb.payload) << v;
    EXPECT_EQ(a->superseded_by(v), b->superseded_by(v)) << v;
  }
  for (std::size_t e = 0; e < a->epochs(); ++e) {
    EXPECT_EQ(a->target(e), b->target(e)) << "epoch " << e;
  }

  // A different seed draws a different DAG (parents, authors, payloads).
  const auto c = build_content_schedule(spec, prob, 42);
  bool any_diff = c->versions() != a->versions();
  for (std::size_t v = 0; !any_diff && v < a->versions(); ++v) {
    any_diff = a->patch(v).parents != c->patch(v).parents ||
               a->patch(v).author != c->patch(v).author ||
               !(a->patch(v).payload == c->patch(v).payload);
  }
  EXPECT_TRUE(any_diff);
}

TEST(content, base_epoch_reproduces_classic_instance) {
  const problem prob = content_problem();
  const auto sched = build_content_schedule({"steady", {}}, prob, 7);
  ASSERT_EQ(sched->base_items(), prob.k);
  EXPECT_EQ(sched->epoch_begin(0), 0u);
  EXPECT_EQ(sched->epoch_end(0), prob.k);
  // Epoch 0's target is every base version: the classic k-token instance.
  std::vector<std::size_t> base(prob.k);
  for (std::size_t v = 0; v < prob.k; ++v) base[v] = v;
  EXPECT_EQ(sched->target(0), base);
  for (std::size_t v = 0; v < prob.k; ++v) {
    EXPECT_TRUE(sched->patch(v).parents.empty()) << v;
    EXPECT_EQ(sched->patch(v).supersedes, content_schedule::none) << v;
    EXPECT_EQ(sched->patch(v).payload.size(), 0u) << v;
  }
}

// Every parent of a target member must be satisfied inside the target:
// present directly, discharged by the member's own supersede, or reachable
// from the target along the superseded-by chain (the rejoin shortcut).
bool parent_satisfied_in(const content_schedule& sched,
                         const std::set<std::size_t>& target, std::size_t v,
                         std::size_t p) {
  if (p == sched.patch(v).supersedes) return true;
  for (std::size_t w = p; w != content_schedule::none;
       w = sched.superseded_by(w)) {
    if (target.count(w) != 0) return true;
  }
  return false;
}

TEST(content, targets_are_closed_dependency_closures) {
  const problem prob = content_problem();
  for (const char* model : {"steady", "burst", "rolling"}) {
    const auto sched = build_content_schedule({model, {}}, prob, 13);
    for (std::size_t e = 0; e < sched->epochs(); ++e) {
      const std::vector<std::size_t>& tv = sched->target(e);
      const std::set<std::size_t> target(tv.begin(), tv.end());
      ASSERT_EQ(target.size(), tv.size()) << model << " epoch " << e;
      EXPECT_TRUE(std::is_sorted(tv.begin(), tv.end()));
      EXPECT_EQ(target.count(sched->head(e)), 1u) << model << " epoch " << e;
      for (std::size_t v : tv) {
        EXPECT_LT(v, sched->epoch_end(e));
        for (std::size_t p : sched->patch(v).parents) {
          EXPECT_TRUE(parent_satisfied_in(*sched, target, v, p))
              << model << " epoch " << e << " version " << v << " parent "
              << p;
        }
      }
    }
  }
}

TEST(content, rolling_chain_collapses_target_to_head) {
  const problem prob = content_problem();
  const auto sched = build_content_schedule({"rolling", {}}, prob, 3);
  // rolling forces supersede=1, span=1, no second parents: every patch
  // supersedes the previous head, so the update-epoch closure is just the
  // head — the whole catch-up chain discharges through the shortcut.
  for (std::size_t e = 1; e < sched->epochs(); ++e) {
    EXPECT_EQ(sched->target(e),
              std::vector<std::size_t>{sched->head(e)})
        << "epoch " << e;
  }
  for (std::size_t v = prob.k; v < sched->versions(); ++v) {
    EXPECT_EQ(sched->patch(v).supersedes, v - 1) << v;
    EXPECT_EQ(sched->superseded_by(v - 1), v) << v;
  }
}

// The reference closure: every version from head down to 0, with one
// wanted and one included flag per version.
std::vector<std::size_t> full_walk_closure(const content_schedule& sched,
                                           std::size_t head) {
  std::vector<char> wanted(head + 1, 0);
  std::vector<char> included(head + 1, 0);
  wanted[head] = 1;
  for (std::size_t v = head + 1; v-- > 0;) {
    if (wanted[v] == 0) continue;
    bool cut = false;
    for (std::size_t w = sched.superseded_by(v);
         w != content_schedule::none && w <= head; w = sched.superseded_by(w)) {
      if (included[w] != 0) {
        cut = true;
        break;
      }
    }
    if (cut) continue;
    included[v] = 1;
    for (std::size_t p : sched.patch(v).parents) {
      if (p != sched.patch(v).supersedes) wanted[p] = 1;
    }
  }
  std::vector<std::size_t> target;
  for (std::size_t v = 0; v <= head; ++v) {
    if (included[v] != 0) target.push_back(v);
  }
  return target;
}

TEST(content, targets_match_the_full_descending_walk) {
  const problem prob = content_problem(16, 64);
  const std::vector<content_spec> specs = {
      {"steady",
       {{"epochs", "12"}, {"batch", "5"}, {"supersede", "0.6"},
        {"span", "3"}, {"second_parent", "0.5"}}},
      {"burst",
       {{"epochs", "9"}, {"period", "2"}, {"batch", "6"},
        {"supersede", "0.5"}, {"span", "4"}}},
      {"rolling", {{"epochs", "8"}, {"batch", "3"}}},
  };
  std::size_t chained = 0;  // superseded versions whose superseder is too
  for (const content_spec& spec : specs) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      const auto sched = build_content_schedule(spec, prob, seed);
      for (std::size_t v = 0; v < sched->versions(); ++v) {
        const std::size_t w = sched->superseded_by(v);
        if (w != content_schedule::none &&
            sched->superseded_by(w) != content_schedule::none) {
          ++chained;
        }
      }
      for (std::size_t e = 1; e < sched->epochs(); ++e) {
        EXPECT_EQ(sched->target(e), full_walk_closure(*sched, sched->head(e)))
            << spec.name << " seed " << seed << " epoch " << e;
      }
    }
  }
  EXPECT_GT(chained, 0u);
}

TEST(content, errors_name_the_model_and_recognized_keys) {
  const problem prob = content_problem();
  try {
    build_content_schedule({"hotfix", {}}, prob, 1);
    FAIL() << "unknown model accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("unknown content model"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("steady"), std::string::npos);
  }
  try {
    build_content_schedule({"steady", {{"bogus", "1"}}}, prob, 1);
    FAIL() << "unknown param accepted";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("bogus"), std::string::npos);
    EXPECT_NE(what.find("supersede"), std::string::npos) << what;
    EXPECT_NE(what.find("resync"), std::string::npos) << what;
  }
  EXPECT_THROW(
      build_content_schedule({"steady", {{"resync", "maybe"}}}, prob, 1),
      std::invalid_argument);
  EXPECT_THROW(build_content_schedule({"steady", {{"span", "0"}}}, prob, 1),
               std::invalid_argument);
  EXPECT_THROW(build_content_schedule({"steady", {{"epochs", "0"}}}, prob, 1),
               std::invalid_argument);
  // (256 + 16)-bit coded rows over the 136 + 64 + 64 = 264-bit budget
  // network::step asserts at slack = 1: rejected up front, naming slack.
  problem tight = content_problem(256, 136);
  tight.d = 16;
  tight.slack = 1.0;
  try {
    build_content_schedule({"steady", {}}, tight, 1);
    FAIL() << "over-budget working set accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("slack"), std::string::npos);
  }
}

TEST(content, parse_content_spec_roundtrips_and_rejects) {
  const content_spec plain = parse_content_spec("steady");
  EXPECT_EQ(plain.name, "steady");
  EXPECT_TRUE(plain.params.empty());
  const content_spec spec = parse_content_spec("burst,period=2,supersede=0.5");
  EXPECT_EQ(spec.name, "burst");
  EXPECT_EQ(spec.params.at("period"), "2");
  EXPECT_EQ(spec.params.at("supersede"), "0.5");
  EXPECT_EQ(format_spec(spec.name, spec.params),
            "burst,period=2,supersede=0.5");
  EXPECT_THROW(parse_content_spec(""), std::invalid_argument);
  EXPECT_THROW(parse_content_spec("steady,oops"), std::invalid_argument);
  EXPECT_THROW(parse_content_spec(",k=v"), std::invalid_argument);
}

TEST(content, registry_lists_builtin_models) {
  const std::vector<std::string> names =
      content_registry::instance().names();
  for (const char* want : {"steady", "burst", "rolling"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), want), names.end())
        << want;
  }
}

TEST(content, epoch_driver_completes_and_records_metrics) {
  const run_report rep =
      run_content("rlnc-direct", "permuted-path", {}, "steady", {}, 2);
  EXPECT_TRUE(rep.complete);
  const content_metrics& cm = rep.metrics.content;
  ASSERT_TRUE(cm.active);
  EXPECT_FALSE(cm.resync_full);
  EXPECT_EQ(cm.head_version, cm.versions - 1);
  ASSERT_EQ(cm.epoch_rounds.size(), cm.epochs);
  ASSERT_EQ(cm.epoch_delta_items.size(), cm.epochs);
  ASSERT_EQ(cm.epoch_target_items.size(), cm.epochs);
  std::int64_t total = 0;
  for (std::size_t e = 0; e < cm.epochs; ++e) {
    ASSERT_GE(cm.epoch_rounds[e], 1) << "epoch " << e;
    total += cm.epoch_rounds[e];
    EXPECT_GE(cm.epoch_delta_items[e], 1u) << "epoch " << e;
    EXPECT_GE(cm.epoch_target_items[e], 1u) << "epoch " << e;
  }
  EXPECT_EQ(total, static_cast<std::int64_t>(rep.rounds));
  EXPECT_GT(cm.wire_bits, 0u);
  EXPECT_GT(cm.full_resync_floor_bits, 0u);
  EXPECT_GE(cm.staleness_max, cm.staleness_p90);
  EXPECT_GE(cm.staleness_p90, cm.staleness_p50);
}

TEST(content, churn_rejoin_uses_backlog_and_supersede_shortcuts) {
  const param_map churn = {{"rate", "0.1"}, {"max_down", "4"}};
  std::size_t shortcuts = 0;
  bool any_backlog = false;
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    const run_report rep = run_content("rlnc-direct", "churn", churn, "steady",
                                       {{"supersede", "0.6"}}, seed);
    EXPECT_TRUE(rep.complete) << "seed " << seed;
    ASSERT_TRUE(rep.metrics.content.active);
    shortcuts += rep.metrics.content.shortcut_hits;
    any_backlog = any_backlog || rep.metrics.content.backlog_items > 0;
  }
  // Rejoining nodes catch up: some epoch's delta carries more than the
  // fresh patches, and some dependency discharges via a supersede chain.
  EXPECT_TRUE(any_backlog);
  EXPECT_GT(shortcuts, 0u);
}

TEST(content, delta_beats_full_resync_on_wire_bits) {
  const param_map churn = {{"rate", "0.1"}, {"max_down", "4"}};
  std::uint64_t delta = 0, full = 0;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    const run_report d =
        run_content("rlnc-direct", "churn", churn, "steady", {}, seed);
    const run_report f = run_content("rlnc-direct", "churn", churn, "steady",
                                     {{"resync", "full"}}, seed);
    EXPECT_TRUE(d.complete && f.complete) << "seed " << seed;
    EXPECT_FALSE(d.metrics.content.resync_full);
    EXPECT_TRUE(f.metrics.content.resync_full);
    delta += d.metrics.content.wire_bits;
    full += f.metrics.content.wire_bits;
  }
  EXPECT_LT(delta, full);
}

TEST(content, non_coded_protocol_is_rejected) {
  EXPECT_THROW(run_content("token-forwarding", "static-path", {}, "steady",
                           {}, 1),
               std::invalid_argument);
}

using runner::find_scenario;
using runner::run_sweep;
using runner::scenario;
using runner::sweep_options;
using runner::sweep_to_json;

// The content cells obey the sweep's byte-identity contract: the JSON is a
// pure function of (scenarios, trials, base_seed), whatever the worker
// count.
TEST(content, sweep_bytes_stable_across_threads) {
  std::vector<scenario> scens;
  for (const char* name :
       {"rlnc-direct/permuted-path/content:steady/n16",
        "rlnc-direct/churn/content:steady[supersede=0.6]/n16",
        "rlnc-sparse/permuted-path/content:burst/n16",
        "rlnc-gen/permuted-path/content:rolling/n16"}) {
    const scenario* s = find_scenario(name);
    ASSERT_NE(s, nullptr) << name;
    scens.push_back(*s);
  }

  // Comparing the cells subtree, which holds every per-cell result.
  const auto cells_dump = [&scens](const sweep_options& opts) {
    const json::value doc = sweep_to_json(run_sweep(scens, opts));
    const json::value* cells = doc.find("cells");
    EXPECT_NE(cells, nullptr);
    return cells == nullptr ? std::string{} : cells->dump();
  };

  sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 11;
  opts.threads = 1;
  const std::string want = cells_dump(opts);
  for (const std::size_t threads : {2u, 4u, 8u}) {
    opts.threads = threads;
    EXPECT_EQ(want, cells_dump(opts)) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace ncdn
