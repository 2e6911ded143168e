// Runner subsystem tests: the JSON emitter, the scenario registry's
// coverage floors, and the parallel sweep engine's determinism contract
// (byte-identical output for any worker count) and error rule (the lowest
// failing cell is rethrown).
#include <gtest/gtest.h>

#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/json.hpp"
#include "runner/scenario.hpp"
#include "runner/sweep.hpp"

namespace ncdn::runner {
namespace {

TEST(json, dump_is_byte_exact) {
  json::object inner;
  json::put(inner, "rounds", std::uint64_t{42});
  json::put(inner, "ratio", 1.5);
  json::object root;
  // Quotes, whitespace escapes and a bare control character, which must
  // print as \u0001; UTF-8 (é, U+1F600) passes through byte for byte.
  json::put(root, "name", "a/b \"quoted\"\n\ttab\x01");
  json::put(root, "utf8", "\xC3\xA9\xF0\x9F\x98\x80");
  json::put(root, "ok", true);
  json::put(root, "missing", nullptr);
  json::put(root, "cells",
            json::value{json::array{json::value{inner},
                                    json::value{std::uint64_t{7}}}});
  const json::value tree{root};

  EXPECT_EQ(tree.dump(),
            "{\"name\":\"a/b \\\"quoted\\\"\\n\\ttab\\u0001\","
            "\"utf8\":\"\xC3\xA9\xF0\x9F\x98\x80\",\"ok\":true,"
            "\"missing\":null,\"cells\":[{\"rounds\":42,\"ratio\":1.5},7]}");
  EXPECT_EQ(tree.dump_pretty(),
            "{\n"
            "  \"name\": \"a/b \\\"quoted\\\"\\n\\ttab\\u0001\",\n"
            "  \"utf8\": \"\xC3\xA9\xF0\x9F\x98\x80\",\n"
            "  \"ok\": true,\n"
            "  \"missing\": null,\n"
            "  \"cells\": [\n"
            "    {\n"
            "      \"rounds\": 42,\n"
            "      \"ratio\": 1.5\n"
            "    },\n"
            "    7\n"
            "  ]\n"
            "}\n");
}

TEST(json, non_finite_numbers_degrade_to_null) {
  // JSON has no Inf/NaN; the emitter must not produce unparseable output.
  json::object o;
  json::put(o, "inf", std::numeric_limits<double>::infinity());
  json::put(o, "ninf", -std::numeric_limits<double>::infinity());
  json::put(o, "nan", std::numeric_limits<double>::quiet_NaN());
  const std::string text = json::value{o}.dump();
  EXPECT_EQ(text, "{\"inf\":null,\"ninf\":null,\"nan\":null}");
}

// A value holds one alternative, not all six (96 bytes when it did).
static_assert(sizeof(json::value) <= 48);

TEST(json, accessors_of_another_kind_read_empty) {
  json::object o;
  json::put(o, "k", 1);
  std::vector<json::value> all;
  all.emplace_back();
  all.emplace_back(true);
  all.emplace_back(2.5);
  all.emplace_back("text");
  all.emplace_back(json::array{json::value{1}});
  all.emplace_back(o);
  for (const json::value& v : all) {
    SCOPED_TRACE(v.dump());
    EXPECT_TRUE(v.is_bool() || !v.as_bool());
    EXPECT_TRUE(v.is_number() || v.as_number() == 0.0);
    EXPECT_TRUE(v.is_string() || v.as_string().empty());
    EXPECT_TRUE(v.is_array() || v.items().empty());
    if (!v.is_object()) {
      EXPECT_TRUE(v.members().empty());
      EXPECT_EQ(v.find("k"), nullptr);
    }
  }
  EXPECT_TRUE(all[1].as_bool());
  EXPECT_EQ(all[2].as_number(), 2.5);
  EXPECT_EQ(all[3].as_string(), "text");
  EXPECT_EQ(all[4].items().size(), 1u);
  EXPECT_EQ(all[5].find("k")->as_number(), 1.0);
  // Copies and moves carry the one alternative; a reassigned value
  // changes kind.
  json::value copy = all[5];
  json::value moved = std::move(copy);
  EXPECT_EQ(moved.dump(), "{\"k\":1}");
  moved = all[3];
  EXPECT_EQ(moved.dump(), "\"text\"");
  moved = json::value{json::array{all[0], all[2]}};
  EXPECT_EQ(moved.dump(), "[null,2.5]");
}

TEST(scenario_registry, meets_sweep_coverage_floors) {
  const std::vector<scenario>& all = scenario_registry();
  // The PR5 acceptance gate: the generated matrix spans >= 400 cells
  // over >= 10 protocols x >= 10 adversary families, tier-labelled.
  EXPECT_GE(all.size(), 400u);
  EXPECT_GE(distinct_algorithms(all), 10u);
  EXPECT_GE(distinct_adversaries(all), 10u);
  for (const scenario& s : all) EXPECT_FALSE(s.tier.empty()) << s.name;

  // Names are unique and resolvable.
  for (const scenario& s : all) {
    const scenario* found = find_scenario(s.name);
    ASSERT_NE(found, nullptr) << s.name;
    EXPECT_EQ(found->alg, s.alg) << s.name;
  }

  // The paper's protocol families are all present.
  for (const char* name :
       {"token-forwarding/static-path/n16", "greedy-forward/permuted-path/n16",
        "priority-forward/flooding/sorted-path/n16",
        "naive-indexed/static-star/n16", "rlnc-direct/random-connected/n16",
        "tstable/chunked/random-geometric/n16"}) {
    EXPECT_NE(find_scenario(name), nullptr) << name;
  }
}

TEST(scenario_registry, substring_selection) {
  EXPECT_TRUE(scenarios_matching("no-such-scenario-xyz").empty());
  const auto greedy = scenarios_matching("greedy-forward/");
  ASSERT_FALSE(greedy.empty());
  for (const scenario& s : greedy) EXPECT_EQ(s.alg, "greedy-forward");
  // Empty pattern selects the whole registry.
  EXPECT_EQ(scenarios_matching("").size(), scenario_registry().size());
}

TEST(sweep, cell_seeds_are_deterministic_and_spread) {
  EXPECT_EQ(cell_seed(1, "a/b/n16", 0), cell_seed(1, "a/b/n16", 0));
  EXPECT_NE(cell_seed(1, "a/b/n16", 0), cell_seed(1, "a/b/n16", 1));
  EXPECT_NE(cell_seed(1, "a/b/n16", 0), cell_seed(2, "a/b/n16", 0));
  EXPECT_NE(cell_seed(1, "a/b/n16", 0), cell_seed(1, "a/b/n32", 0));
  EXPECT_NE(cell_seed(1, "a/b/n16", 0), 0u);
}

std::vector<scenario> cheap_scenarios() {
  std::vector<scenario> out;
  for (const char* name :
       {"token-forwarding/static-path/n16", "greedy-forward/permuted-path/n16",
        "rlnc-direct/random-connected/n16", "naive-indexed/static-star/n16"}) {
    const scenario* s = find_scenario(name);
    if (s != nullptr) out.push_back(*s);
  }
  return out;
}

TEST(sweep, parallel_sweep_emits_valid_complete_json) {
  sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 11;
  opts.threads = 2;  // the acceptance gate: a real worker pool
  const std::vector<scenario> scens = cheap_scenarios();
  ASSERT_EQ(scens.size(), 4u);

  const sweep_result result = run_sweep(scens, opts);
  ASSERT_EQ(result.cells.size(), scens.size() * opts.trials);

  const json::value root = sweep_to_json(result);
  const json::value* cells = root.find("cells");
  ASSERT_NE(cells, nullptr);
  ASSERT_TRUE(cells->is_array());
  ASSERT_EQ(cells->items().size(), 8u);
  for (const json::value& cell : cells->items()) {
    EXPECT_TRUE(cell.find("complete")->as_bool())
        << cell.find("scenario")->as_string();
    EXPECT_GT(cell.find("rounds")->as_number(), 0.0);
    // Seeds travel as digit strings so 64-bit values stay exact.
    const json::value* seed = cell.find("seed");
    ASSERT_TRUE(seed->is_string());
    EXPECT_FALSE(seed->as_string().empty());
    for (char ch : seed->as_string()) EXPECT_TRUE(ch >= '0' && ch <= '9');
    EXPECT_EQ(cell.find("n")->as_number(), 16.0);
  }
  const json::value* summaries = root.find("scenarios");
  ASSERT_NE(summaries, nullptr);
  ASSERT_EQ(summaries->items().size(), 4u);
  for (const json::value& row : summaries->items()) {
    EXPECT_TRUE(row.find("all_complete")->as_bool());
    const json::value* rounds = row.find("rounds");
    ASSERT_NE(rounds, nullptr);
    EXPECT_LE(rounds->find("min")->as_number(),
              rounds->find("max")->as_number());
  }
}

// A seed count whose product with the scenario count wraps 64 bits is
// rejected before any cell is sized, naming both counts.
TEST(sweep, wrapping_cell_count_is_rejected) {
  std::vector<scenario> scens = cheap_scenarios();
  ASSERT_GE(scens.size(), 2u);
  scens.resize(2);
  sweep_options opts;
  opts.trials = std::size_t{1} << 63;
  opts.threads = 1;
  try {
    (void)run_sweep(scens, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("2 scenarios"), std::string::npos) << what;
    EXPECT_NE(what.find("9223372036854775808 seeds"), std::string::npos)
        << what;
  }
}

// Cells that fail to build are charged to their cell, and run_sweep
// rethrows the lowest failing cell's error whatever the worker count, so
// the message a user sees does not depend on scheduling.
TEST(sweep, lowest_failing_cell_is_rethrown_at_any_worker_count) {
  const std::vector<scenario> cheap = cheap_scenarios();
  ASSERT_EQ(cheap.size(), 4u);
  std::vector<scenario> scens;
  for (std::size_t i = 0; i < 8; ++i) scens.push_back(cheap[i % 4]);
  for (const std::size_t bad : {std::size_t{2}, std::size_t{5}}) {
    scens[bad].name = "bad-cell-" + std::to_string(bad);
    scens[bad].params["no_such_param"] = "1";
  }
  sweep_options opts;
  opts.trials = 1;  // cell index == scenario index
  for (const std::size_t threads : {1u, 2u, 4u}) {
    opts.threads = threads;
    try {
      (void)run_sweep(scens, opts);
      ADD_FAILURE() << "threads=" << threads << ": expected a throw";
    } catch (const std::invalid_argument& err) {
      const std::string what = err.what();
      EXPECT_NE(what.find("'bad-cell-2' trial 0"), std::string::npos)
          << "threads=" << threads << ": " << what;
      EXPECT_NE(what.find("no_such_param"), std::string::npos) << what;
      EXPECT_EQ(what.find("bad-cell-5"), std::string::npos) << what;
    }
  }
}

TEST(sweep, output_is_byte_identical_across_runs_and_worker_counts) {
  sweep_options opts;
  opts.trials = 2;
  opts.base_seed = 5;
  const std::vector<scenario> scens = cheap_scenarios();

  std::vector<json::value> roots;
  for (std::size_t threads : {1u, 2u, 4u, 2u}) {
    opts.threads = threads;
    roots.push_back(sweep_to_json(run_sweep(scens, opts)));
  }
  for (std::size_t i = 1; i < roots.size(); ++i) {
    EXPECT_EQ(roots[0].dump(), roots[i].dump()) << "run " << i << " diverged";
  }

  // A different base seed must actually change the cells (comparing the
  // cells subtree, not the whole document — config echoes base_seed, which
  // would make a whole-document comparison pass vacuously).
  opts.base_seed = 6;
  opts.threads = 2;
  const json::value other = sweep_to_json(run_sweep(scens, opts));
  EXPECT_NE(roots[0].find("cells")->dump(), other.find("cells")->dump());
}

}  // namespace
}  // namespace ncdn::runner
