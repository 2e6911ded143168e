// Multithreaded scenario sweep engine.
//
// A sweep is the cross product of a scenario list and a seed range.  Cells
// are independent simulations, so they fan out over a std::thread pool;
// determinism is preserved by (a) deriving every cell's seed from
// (base_seed, scenario name, trial index) alone — never from scheduling —
// and (b) writing results into a pre-sized slot per cell, so the emitted
// JSON is byte-identical for any worker count.
#pragma once

#include <cstdint>
#include <vector>

#include "runner/json.hpp"
#include "runner/scenario.hpp"

namespace ncdn::runner {

struct sweep_options {
  std::size_t trials = 3;       // seeds per scenario
  std::uint64_t base_seed = 1;  // root of all per-cell seeds
  std::size_t threads = 0;      // worker count; 0 = hardware concurrency
  // Unread: every worker runs one cell at a time.  The benchmark harness
  // (bench/ncdn_bench) is its only writer (`opts.batch = 1`); the field
  // goes once the harness stops setting it.
  std::size_t batch = 1;
};

/// One (scenario, trial) simulation outcome.
struct cell_result {
  std::size_t scenario_index = 0;  // into the swept scenario list
  std::size_t trial = 0;
  std::uint64_t seed = 0;  // the derived per-cell seed actually used
  run_report report;
};

struct sweep_result {
  std::vector<scenario> scenarios;   // what was swept, in order
  sweep_options options;             // with `threads` resolved
  std::vector<cell_result> cells;    // scenario-major, then trial
};

/// The seed a cell runs with: a splitmix64 mix of the base seed, a hash of
/// the scenario name, and the trial index.  Pure function of its inputs, so
/// adding scenarios or reordering the sweep never perturbs existing cells.
std::uint64_t cell_seed(std::uint64_t base_seed,
                        const std::string& scenario_name, std::size_t trial);

/// Runs every (scenario, trial) cell across the worker pool.
sweep_result run_sweep(std::vector<scenario> scenarios,
                       const sweep_options& opts);

/// Machine-readable sweep report: config, per-cell rows, and per-scenario
/// round summaries.  Deterministic — equal sweeps dump byte-identical text.
json::value sweep_to_json(const sweep_result& result);

}  // namespace ncdn::runner
