// Experiment harness: runs a measurement across seeds, summarizes, and
// feeds the per-experiment tables the bench binaries print (README, Bench
// binaries).  Honors NCDN_TRIALS / NCDN_SCALE environment variables
// so the default `for b in build/bench/*; do $b; done` stays quick while
// allowing deeper sweeps.
#pragma once

#include <functional>
#include <string>
#include <vector>

#include "core/stats.hpp"
#include "core/table.hpp"

namespace ncdn {

/// Number of seeds per configuration (env NCDN_TRIALS, default `fallback`).
std::size_t trials_from_env(std::size_t fallback);

/// Global size multiplier for sweeps (env NCDN_SCALE, default 1.0).
double scale_from_env();

/// Runs `measure(seed)` for seeds base_seed .. base_seed+trials-1 and
/// summarizes the results.
summary measure_over_seeds(const std::function<double(std::uint64_t)>& measure,
                           std::size_t trials, std::uint64_t base_seed = 1);

/// Pretty banner for a bench binary section.
void print_experiment_header(const std::string& id, const std::string& claim);

}  // namespace ncdn
