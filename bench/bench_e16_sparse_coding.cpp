// E16b — the coding-backend frontier: rounds vs elimination cost.
//
// The paper's protocols code densely over everything received (§5.1), so
// per-round decode cost dominates simulation expense as n and k grow.
// Practical RLNC trades a few extra rounds for far cheaper elimination via
// sparse combinations and generation/band codes (sparsenc; Firooz & Roy;
// Costa et al.).  This bench measures that frontier at n = k = 256 on the
// permuted-path adversary through the registry/session stack, so the
// numbers are exactly what sweeps report in `metrics.elimination_xors`.
//
// Writes BENCH_E16.json under NCDN_BENCH_JSON (rows per backend config:
// completion rounds, total XOR word-ops, XOR word-ops per round, mean
// session wall time and XOR word-ops per second).  The wall time is the
// elimination-and-combination speed axis: rounds and XOR counts are pure
// functions of the seeds, secs and xors_per_sec are machine-dependent.
#include <chrono>

#include "bench_util.hpp"

using namespace ncdn;
using namespace ncdn::bench;

namespace {

struct cell_out {
  double rounds = 0;
  double xors = 0;
  double secs = 0;  // mean session wall time
};

cell_out mean_cell(const problem& prob, const std::string& alg,
                   const param_map& params, std::size_t trials) {
  cell_out out;
  for (std::size_t t = 0; t < trials; ++t) {
    const auto t0 = std::chrono::steady_clock::now();
    const run_report rep =
        run_cell(prob, alg, "permuted-path", 1 + t, params);
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    out.rounds += static_cast<double>(rep.metrics.observed_completion_round) /
                  static_cast<double>(trials);
    out.xors += static_cast<double>(rep.metrics.total_elimination_xors) /
                static_cast<double>(trials);
    out.secs += secs / static_cast<double>(trials);
  }
  return out;
}

}  // namespace

int main() {
  print_experiment_header(
      "E16b", "coding backends — rounds vs elimination-XOR cost at "
              "n = k = 256 (sparse / generation vs dense RLNC)");
  json_recorder rec("E16");
  const std::size_t trials = trials_from_env(3);
  const double scale = scale_from_env();
  const std::size_t n = static_cast<std::size_t>(256 * scale);
  const std::size_t k = n, d = 16;

  problem prob;
  prob.n = n;
  prob.k = k;
  prob.d = d;
  prob.b = (k + d) / 2 + 16;  // coded rows are k+d bits; fit the budget
  rec.config("trials", json::value{trials});
  rec.config("n", json::value{n});
  rec.config("k", json::value{k});
  rec.config("d", json::value{d});
  rec.config("adversary", json::value{"permuted-path"});

  struct row {
    const char* label;
    const char* alg;
    param_map params;
  };
  const std::vector<row> rows = {
      {"dense", "rlnc-direct", {}},
      {"sparse rho=0.1", "rlnc-sparse", {{"rho", "0.1"}}},
      {"sparse rho=0.05", "rlnc-sparse", {{"rho", "0.05"}}},
      {"gen g=16 w=4", "rlnc-gen", {{"gen_size", "16"}}},
      {"gen g=32 w=4", "rlnc-gen", {{"gen_size", "32"}}},
      {"gen g=64 w=8", "rlnc-gen",
       {{"gen_size", "64"}, {"band_overlap", "8"}}},
  };

  std::printf("\nbackend frontier [n = k = %zu, d = %zu, b = %zu]\n", n, d,
              prob.b);
  text_table t(
      {"backend", "rounds", "xor word-ops", "xors/round", "secs", "xors/sec"});
  double dense_total = 0;
  double dense_per_round = 0;
  for (const row& r : rows) {
    const cell_out c = mean_cell(prob, r.alg, r.params, trials);
    const double per_round = c.rounds > 0 ? c.xors / c.rounds : 0;
    const double per_sec = c.secs > 0 ? c.xors / c.secs : 0;
    if (std::string(r.label) == "dense") {
      dense_total = c.xors;
      dense_per_round = per_round;
    } else if (scale >= 1.0) {
      // The acceptance gate of this experiment: at full size both
      // alternative backends eliminate strictly cheaper than dense, per
      // round and in total, paying with rounds instead.  (Shrunken
      // NCDN_SCALE runs can collapse the generations into one, so the
      // gate only applies at n >= 256.)
      NCDN_ASSERT(per_round < dense_per_round);
      NCDN_ASSERT(c.xors < dense_total);
    }
    t.add_row({r.label, text_table::num(c.rounds), text_table::num(c.xors),
               text_table::num(per_round), text_table::fixed(c.secs, 3),
               text_table::num(per_sec)});
    rec.row("backends", {{"backend", json::value{r.label}},
                         {"algorithm", json::value{r.alg}},
                         {"rounds", json::value{c.rounds}},
                         {"elimination_xors", json::value{c.xors}},
                         {"xors_per_round", json::value{per_round}},
                         {"secs", json::value{c.secs}},
                         {"xors_per_sec", json::value{per_sec}}});
  }
  t.print();
  std::printf(
      "Reading: dense RLNC decodes fastest in rounds but XORs over the\n"
      "whole received span; Bernoulli-rho combinations cut combination\n"
      "work ~rho/0.5 and generations bound every elimination to a g+w\n"
      "window of word-narrow rows — orders of magnitude fewer XOR word\n"
      "ops — at the price of extra rounds.  Sweeps expose the same\n"
      "frontier per cell via metrics.elimination_xors.\n");
  return 0;
}
