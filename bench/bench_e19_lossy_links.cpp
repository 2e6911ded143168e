// E19 — lossy links: rounds-to-completion versus iid erasure rate for
// coded broadcast against streaming store-and-forward, at equal bandwidth.
//
// The paper's robustness argument (§1, §5) is that RLNC needs no
// particular packet to arrive: any innovative combination extends the
// receiver's span, so an erased copy costs one draw, not a protocol
// state.  Pipelined token-forwarding, by contrast, forwards the lowest
// unseen token — a lost copy of *that* token stalls the pipeline until
// another neighbour re-offers it.  This bench pins the gap on the
// src/linkmodel Bernoulli channel and self-asserts that rlnc-direct's
// slowdown factor from p=0 to the heaviest loss point stays below the
// forwarding baseline's.
//
// A second section times the Gilbert-Elliott channel itself: lost() per
// query, at the default and at equal flip probabilities, on a fresh edge
// per round (what churn gives) and on one edge queried every round.  The
// chain walks back to its last merging draw, about
// 1 / |p_good_bad - p_bad_good| draws per query; equal probabilities
// never merge, so the bench asserts that the persistent equal-probability
// case stays within 8x of the default one (the per-edge memo's job).
//
// Writes BENCH_E19.json under NCDN_BENCH_JSON (one row per loss x
// protocol: mean rounds, completion rate; one row per chain case:
// query_time_ns), the file the nightly trajectory job diffs run over run.
#include <algorithm>
#include <chrono>

#include "bench_util.hpp"
#include "linkmodel/linkmodel.hpp"

using namespace ncdn;
using namespace ncdn::bench;

namespace {

struct outcome {
  double rounds = 0;
  double completion_rate = 0;
};

outcome measure(const problem& prob, const std::string& alg,
                const std::string& loss_p, std::size_t trials) {
  outcome out;
  for (std::size_t t = 0; t < trials; ++t) {
    session s(prob, protocol_spec{alg, {}},
              adversary_spec{"permuted-path", {}},
              link_spec{"bernoulli", {{"p", loss_p}}}, 1 + t);
    const run_report rep = s.run_to_completion();
    // Incomplete runs (the cap tripping under heavy loss) count their full
    // round budget: stalling is the phenomenon being measured.
    out.rounds += static_cast<double>(
                      rep.complete ? rep.metrics.observed_completion_round
                                   : rep.rounds) /
                  static_cast<double>(trials);
    out.completion_rate += rep.complete ? 1.0 / static_cast<double>(trials) : 0;
  }
  return out;
}

/// Nanoseconds per lost() query, best of `reps` fresh models, over 4,096
/// rounds that each query one edge: a new one every round, or always the
/// same one.
double ge_query_ns(const param_map& flips, bool fresh_edges,
                   std::size_t reps) {
  constexpr round_t rounds = 4096;
  double best = 0;
  std::size_t lost = 0;
  for (std::size_t rep = 0; rep < reps; ++rep) {
    auto model = build_link_model({"gilbert-elliott", flips}, 1 + rep);
    const auto t0 = std::chrono::steady_clock::now();
    for (round_t r = 1; r <= rounds; ++r) {
      const auto u = static_cast<node_id>(fresh_edges ? 2 * r : 0);
      lost += model->lost(r, u, u + 1) ? 1 : 0;
    }
    const double ns = std::chrono::duration<double, std::nano>(
                          std::chrono::steady_clock::now() - t0)
                          .count() /
                      static_cast<double>(rounds);
    if (best == 0 || ns < best) best = ns;
  }
  NCDN_ASSERT(lost > 0);
  return best;
}

}  // namespace

int main() {
  print_experiment_header(
      "E19", "lossy links — rounds to completion vs Bernoulli erasure "
             "rate, coded broadcast vs pipelined forwarding");
  json_recorder rec("E19");
  const std::size_t trials = trials_from_env(3);
  const double scale = scale_from_env();
  const std::size_t n = static_cast<std::size_t>(64 * scale);
  const std::size_t k = n, d = 8;

  problem prob;
  prob.n = n;
  prob.k = k;
  prob.d = d;
  prob.b = (k + d) / 2 + 8;  // equal budget: coded rows (k+d bits) fit,
                             // forwarding gets identical bandwidth
  rec.config("trials", json::value{trials});
  rec.config("n", json::value{n});
  rec.config("k", json::value{k});
  rec.config("d", json::value{d});
  rec.config("b", json::value{prob.b});

  const std::vector<const char*> losses = {"0", "0.1", "0.2", "0.3"};
  const std::vector<const char*> protocols = {"rlnc-direct",
                                              "token-forwarding-pipelined"};

  double rlnc_base = 0, rlnc_worst = 0;    // rlnc-direct at p=0 / p=0.3
  double flood_base = 0, flood_worst = 0;  // pipelined forwarding, same

  text_table t({"loss", "protocol", "rounds", "complete"});
  for (const char* loss : losses) {
    for (const char* alg : protocols) {
      const outcome o = measure(prob, alg, loss, trials);
      t.add_row({loss, alg, text_table::num(o.rounds),
                 text_table::num(o.completion_rate)});
      rec.row("lossy", {{"loss", json::value{loss}},
                        {"protocol", json::value{alg}},
                        {"rounds", json::value{o.rounds}},
                        {"completion_rate", json::value{o.completion_rate}}});
      const bool coded = std::string(alg) == "rlnc-direct";
      if (std::string(loss) == "0") {
        (coded ? rlnc_base : flood_base) = o.rounds;
      } else if (std::string(loss) == "0.3") {
        (coded ? rlnc_worst : flood_worst) = o.rounds;
      }
    }
  }
  t.print();

  const double rlnc_slowdown = rlnc_worst / rlnc_base;
  const double flood_slowdown = flood_worst / flood_base;
  std::printf(
      "\nPaper check: from p=0 to p=0.3, rlnc-direct slows down %.2fx vs "
      "pipelined forwarding's %.2fx — an erased coded copy costs one "
      "redundant draw, an erased token copy stalls the forwarding "
      "pipeline until a neighbour re-offers it.\n",
      rlnc_slowdown, flood_slowdown);
  NCDN_ASSERT(rlnc_base > 0 && flood_base > 0);
  NCDN_ASSERT(rlnc_slowdown < flood_slowdown);  // graceful degradation

  struct chain_case {
    const char* flips;
    param_map params;
  };
  const std::vector<chain_case> chains = {
      {"default", {}},
      {"equal", {{"p_good_bad", "0.2"}, {"p_bad_good", "0.2"}}},
  };
  const std::size_t reps = std::max<std::size_t>(trials, 5);
  double default_persistent = 0, equal_persistent = 0;
  text_table g({"flips", "edges", "ns/query"});
  for (const chain_case& c : chains) {
    for (const bool fresh : {true, false}) {
      const double ns = ge_query_ns(c.params, fresh, reps);
      const char* edges = fresh ? "fresh" : "persistent";
      g.add_row({c.flips, edges, text_table::num(ns)});
      rec.row("ge_chain", {{"flips", json::value{c.flips}},
                           {"edges", json::value{edges}},
                           {"query_time_ns", json::value{ns}}});
      if (!fresh) {
        (std::string(c.flips) == "default" ? default_persistent
                                           : equal_persistent) = ns;
      }
    }
  }
  std::printf("\nGilbert-Elliott lost() per query [4096 rounds, best of "
              "%zu]\n",
              reps);
  g.print();
  std::printf("equal / default flip probabilities, persistent edge: %.2fx "
              "(gate: below 8x)\n",
              equal_persistent / default_persistent);
  NCDN_ASSERT(equal_persistent < 8.0 * default_persistent);
  return 0;
}
