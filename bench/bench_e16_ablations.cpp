// E16 — ablations of ncdn's own design constants (not a paper table; this
// quantifies our own engineering choices).
//
// (a) The whp broadcast budget: Lemma 5.3 needs O(n + k') rounds *with a
//     constant that survives the adaptive adversary*.  Against the
//     rank-sorted path, sensing growth is one node per round with p = 1/2,
//     so a 2(n+k') budget sits at the mean and the Las-Vegas retry loop
//     thrashes; 4(n+k') makes failures rare.  This ablation measures the
//     total greedy-forward cost as a function of that constant.
//
// (b) The gathering budget: random-forward runs gather_factor * n rounds;
//     Lemma 7.2 only needs O(n), but too small a factor starves the
//     leader and costs extra epochs.
#include "bench_util.hpp"
#include "protocols/greedy_forward.hpp"

using namespace ncdn;

namespace {

struct run_out {
  double rounds = 0;
  double epochs = 0;
};

run_out run_greedy(std::size_t n, std::size_t k, std::size_t d, std::size_t b,
                   double bc_factor, double gather_factor, bool adaptive,
                   std::uint64_t seed) {
  rng r(seed);
  const auto dist = make_distribution(n, k, d, placement::one_per_node, r);
  std::unique_ptr<adversary> adv =
      adaptive ? make_sorted_path() : make_permuted_path(n, seed + 3);
  network net(n, b, *adv, seed + 7);
  token_state st(dist);
  greedy_forward_config cfg;
  cfg.b_bits = b;
  cfg.broadcast_factor = bc_factor;
  cfg.gather_factor = gather_factor;
  cfg.max_epochs = 3000;
  const protocol_result res = run_rounds(greedy_forward_machine(net, st, cfg));
  NCDN_ASSERT(res.complete);
  return run_out{static_cast<double>(res.rounds),
                 static_cast<double>(res.epochs)};
}

}  // namespace

int main() {
  print_experiment_header(
      "E16", "ablations — the whp broadcast constant and the gathering "
             "budget (design choices, not paper claims)");
  const std::size_t trials = trials_from_env(3);
  const std::size_t n = 64, k = 64, d = 16, b = 16;

  std::printf("\n(a) coded-broadcast budget factor x (rounds = x*(n+k')) "
              "[n = k = %zu, d = b = %zu]\n", n, d);
  text_table t({"factor", "oblivious rounds", "oblivious epochs",
                "adaptive rounds", "adaptive epochs"});
  for (double f : {1.5, 2.0, 3.0, 4.0, 6.0}) {
    run_out obl, adp;
    for (std::size_t i = 0; i < trials; ++i) {
      const run_out a = run_greedy(n, k, d, b, f, 1.0, false, 1 + i);
      const run_out c = run_greedy(n, k, d, b, f, 1.0, true, 1 + i);
      obl.rounds += a.rounds / static_cast<double>(trials);
      obl.epochs += a.epochs / static_cast<double>(trials);
      adp.rounds += c.rounds / static_cast<double>(trials);
      adp.epochs += c.epochs / static_cast<double>(trials);
    }
    t.add_row({text_table::fixed(f, 1), text_table::num(obl.rounds),
               text_table::fixed(obl.epochs, 1), text_table::num(adp.rounds),
               text_table::fixed(adp.epochs, 1)});
  }
  t.print();
  std::printf("Reading: against the oblivious adversary small factors are "
              "cheapest (mixing is fast, failures rare); against the "
              "adaptive adversary factors near the sensing mean (<= 2) "
              "blow up the epoch count via decode-failure retries — the "
              "library default of 4 is the knee.\n");

  std::printf("\n(b) gathering budget factor g (gather rounds = g*n)\n");
  text_table t2({"g", "rounds (oblivious)", "epochs (oblivious)"});
  for (double g : {0.25, 0.5, 1.0, 2.0}) {
    run_out obl;
    for (std::size_t i = 0; i < trials; ++i) {
      const run_out a = run_greedy(n, k, d, b, 4.0, g, false, 11 + i);
      obl.rounds += a.rounds / static_cast<double>(trials);
      obl.epochs += a.epochs / static_cast<double>(trials);
    }
    t2.add_row({text_table::fixed(g, 2), text_table::num(obl.rounds),
                text_table::fixed(obl.epochs, 1)});
  }
  t2.print();
  std::printf("Reading: on the oblivious adversary even g = 0.25 gathers "
              "enough (random re-wiring mixes that fast), so total cost is "
              "simply linear in g — extra gathering is pure overhead here. "
              "The O(n)-rounds order of Lemma 7.2 is what path-like "
              "topologies require (E5's sorted-path rows); g = 1 keeps the "
              "default safe there without hurting the easy cases much.\n");
  return 0;
}
