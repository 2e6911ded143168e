// E8 — Theorem 2.4 vs Theorem 2.1: in T-stable networks, token forwarding
// gains (at most) a factor T while network coding gains ~T^2 — decomposed
// here into the paper's two ideas: chunked coefficient amortization
// (factor T) and patch-sharing (the second factor).
#include "bench_util.hpp"
#include "protocols/tstable_patch.hpp"

using namespace ncdn;

int main() {
  print_experiment_header(
      "E8", "Thm 2.4 — T-stable speedups: forwarding <= T, chunked coding "
            "~T, patch coding ~T^2");
  const std::size_t trials = trials_from_env(3);
  bench::json_recorder rec("E8");
  rec.config("trials", trials);

  const std::size_t n = 128, k = 128, d = 8, b = 16;
  std::printf("\n[n = k = %zu, d = %zu, b = %zu; T-stable permuted path; "
              "forwarding measured at observer completion (its best case)]\n",
              n, d, b);

  double base_fwd = 0, base_nc = 0;
  struct speedups {
    round_t t;
    double forwarding, coding;
  };
  std::vector<speedups> seen;
  text_table t({"T", "forwarding", "fwd speedup", "coding (auto)",
                "coding speedup", "engine"});
  for (round_t T : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    problem prob{.n = n, .k = k, .d = d, .b = b, .t_stability = T};

    const double r_fwd = bench::mean_completion(
        prob, "token-forwarding-pipelined", "permuted-path", trials);

    const double r_nc =
        bench::mean_rounds(prob, "tstable/auto", "permuted-path", trials);
    const patch_plan plan_probe = plan_patch_broadcast(n, b, T);
    const char* engine = plan_probe.feasible && plan_probe.item_bits >= d
                             ? "patch"
                             : "chunked";

    if (T == 1) {
      base_fwd = r_fwd;
      base_nc = r_nc;
    }
    t.add_row({text_table::num(static_cast<std::size_t>(T)),
               text_table::num(r_fwd), text_table::fixed(base_fwd / r_fwd, 2),
               text_table::num(r_nc), text_table::fixed(base_nc / r_nc, 2),
               engine});
    rec.row("speedup_vs_T", {{"T", static_cast<std::size_t>(T)},
                             {"forwarding_rounds", r_fwd},
                             {"forwarding_speedup", base_fwd / r_fwd},
                             {"coding_rounds", r_nc},
                             {"coding_speedup", base_nc / r_nc},
                             {"engine", engine}});
    seen.push_back({T, base_fwd / r_fwd, base_nc / r_nc});
  }
  t.print();
  // Theorem 2.1 against Theorem 2.4: stability buys forwarding at most a
  // factor T, and coding more than forwarding wherever the (bT)^2-bit
  // epochs still fit the k*d-bit workload several times over.
  for (const speedups& s : seen) {
    NCDN_ASSERT(s.forwarding <= static_cast<double>(s.t));
    if (s.t >= 4 && s.t <= 32) NCDN_ASSERT(s.coding > s.forwarding);
  }
  std::printf(
      "\nReading: forwarding gains essentially nothing from stability "
      "(<= T, asserted, and far less in practice), while coding's speedup "
      "exceeds forwarding's at every T from 4 to 32 (asserted) and 5x "
      "already at T = 8.  At larger T the fixed workload (k*d bits) no "
      "longer saturates the (bT)^2-bit epochs, so the speedup decays "
      "toward the n-round information-distance floor — the paper's T^2 "
      "regime assumes kd >> (bT)^2.\n");

  // Second axis: indexed-broadcast *throughput* at matched (n, b, T),
  // isolating the patching idea against chunking alone when both ship
  // their natural full-size payloads.
  std::printf("\n(b) broadcast throughput, patch vs chunked, saturated "
              "sessions [n = 128, b = 16]\n");
  text_table t2({"T", "D", "patch bits/round", "chunked bits/round",
                 "patch advantage"});
  for (round_t T : {64u, 128u, 256u}) {
    const patch_plan plan = plan_patch_broadcast(n, b, T);
    if (!plan.feasible) continue;
    auto run_rate = [&](bool use_patch, std::uint64_t seed) -> double {
      auto adv = make_t_stable(make_permuted_path(n, seed + 3), T);
      network net(n, b, *adv, seed + 7);
      rng r(seed);
      if (use_patch) {
        tstable_patch_session s(plan);
        for (std::size_t i = 0; i < plan.items; ++i) {
          bitvec p(plan.item_bits);
          p.randomize(r);
          s.seed(static_cast<node_id>(i % n), i, p);
        }
        const round_t used = run_rounds(s.run_stepped(net, 100000 * T, true));
        NCDN_ASSERT(s.all_complete());
        return static_cast<double>(plan.items * plan.item_bits) /
               static_cast<double>(used);
      }
      chunked_meta_session s(n, b, T);
      for (std::size_t i = 0; i < s.items(); ++i) {
        bitvec p(s.item_bits());
        p.randomize(r);
        s.seed(static_cast<node_id>(i % n), i, p);
      }
      const round_t used = run_rounds(s.run_stepped(net, 100000 * T, true));
      NCDN_ASSERT(s.all_complete());
      return static_cast<double>(s.items() * s.item_bits()) /
             static_cast<double>(used);
    };
    double rate_patch = 0, rate_chunked = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      rate_patch += run_rate(true, 1 + i) / static_cast<double>(trials);
      rate_chunked += run_rate(false, 1 + i) / static_cast<double>(trials);
    }
    t2.add_row({text_table::num(static_cast<std::size_t>(T)),
                text_table::num(static_cast<std::size_t>(plan.d_patch)),
                text_table::fixed(rate_patch, 2),
                text_table::fixed(rate_chunked, 2),
                text_table::fixed(rate_patch / rate_chunked, 2) + "x"});
    rec.row("throughput_patch_vs_chunked",
            {{"T", static_cast<std::size_t>(T)},
             {"patch_radius", static_cast<std::size_t>(plan.d_patch)},
             {"patch_bits_per_round", rate_patch},
             {"chunked_bits_per_round", rate_chunked},
             {"patch_advantage", rate_patch / rate_chunked}});
  }
  t2.print();
  std::printf(
      "\nPaper check: chunking alone delivers the practical factor-T "
      "speedup (table a).  Patch-sharing is verified correct and its cost "
      "tracks Lemma 8.1's shape (see E9), but at simulable scales its "
      "constants — patch computation, T/8-size vectors inside the window, "
      "convergecast latency — outweigh the Theta(D)-nodes-per-cycle gain: "
      "a hop-rate comparison shows patching only beats chunking for patch "
      "radius D > ~5, i.e. T >~ 500 at this n, where the bT^2 saturation "
      "term already dominates.  The T^2 regime (bT^2 <= n with feasible "
      "D) needs thousands of nodes; see EXPERIMENTS.md for the "
      "arithmetic.\n");
  return 0;
}
