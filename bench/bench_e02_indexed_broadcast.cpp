// E2 — Lemma 5.3: RLNC k-indexed-broadcast delivers k items to all n nodes
// in O(n + k) rounds against any (including adaptive) adversary.  Asserts
// that each adversary's power-fit exponent of rounds against n + k lies in
// a band around 1.
#include <cmath>
#include <memory>

#include "bench_util.hpp"
#include "protocols/rlnc_broadcast.hpp"

using namespace ncdn;

namespace {

double broadcast_rounds(std::size_t n, std::size_t k, std::size_t d,
                        const char* adv_kind, std::uint64_t seed) {
  std::unique_ptr<adversary> adv;
  if (std::string(adv_kind) == "sorted-path") {
    adv = make_sorted_path();
  } else if (std::string(adv_kind) == "static-path") {
    adv = make_static_path(n);
  } else {
    adv = make_permuted_path(n, seed);
  }
  network net(n, k + d, *adv, seed + 17);
  rlnc_session s(n, k, d);
  rng r(seed);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  const round_t used = run_rounds(s.run_stepped(net, 100 * (n + k), true));
  NCDN_ASSERT(s.all_complete());
  return static_cast<double>(used);
}

// How far each adversary's power-fit exponent may sit from Lemma 5.3's 1.
// On a path, rounds also grow at least linearly (tokens cross up to n - 1
// hops, and a node gains at most two ranks a round), so the exponent over
// n + k = 64..640 reads 1 up to additive overheads, which bend it by at
// most 0.14 here (0.86 to 1.10 at one and three trials).  Growth of
// quadratic order, like token forwarding's Θ(nk), reads near 2.  A single
// log factor (about +0.19 over this range) is not separable at these sizes.
constexpr double exponent_band = 0.2;

}  // namespace

int main() {
  print_experiment_header(
      "E2", "Lemma 5.3 — RLNC indexed broadcast: O(n + k) rounds, any "
            "adversary, messages k*lg q + d bits");
  const std::size_t trials = trials_from_env(3);
  bench::json_recorder rec("E2");
  rec.config("trials", trials);
  rec.config("d", std::size_t{16});

  for (const char* adv_kind : {"permuted-path", "sorted-path", "static-path"}) {
    std::printf("\nadversary: %s   [d = 16]\n", adv_kind);
    text_table t({"n", "k", "rounds", "rounds/(n+k)"});
    std::vector<double> xs, ys;
    for (auto [n, k] : {std::pair{32u, 32u}, std::pair{64u, 64u},
                        std::pair{128u, 128u}, std::pair{256u, 256u},
                        std::pair{128u, 32u}, std::pair{128u, 512u}}) {
      const summary s = measure_over_seeds(
          [&](std::uint64_t seed) {
            return broadcast_rounds(n, k, 16, adv_kind, seed);
          },
          trials);
      xs.push_back(static_cast<double>(n + k));
      ys.push_back(s.mean);
      t.add_row({text_table::num(std::size_t{n}),
                 text_table::num(std::size_t{k}),
                 text_table::num(s.mean),
                 text_table::fixed(s.mean / static_cast<double>(n + k), 3)});
      rec.row(std::string("rounds_") + adv_kind,
              {{"n", std::size_t{n}},
               {"k", std::size_t{k}},
               {"rounds", s.mean},
               {"rounds_per_n_plus_k",
                s.mean / static_cast<double>(n + k)}});
    }
    t.print();
    const power_fit_result fit = power_fit(xs, ys);
    std::printf("power fit: rounds ~ (n+k)^%.2f   (paper: exponent 1.0)\n",
                fit.exponent);
    rec.row("power_fits",
            {{"adversary", adv_kind}, {"exponent", fit.exponent}});
    NCDN_ASSERT(std::abs(fit.exponent - 1.0) <= exponent_band);
  }
  std::printf("\nPaper check: rounds/(n+k) is a flat constant and every "
              "power-fit exponent is within %.1f of 1 (asserted) — linear "
              "time, even against the adaptive sorted-path adversary.\n",
              exponent_band);
  return 0;
}
