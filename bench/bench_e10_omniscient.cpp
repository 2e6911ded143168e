// E10 — Theorem 6.1: against an omniscient adversary (knows all coefficient
// choices in advance), small fields stall network coding while a large
// field (q = 2^61 - 1 standing in for n^Omega(k)) keeps it at O(n + k).
#include "bench_util.hpp"
#include "gf/gf2k.hpp"
#include "gf/gfp.hpp"
#include "protocols/deterministic_nc.hpp"

using namespace ncdn;

namespace {

template <finite_field F>
std::pair<double, bool> run_field(std::size_t n, std::size_t k,
                                  std::size_t d, bool omniscient,
                                  std::uint64_t seed) {
  field_rlnc_session<F> s(n, k, d, /*advice_seed=*/seed);
  rng r(seed + 3);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    s.seed(static_cast<node_id>(i % n), i, p);
  }
  const round_t cap = 400 * (n + k);
  round_t used = 0;
  if (omniscient) {
    omniscient_chain_adversary<F> adv(&s);
    network net(n, s.wire_bits(), adv, seed + 7);
    used = s.run(net, cap, true);
  } else {
    auto adv = make_permuted_path(n, seed + 5);
    network net(n, s.wire_bits(), *adv, seed + 7);
    used = s.run(net, cap, true);
  }
  return {static_cast<double>(used), s.all_complete()};
}

template <finite_field F>
void row(text_table& t, const char* name, std::size_t n, std::size_t k,
         std::size_t d, std::size_t trials) {
  double obl = 0, omn = 0;
  bool omn_done = true;
  for (std::size_t i = 0; i < trials; ++i) {
    obl += run_field<F>(n, k, d, false, 1 + i).first /
           static_cast<double>(trials);
    const auto [rounds, done] = run_field<F>(n, k, d, true, 1 + i);
    omn += rounds / static_cast<double>(trials);
    omn_done = omn_done && done;
  }
  t.add_row({name, text_table::num(obl),
             omn_done ? text_table::num(omn)
                      : (text_table::num(omn) + " (CAP, undecoded)"),
             text_table::fixed(omn / obl, 1) + "x"});
}

}  // namespace

int main() {
  print_experiment_header(
      "E10", "Thm 6.1 — field size vs the omniscient adversary "
             "(deterministic advice coding)");
  const std::size_t trials = trials_from_env(3);
  const std::size_t n = 24, k = 12, d = 16;
  std::printf("\n[n = %zu, k = %zu, d = %zu; oblivious = permuted path, "
              "omniscient = greedy non-innovative chain]\n", n, k, d);

  text_table t({"field", "oblivious rounds", "omniscient rounds", "blowup"});
  row<gf2>(t, "GF(2)", n, k, d, trials);
  row<gf16>(t, "GF(16)", n, k, d, trials);
  row<gf256>(t, "GF(256)", n, k, d, trials);
  row<gf65536>(t, "GF(2^16)", n, k, d, trials);
  row<mersenne61>(t, "GF(2^61-1)", n, k, d, trials);
  t.print();

  std::printf(
      "\nPaper check: over GF(2) the omniscient adversary inflates the "
      "running time by a large factor (or prevents decoding within the "
      "cap); the blowup shrinks as q grows (a transmission is "
      "non-innovative with probability ~1/q), and at q = 2^61 - 1 the "
      "adversary is powerless — O(n + k) either way, Theorem 6.1's "
      "separation.\n");
  return 0;
}
