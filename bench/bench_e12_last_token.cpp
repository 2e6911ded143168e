// E12 — §5.2: the "last missing token" scenario.  Node A knows all k
// tokens; node B misses exactly one, and A does not know which.  Random
// token forwarding needs ~k/2 expected rounds (deterministic worst case k);
// a single XOR of all tokens delivers it in 1 round.  This is the paper's
// two-node intuition for why coding wins the endgame of dissemination.
#include "bench_util.hpp"
#include "linalg/decoder.hpp"

using namespace ncdn;

namespace {

/// Rounds until B holds token `missing` when A forwards its k tokens in a
/// uniformly random order (the best randomized forwarding strategy; §5.2's
/// expected k/2).
double forwarding_rounds(std::size_t k, std::size_t missing, rng& r) {
  std::vector<std::size_t> order(k);
  for (std::size_t i = 0; i < k; ++i) order[i] = i;
  r.shuffle(order);
  for (std::size_t pos = 0; pos < k; ++pos) {
    if (order[pos] == missing) return static_cast<double>(pos + 1);
  }
  return static_cast<double>(k);
}

}  // namespace

int main() {
  print_experiment_header(
      "E12", "§5.2 — the last missing token: forwarding ~k/2 expected "
             "rounds, one XOR suffices");
  const std::size_t trials = trials_from_env(200);

  text_table t({"k", "random forwarding (mean rounds)", "k/2",
                "XOR of all tokens", "decoded correctly"});
  rng r(7);
  for (std::size_t k : {8u, 32u, 128u, 512u}) {
    double mean = 0;
    for (std::size_t i = 0; i < trials; ++i) {
      mean += forwarding_rounds(k, r.below(k), r) /
              static_cast<double>(trials);
    }
    // The coding side, done for real: B has k-1 unit rows; A sends the XOR
    // of everything; B decodes the missing payload with one insert.
    const std::size_t d = 16;
    const std::size_t missing = r.below(k);
    bit_decoder a(k, d), b_dec(k, d);
    std::vector<bitvec> payloads;
    for (std::size_t i = 0; i < k; ++i) {
      bitvec p(d);
      p.randomize(r);
      payloads.push_back(p);
      bitvec row(k + d);
      row.set(i);
      row.copy_bits_from(p, 0, d, k);
      a.insert(row);
      if (i != missing) b_dec.insert(std::move(row));
    }
    bitvec xor_all(k + d);
    for (std::size_t i = 0; i < a.rank(); ++i) {
      xor_all.xor_with(a.basis_row(i));
    }
    b_dec.insert(xor_all);
    const bool ok =
        b_dec.complete() && b_dec.decode(missing) == payloads[missing];
    t.add_row({text_table::num(k), text_table::fixed(mean, 1),
               text_table::fixed(static_cast<double>(k) / 2, 1), "1 round",
               ok ? "yes" : "NO"});
  }
  t.print();
  std::printf("\nPaper check: random forwarding's expected rounds track k/2 "
              "while the XOR (the simplest network-coded message) always "
              "finishes in one round and decodes the right token.\n");
  return 0;
}
