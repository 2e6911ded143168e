// E14 — substrate throughput (google-benchmark): the finite-field and
// incremental-decoding kernels everything else is built on.  This is the
// "fast GF(2^k) arithmetic" requirement of the reproduction: laptop-scale
// simulation is only possible because these inner loops are cheap.
#include <benchmark/benchmark.h>

#include "coding/matrix.hpp"
#include "core/rng.hpp"
#include "gf/gf2k.hpp"
#include "gf/gfp.hpp"
#include "linalg/bitmatrix.hpp"
#include "linalg/decoder.hpp"

namespace {

using namespace ncdn;

void bm_gf256_mul(benchmark::State& state) {
  rng r(1);
  std::vector<gf256::value_type> a(4096), b(4096);
  for (auto& v : a) v = gf256::uniform(r);
  for (auto& v : b) v = gf256::uniform_nonzero(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf256::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(bm_gf256_mul);

void bm_gf65536_mul(benchmark::State& state) {
  rng r(2);
  std::vector<gf65536::value_type> a(4096), b(4096);
  for (auto& v : a) v = gf65536::uniform(r);
  for (auto& v : b) v = gf65536::uniform_nonzero(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf65536::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(bm_gf65536_mul);

void bm_mersenne61_mul(benchmark::State& state) {
  rng r(3);
  std::vector<std::uint64_t> a(4096), b(4096);
  for (auto& v : a) v = mersenne61::uniform(r);
  for (auto& v : b) v = mersenne61::uniform_nonzero(r);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(mersenne61::mul(a[i & 4095], b[i & 4095]));
    ++i;
  }
}
BENCHMARK(bm_mersenne61_mul);

void bm_mersenne61_inv(benchmark::State& state) {
  rng r(4);
  std::uint64_t v = mersenne61::uniform_nonzero(r);
  for (auto _ : state) {
    v = mersenne61::inv(v | 1);
    benchmark::DoNotOptimize(v);
  }
}
BENCHMARK(bm_mersenne61_inv);

void bm_bitvec_xor_row(benchmark::State& state) {
  const std::size_t bits = static_cast<std::size_t>(state.range(0));
  rng r(5);
  bitvec a(bits), b(bits);
  a.randomize(r);
  b.randomize(r);
  for (auto _ : state) {
    a.xor_with(b);
    benchmark::DoNotOptimize(a);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(bits / 8));
}
BENCHMARK(bm_bitvec_xor_row)->Arg(256)->Arg(1024)->Arg(8192);

void bm_bit_decoder_full_decode(benchmark::State& state) {
  // Insert 2k random combinations into a k-item decoder (a full node-side
  // decode of one indexed-broadcast session).
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  const std::size_t d = 64;
  rng r(6);
  // The stream is the dense §5.1 draw: a coin per seeded basis row.
  const auto source = make_matrix_backend(matrix_spec{})->make_node_coder(k, d);
  for (std::size_t i = 0; i < k; ++i) {
    bitvec p(d);
    p.randomize(r);
    bitvec row(k + d);
    row.set(i);
    row.copy_bits_from(p, 0, d, k);
    source->insert(row);
  }
  std::vector<bitvec> stream;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    stream.push_back(*source->make_combination(r));
  }
  for (auto _ : state) {
    bit_decoder sink(k, d);
    for (const bitvec& row : stream) sink.insert(row);
    benchmark::DoNotOptimize(sink.rank());
  }
}
BENCHMARK(bm_bit_decoder_full_decode)->Arg(64)->Arg(256)->Arg(1024);

void bm_field_decoder_gf256_insert(benchmark::State& state) {
  const std::size_t k = 64, m = 16;
  rng r(7);
  field_decoder<gf256> source(k, m);
  for (std::size_t i = 0; i < k; ++i) {
    std::vector<gf256::value_type> row(k + m, 0);
    row[i] = 1;
    for (std::size_t j = k; j < k + m; ++j) row[j] = gf256::uniform(r);
    source.insert(std::move(row));
  }
  std::vector<std::vector<gf256::value_type>> stream;
  for (std::size_t i = 0; i < 2 * k; ++i) {
    stream.push_back(*source.random_combination(r));
  }
  for (auto _ : state) {
    field_decoder<gf256> sink(k, m);
    for (const auto& row : stream) sink.insert(row);
    benchmark::DoNotOptimize(sink.rank());
  }
}
BENCHMARK(bm_field_decoder_gf256_insert);

void bm_gf2_rank(benchmark::State& state) {
  const std::size_t rows_n = 256, cols = 512;
  rng r(8);
  std::vector<bitvec> rows;
  for (std::size_t i = 0; i < rows_n; ++i) {
    bitvec v(cols);
    v.randomize(r);
    rows.push_back(std::move(v));
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(gf2_rank(rows));
  }
}
BENCHMARK(bm_gf2_rank);

}  // namespace

BENCHMARK_MAIN();
