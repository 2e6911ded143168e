// E20 — the scale ladder: rounds/sec and peak RSS as n climbs
// 256 -> 65536 under the delta-topology + pooled-storage representation
// (per-round edge diffs, arena-recycled coded rows, lazy token-state
// masks).
//
// Two protocols ride the ladder: rlnc-gen (generation-coded broadcast —
// the decoder-heavy end) and token-forwarding-pipelined (the
// bookkeeping-heavy end), both against t-interval-random[t=4], whose
// per-window rebuild exercises the topology_delta path every 4 rounds.
// k stays fixed at 64 so the curve isolates n.
//
// A dense section runs the paper's §5.1 code (rlnc-direct) on
// permuted-path at n = k in {128, 256, 384}, d = 16, b = k + 16, one token
// per node: each node's basis grows to k rows of k + d bits, so peak RSS
// tracks the Theta(k(k + d))-bit per-node coding state the ladder's fixed
// k never shows.
//
// Each cell runs in a child process of its own, one child at a time, and
// reports its rounds, seconds and its own VmHWM, so each row's peak_rss is
// that cell's high-water mark (plus the few MiB of bench process a forked
// child starts with), never an earlier cell's.  A seed whose run takes
// under a second runs twice more in the same child and reports the
// fastest of its three times, since one sub-second run on a shared host
// can read half again as long; the repeats must agree on the rounds.
// Longer runs are timed once.  Two gates ride along:
//   - sub-quadratic memory: the 16k -> 65k rung must grow peak RSS by
//     less than the 16x a quadratic per-node footprint would give;
//   - steady-state BFS allocates nothing: a warmed bfs_scratch must
//     report zero buffer growths across fresh same-size topologies.
//
// Writes BENCH_E20.json under NCDN_BENCH_JSON; bench_diff gates the
// rounds_per_sec and secs (wall-clock band) and peak_rss_bits (25% band)
// columns.
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>

#include "bench_util.hpp"
#include "core/sysinfo.hpp"
#include "dynnet/generators.hpp"
#include "dynnet/graph.hpp"

using namespace ncdn;
using namespace ncdn::bench;

namespace {

problem ladder_problem(std::size_t n) {
  problem prob;
  prob.n = n;
  prob.k = 64;
  prob.d = 8;
  prob.b = 64;
  prob.t_stability = 1;
  prob.place = placement::random_spread;
  return prob;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

problem dense_problem(std::size_t k) {
  problem prob;
  prob.n = k;
  prob.k = k;
  prob.d = 16;
  prob.b = k + 16;
  prob.t_stability = 1;
  prob.place = placement::one_per_node;
  return prob;
}

struct alg_row {
  const char* alg;
  param_map params;
};

struct cell_result {
  std::uint64_t rounds = 0;
  double best_secs = 0;
  std::size_t peak_rss = 0;
};

/// A seed's run under this many seconds is repeated (see the file header).
constexpr double repeat_below_secs = 1.0;
constexpr std::size_t short_run_repeats = 3;

/// Best of `trials` seeds of one cell, each seed repeated when short, in a
/// forked child so that its peak RSS is its own (a child's VmHWM starts at
/// its own resident set).
cell_result run_cell_in_child(const problem& prob, const alg_row& a,
                              const char* adv, std::size_t trials) {
  int fds[2];
  NCDN_ASSERT(pipe(fds) == 0);
  const pid_t pid = fork();
  NCDN_ASSERT(pid >= 0);
  if (pid == 0) {
    close(fds[0]);
    cell_result out;
    for (std::size_t trial = 0; trial < trials; ++trial) {
      std::size_t runs = 1;
      for (std::size_t run = 0; run < runs; ++run) {
        const auto t0 = std::chrono::steady_clock::now();
        const run_report rep =
            run_cell(prob, a.alg, adv, trial + 1, a.params);
        const double secs = seconds_since(t0);
        if (run == 0) {
          out.rounds = rep.rounds;
          if (secs < repeat_below_secs) runs = short_run_repeats;
        } else {
          NCDN_ASSERT(rep.rounds == out.rounds);
        }
        if (out.best_secs == 0 || secs < out.best_secs) out.best_secs = secs;
      }
    }
    out.peak_rss = peak_rss_bytes();
    const bool sent = write(fds[1], &out, sizeof out) == sizeof out;
    _exit(sent ? 0 : 1);
  }
  close(fds[1]);
  cell_result out;
  const bool got = read(fds[0], &out, sizeof out) == sizeof out;
  close(fds[0]);
  int status = 0;
  NCDN_ASSERT(waitpid(pid, &status, 0) == pid);
  NCDN_ASSERT(got && WIFEXITED(status) && WEXITSTATUS(status) == 0);
  return out;
}

/// A warmed scratch must absorb every later same-size traversal without
/// enlarging its buffers — the per-round contract the adversaries rely on.
void assert_bfs_steady_state(std::size_t n) {
  rng r(7);
  bfs_scratch scratch;
  {
    const graph warm = gen::random_connected(n, n / 8, r);
    NCDN_ASSERT(warm.is_connected(scratch));
    const std::vector<node_id> srcs = {0};
    warm.bfs_distances(srcs, scratch);
  }
  const std::size_t warmed = scratch.grows;
  for (int i = 0; i < 8; ++i) {
    const graph g = gen::random_connected(n, n / 8, r);
    NCDN_ASSERT(g.is_connected(scratch));
    const std::vector<node_id> srcs = {static_cast<node_id>(i)};
    g.bfs_distances(srcs, scratch);
    NCDN_ASSERT(scratch.grows == warmed);
  }
  std::printf("bfs steady state [n=%zu]: %zu grow(s) to warm, 0 after\n", n,
              warmed);
}

}  // namespace

int main() {
  print_experiment_header(
      "E20", "scale ladder — rounds/sec and peak RSS vs n under delta "
             "topologies and arena-pooled coded rows");
  json_recorder rec("E20");
  const double scale = scale_from_env();
  const std::size_t trials = trials_from_env(1);

  // NCDN_SCALE<1 trims the expensive top rungs for quick local runs; the
  // default ladder tops out at 65536 (the acceptance rung for rlnc-gen).
  std::vector<std::size_t> ladder = {256, 1024, 4096, 16384, 65536};
  if (scale < 1.0) {
    while (ladder.size() > 1 &&
           static_cast<double>(ladder.back()) > 4096.0 * scale * 4.0) {
      ladder.pop_back();
    }
  }

  const std::vector<alg_row> algs = {
      {"rlnc-gen",
       {{"gen_size", "16"}, {"band_overlap", "4"}, {"t", "4"}}},
      {"token-forwarding-pipelined", {{"t", "4"}}},
  };

  rec.config("trials", json::value{trials});
  rec.config("adversary", json::value{"t-interval-random[t=4]"});
  rec.config("k", json::value{std::size_t{64}});
  rec.config("max_n", json::value{ladder.back()});

  assert_bfs_steady_state(4096);

  std::printf("\nscale ladder [k=64 d=8 b=64, t-interval-random t=4, "
              "best of %zu seed(s), runs under 1 s x%zu]\n",
              trials, short_run_repeats);
  text_table t({"alg", "n", "rounds", "secs", "rounds/s", "peak_rss_mb"});

  // gen_rss[i] = rlnc-gen's own peak RSS at rung i.
  std::vector<double> gen_rss;
  for (const std::size_t n : ladder) {
    for (const alg_row& a : algs) {
      const cell_result cell =
          run_cell_in_child(ladder_problem(n), a, "t-interval-random", trials);
      const double rps = static_cast<double>(cell.rounds) / cell.best_secs;
      const double rss_bytes = static_cast<double>(cell.peak_rss);
      if (std::string(a.alg) == "rlnc-gen") gen_rss.push_back(rss_bytes);
      t.add_row({a.alg, text_table::num(n), text_table::num(cell.rounds),
                 text_table::num(cell.best_secs), text_table::num(rps),
                 text_table::num(rss_bytes / (1024.0 * 1024.0))});
      rec.row("ladder",
              {{"alg", json::value{a.alg}},
               {"n", json::value{std::to_string(n)}},
               {"rounds", json::value{cell.rounds}},
               {"secs", json::value{cell.best_secs}},
               {"rounds_per_sec", json::value{rps}},
               {"peak_rss_bits", json::value{rss_bytes * 8.0}}});
    }
  }
  t.print();

  // The memory acceptance gate: a quadratic per-node footprint would grow
  // the top 4x-n rung by 16x; the pooled representation must stay
  // well under that.
  if (gen_rss.size() >= 2) {
    const double ratio = gen_rss.back() / gen_rss[gen_rss.size() - 2];
    rec.config("top_rung_rss_ratio", json::value{ratio});
    std::printf("top rung peak-RSS growth: %.2fx for 4x n (quadratic would "
                "be 16x)\n",
                ratio);
    NCDN_ASSERT(ratio < 16.0);
  }

  std::printf("\ndense [rlnc-direct on permuted-path, n = k, d=16 b=k+16, "
              "one token per node, best of %zu seed(s), runs under 1 s "
              "x%zu]\n",
              trials, short_run_repeats);
  text_table dt({"n=k", "rounds", "secs", "peak_rss_mb"});
  const alg_row dense = {"rlnc-direct", {}};
  for (const std::size_t k : {128u, 256u, 384u}) {
    const cell_result cell =
        run_cell_in_child(dense_problem(k), dense, "permuted-path", trials);
    const double rss_bytes = static_cast<double>(cell.peak_rss);
    dt.add_row({text_table::num(k), text_table::num(cell.rounds),
                text_table::num(cell.best_secs),
                text_table::num(rss_bytes / (1024.0 * 1024.0))});
    rec.row("dense", {{"alg", json::value{dense.alg}},
                      {"n", json::value{std::to_string(k)}},
                      {"rounds", json::value{cell.rounds}},
                      {"secs", json::value{cell.best_secs}},
                      {"peak_rss_bits", json::value{rss_bytes * 8.0}}});
  }
  dt.print();

  std::printf(
      "Reading: rounds/sec decays roughly linearly in n (per-round work is\n"
      "O(edges + coded-row inserts) and the graph stays sparse), while\n"
      "peak RSS grows sub-quadratically because coded rows are recycled\n"
      "through the session arena and flood-agreement masks stay lazy.  The\n"
      "dense rows grow with k(k + d): every node's basis ends at k rows.\n");
  return 0;
}
