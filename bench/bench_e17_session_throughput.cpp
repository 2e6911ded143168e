// E17 — session stepping throughput: thread-free machines vs the old
// thread-per-step rendezvous design.
//
// Before the protocol_machine redesign, session::step() parked the
// free-running protocol loop on a private rendezvous thread: every stepped
// round cost two context switches, and N concurrently-stepped sessions
// cost N kernel threads.  Machines invert the loop, so stepping is an
// inline resume on the caller's thread and a single thread can interleave
// hundreds of live sessions by calling step() on each in turn.
//
// This bench steps the same N-cell workload four ways —
//   inline       run_to_completion per session (upper bound, no stepping)
//   stepped      while (s.step()) per session, thread-free machines
//   batch        N live sessions stepped round-robin on one thread
//   rendezvous   a faithful re-enactment of the deleted thread-per-step
//                design (observer-parked worker thread + cv handshake),
//                stepped round-robin the same way
// — and reports sessions/sec and stepped rounds/sec.  It asserts that the
// three thread-free modes produce bit-identical reports, and (at full
// scale) that round-robin stepping beats the rendezvous baseline.
//
// Writes BENCH_E17.json under NCDN_BENCH_JSON.
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench_util.hpp"

using namespace ncdn;
using namespace ncdn::bench;

namespace {

problem bench_problem() {
  problem prob;
  prob.n = 16;
  prob.k = 16;
  prob.d = 8;
  prob.b = 32;
  return prob;
}

std::unique_ptr<session> make_cell(const problem& prob, std::uint64_t seed) {
  return std::make_unique<session>(prob, protocol_spec{"rlnc-direct", {}},
                                   adversary_spec{"permuted-path", {}}, seed);
}

/// The deleted design, re-enacted for comparison: the session runs
/// free-running on a worker thread whose observer parks at every round
/// boundary; step() is a strict cv hand-off, so each round costs two
/// context switches — and each live session costs a kernel thread.
class rendezvous_session {
 public:
  rendezvous_session(const problem& prob, std::uint64_t seed)
      : s_(make_cell(prob, seed)) {
    s_->set_observer([this](const round_metrics&) {
      std::unique_lock lk(mu_);
      round_ready_ = true;
      protocol_turn_ = false;
      cv_.notify_all();
      cv_.wait(lk, [&] { return protocol_turn_; });
    });
    worker_ = std::thread([this] {
      {
        std::unique_lock lk(mu_);
        cv_.wait(lk, [&] { return protocol_turn_; });
      }
      s_->run_to_completion();
      std::lock_guard lk(mu_);
      done_ = true;
      protocol_turn_ = false;
      cv_.notify_all();
    });
  }

  ~rendezvous_session() {
    while (step()) {
    }
    worker_.join();
  }

  bool step() {
    std::unique_lock lk(mu_);
    if (done_) return false;
    round_ready_ = false;
    protocol_turn_ = true;
    cv_.notify_all();
    cv_.wait(lk, [&] { return round_ready_ || done_; });
    return !done_;
  }

  const run_report& report() const { return s_->report(); }

 private:
  std::unique_ptr<session> s_;
  std::thread worker_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool protocol_turn_ = false;
  bool round_ready_ = false;
  bool done_ = false;
};

void expect_same(const run_report& a, const run_report& b) {
  NCDN_ASSERT(a.rounds == b.rounds);
  NCDN_ASSERT(a.completion_round == b.completion_round);
  NCDN_ASSERT(a.complete == b.complete);
  NCDN_ASSERT(a.metrics.total_message_bits == b.metrics.total_message_bits);
  NCDN_ASSERT(a.metrics.observed_completion_round ==
              b.metrics.observed_completion_round);
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main() {
  print_experiment_header(
      "E17", "session stepping throughput — thread-free machines + "
             "round-robin stepping vs the old thread-per-step rendezvous");
  json_recorder rec("E17");
  const double scale = scale_from_env();
  const std::size_t trials = trials_from_env(3);
  const std::size_t cells =
      std::max<std::size_t>(8, static_cast<std::size_t>(64 * scale));
  const problem prob = bench_problem();

  rec.config("cells", json::value{cells});
  rec.config("trials", json::value{trials});
  rec.config("algorithm", json::value{"rlnc-direct"});
  rec.config("adversary", json::value{"permuted-path"});
  rec.config("n", json::value{prob.n});
  rec.config("k", json::value{prob.k});

  // Reference reports (inline mode) for the bit-equality assertions, and
  // the total round count every stepped mode must reproduce.
  std::vector<run_report> reference;
  std::uint64_t total_rounds = 0;
  for (std::uint64_t seed = 1; seed <= cells; ++seed) {
    reference.push_back(make_cell(prob, seed)->run_to_completion());
    total_rounds += reference.back().rounds;
  }

  struct mode_out {
    double secs = 0;
    double sessions_per_sec = 0;
    double rounds_per_sec = 0;
  };
  auto measure = [&](auto&& body) {
    mode_out out;
    double best = 0;
    for (std::size_t t = 0; t < trials; ++t) {
      const auto t0 = std::chrono::steady_clock::now();
      body();
      const double secs = seconds_since(t0);
      if (best == 0 || secs < best) best = secs;
    }
    out.secs = best;
    out.sessions_per_sec = static_cast<double>(cells) / best;
    out.rounds_per_sec = static_cast<double>(total_rounds) / best;
    return out;
  };

  const mode_out inline_mode = measure([&] {
    for (std::uint64_t seed = 1; seed <= cells; ++seed) {
      expect_same(make_cell(prob, seed)->run_to_completion(),
                  reference[seed - 1]);
    }
  });

  const mode_out stepped_mode = measure([&] {
    for (std::uint64_t seed = 1; seed <= cells; ++seed) {
      const auto s = make_cell(prob, seed);
      while (s->step()) {
      }
      expect_same(s->report(), reference[seed - 1]);
    }
  });

  // N live cells stepped round-robin on the calling thread, one round
  // each per pass.
  const mode_out batch_mode = measure([&] {
    std::vector<std::unique_ptr<session>> live;
    for (std::uint64_t seed = 1; seed <= cells; ++seed) {
      live.push_back(make_cell(prob, seed));
    }
    bool any = true;
    while (any) {
      any = false;
      for (auto& s : live) any = s->step() || any;
    }
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(live[i]->report(), reference[i]);
    }
  });

  // The baseline interleaves the same way the batch mode does — N live
  // cells stepped round-robin — but pays a kernel thread and a cv
  // handshake per cell, exactly like the pre-machine session did.
  const mode_out rendezvous_mode = measure([&] {
    std::vector<std::unique_ptr<rendezvous_session>> live;
    for (std::uint64_t seed = 1; seed <= cells; ++seed) {
      live.push_back(std::make_unique<rendezvous_session>(prob, seed));
    }
    bool any = true;
    while (any) {
      any = false;
      for (auto& rs : live) any = rs->step() || any;
    }
    for (std::size_t i = 0; i < cells; ++i) {
      expect_same(live[i]->report(), reference[i]);
    }
  });

  std::printf("\nstepping throughput [%zu cells of rlnc-direct/permuted-path "
              "n=%zu k=%zu, best of %zu]\n",
              cells, prob.n, prob.k, trials);
  text_table t({"mode", "threads", "secs", "sessions/s", "rounds/s"});
  struct row {
    const char* mode;
    const char* threads;
    const mode_out* out;
  };
  for (const row& r :
       {row{"inline", "1", &inline_mode}, row{"stepped", "1", &stepped_mode},
        row{"batch", "1", &batch_mode},
        row{"rendezvous (old)", "1+N", &rendezvous_mode}}) {
    t.add_row({r.mode, r.threads, text_table::num(r.out->secs),
               text_table::num(r.out->sessions_per_sec),
               text_table::num(r.out->rounds_per_sec)});
    rec.row("modes", {{"mode", json::value{r.mode}},
                      {"secs", json::value{r.out->secs}},
                      {"sessions_per_sec",
                       json::value{r.out->sessions_per_sec}},
                      {"rounds_per_sec", json::value{r.out->rounds_per_sec}}});
  }
  t.print();
  rec.config("batch_vs_rendezvous_speedup",
             json::value{batch_mode.sessions_per_sec /
                         rendezvous_mode.sessions_per_sec});

  if (scale >= 1.0) {
    // The acceptance gate: in-thread round-robin stepping must beat the old
    // thread-per-step design (it typically does by an order of magnitude —
    // two context switches per round against one inline resume).
    NCDN_ASSERT(batch_mode.sessions_per_sec >
                rendezvous_mode.sessions_per_sec);
    NCDN_ASSERT(stepped_mode.sessions_per_sec >
                rendezvous_mode.sessions_per_sec);
  }

  std::printf(
      "Reading: stepping a machine is an inline coroutine resume, so the\n"
      "stepped and batch modes track the no-observer inline run, while\n"
      "the re-enacted rendezvous baseline pays two context switches per\n"
      "round and one kernel thread per live cell.\n");
  return 0;
}
