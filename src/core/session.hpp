// The steppable session: the public entry point for running a registered
// protocol against a registered adversary.
//
//   ncdn::session s(prob, {"rlnc-direct"}, {"permuted-path"}, /*seed=*/1);
//   s.set_observer([](const ncdn::round_metrics& m) {
//     std::printf("round %llu: min knowledge %zu\n",
//                 (unsigned long long)m.round, m.min_knowledge);
//   });
//   while (s.step()) { /* inspect s.state(), s.metrics(), ... */ }
//   const ncdn::run_report& rep = s.report();
//
// A session owns the whole instance — token distribution, adversary (from
// the adversary registry), round engine, shared token state, and the
// parameterized protocol machine (from the protocol registry).  The
// machine is round-driven (core/machine.hpp): step() advances it exactly
// one communication round *on the calling thread* — no rendezvous thread,
// no locks — and run_to_completion() is nothing but step() in a loop, so
// the two modes are the same execution, bit for bit.  That makes sessions
// cheap enough to interleave by the hundreds on one thread (call step() on
// each live session in turn) and to fan out across a sweep pool without
// costing a kernel thread per stepped cell.
//
// Both modes feed the same `round_metrics` stream: the network's round
// hook hands the session each round's traffic record and view, and the
// session adds the view's readings, calls the observer, and folds the
// record into `session_metrics`, which centrally subsumes the protocols'
// hand-rolled observer-measured completion tracking.
#pragma once

#include <map>
#include <optional>

#include "content/content.hpp"
#include "core/arena.hpp"
#include "core/registry.hpp"
#include "linkmodel/linkmodel.hpp"

namespace ncdn {

class session {
 public:
  /// Builds the full instance.  The two specs' params form one namespace:
  /// a key may sit in either map, or in both with the same value (differing
  /// values are rejected), and it reaches every factory that reads it.
  /// Problem-level keys (n, k, d, b, t_stability, slack, placement)
  /// override `prob` first, and the remaining keys parameterize the
  /// adversary and protocol factories.
  /// Throws std::invalid_argument on unknown names, on a key no factory
  /// reads, on malformed or conflicting params, or on an infeasible problem.
  session(const problem& prob, protocol_spec proto, adversary_spec adv,
          std::uint64_t seed);
  /// Same, with a per-edge channel (src/linkmodel) between the adversary's
  /// topology and the protocol.  An empty link spec is the reliable
  /// default; a non-empty one requires a loss-tolerant protocol (the
  /// session rejects the pairing with std::invalid_argument otherwise —
  /// delayed or erased deliveries would trip flood-agreement contracts
  /// mid-run).
  session(const problem& prob, protocol_spec proto, adversary_spec adv,
          link_spec link, std::uint64_t seed);
  /// Same, plus a versioned-content workload (src/content).  A non-empty
  /// content spec swaps the one-shot protocol run for the multi-epoch
  /// patch-dissemination driver, which re-seeds the protocol's coding
  /// backend per epoch — so the protocol must expose a coded-backend plan
  /// (the rlnc-* family); anything else is rejected with
  /// std::invalid_argument.
  session(const problem& prob, protocol_spec proto, adversary_spec adv,
          link_spec link, content_spec content, std::uint64_t seed);
  ~session() = default;

  session(const session&) = delete;
  session& operator=(const session&) = delete;

  using observer_fn = std::function<void(const round_metrics&)>;

  /// Installs a per-round observer (call before the first step/run).  The
  /// snapshot is valid only during the call; copy what you keep.
  void set_observer(observer_fn obs);

  /// Advances exactly one communication round (a silent waiting round
  /// counts), inline on the calling thread.  Returns false once the
  /// protocol has terminated — the final call that observes termination
  /// itself returns false, and every call after completion (including
  /// after run_to_completion()) returns false without touching any state.
  bool step();

  /// Runs the protocol to termination and returns the report.  Composes
  /// with step(): finishes whatever rounds remain.
  const run_report& run_to_completion();

  bool finished() const noexcept { return finished_; }
  /// True when the machine threw mid-run: the session is finished (dead)
  /// but produced no report.
  bool failed() const noexcept { return failed_; }
  /// The run record; only valid once finished() is true and failed() is
  /// false.
  const run_report& report() const;

  /// Session-observed aggregates (valid mid-run; final after completion).
  const session_metrics& metrics() const noexcept { return metrics_; }

  round_t rounds_elapsed() const noexcept { return net_->rounds_elapsed(); }
  /// The session row pool (see core/arena.hpp).  Exposed so tests can
  /// assert cross-epoch row recycling.
  const word_arena& arena() const noexcept { return arena_; }
  /// The expanded content schedule, or null for one-shot sessions.
  const content_schedule* schedule() const noexcept { return schedule_.get(); }
  const problem& prob() const noexcept { return prob_; }
  const token_distribution& distribution() const noexcept { return dist_; }
  const token_state& state() const noexcept { return *state_; }
  network& net() noexcept { return *net_; }

 private:
  // The round hook's target: one round into scratch_ and metrics_.
  void collect(const round_traffic& traffic, const knowledge_view* view);
  void finish(protocol_result res);  // builds report_

  // Audit-build invariant (see core/contracts.hpp): the final report
  // conserves the traffic aggregates and bounds its completion round.
  // (collect() audits knowledge monotonicity within each view.)
  bool audit_final_consistency() const;

  problem prob_;
  protocol_spec proto_spec_;
  adversary_spec adv_spec_;
  link_spec link_spec_;
  content_spec content_spec_;
  std::uint64_t seed_ = 0;

  word_arena arena_;  // round-scoped row pool (see core/arena.hpp)

  token_distribution dist_;
  // Versioned-content state (null / inactive for one-shot sessions).  The
  // driver coroutine writes the per-epoch record into content_ as it runs;
  // finish() folds it into metrics_.
  std::shared_ptr<const content_schedule> schedule_;
  content_metrics content_;
  std::unique_ptr<adversary> adv_;
  std::unique_ptr<network> net_;
  std::unique_ptr<token_state> state_;
  std::unique_ptr<protocol_machine> machine_;
  // The machine's environment; a stable object because the machine keeps a
  // reference to it across suspensions.
  std::optional<session_env> env_;
  bool begun_ = false;  // machine_->begin() has run

  observer_fn observer_;
  // The observer's snapshot; its knowledge is the last stepped round's,
  // which the monotonicity audit and finish() read.
  round_metrics scratch_;
  std::uint64_t last_view_id_ = 0;  // last stepped view; 0 = none yet
  // Each view's last cumulative readings, for the per-round
  // elimination_xors and newly_decodable deltas.  A protocol may step
  // other views between two rounds of one coding view (the patch session
  // builds each window's patches under its own), so the delta is against
  // that view's own last reading.  Keyed by view_id, not address, so a
  // phase's fresh view reusing a freed view's storage cannot inherit its
  // readings.  Only views that report work or delays enter.
  struct view_readings {
    std::uint64_t work = 0;             // coding_work()
    std::vector<std::uint64_t> delays;  // decode_delays() histogram
  };
  std::map<std::uint64_t, view_readings> readings_;
  session_metrics metrics_;
  run_report report_;
  bool finished_ = false;
  bool failed_ = false;  // the machine threw; report_ was never built
};

}  // namespace ncdn
