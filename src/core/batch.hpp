// In-thread session batching: N independent simulations interleaved
// round-robin on one thread.
//
// Because session::step() is a plain inline call into a round-driven
// protocol_machine (no rendezvous thread, no locks), a single thread can
// hold hundreds of live sessions and advance them one round each in turn:
//
//   ncdn::session_batch batch;
//   for (std::uint64_t seed = 1; seed <= 256; ++seed) {
//     batch.add(std::make_unique<ncdn::session>(
//         prob, ncdn::protocol_spec{"rlnc-direct", {}},
//         ncdn::adversary_spec{"permuted-path", {}}, seed));
//   }
//   batch.run_all();                       // or step_all() in a loop
//   const ncdn::run_report& rep = batch.at(7).report();
//
// Every session owns its own RNG streams, adversary, and machine, so the
// interleaving order cannot perturb any run: reports are bit-identical to
// running the same sessions sequentially (asserted in tests).  This is the
// building block the sweep engine uses to run threads x batch cells
// cooperatively instead of one cell per worker pop.
#pragma once

#include <memory>
#include <vector>

#include "core/session.hpp"

namespace ncdn {

class session_batch {
 public:
  session_batch() = default;

  session_batch(const session_batch&) = delete;
  session_batch& operator=(const session_batch&) = delete;

  /// Adopts a constructed session; returns its index.
  std::size_t add(std::unique_ptr<session> s);

  std::size_t size() const noexcept { return sessions_.size(); }
  bool all_finished() const noexcept { return live_.empty(); }
  /// Sessions still mid-run.
  std::size_t live() const noexcept { return live_.size(); }

  session& at(std::size_t index);
  const session& at(std::size_t index) const;

  /// One interleaving pass: step() every live session exactly one round,
  /// in index order.  Returns the number of sessions still live.
  std::size_t step_all();

  /// Round-robin to completion: step_all() until every session finished.
  void run_all();

 private:
  /// Audit-build check that the live list holds exactly steppable
  /// sessions (in-bounds, none finished).
  bool audit_live_list() const;

  std::vector<std::unique_ptr<session>> sessions_;
  std::vector<std::size_t> live_;  // indices of unfinished sessions, sorted
};

}  // namespace ncdn
