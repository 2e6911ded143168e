#include "core/batch.hpp"

namespace ncdn {

std::size_t session_batch::add(std::unique_ptr<session> s) {
  NCDN_EXPECTS(s != nullptr);
  const std::size_t index = sessions_.size();
  if (!s->finished()) live_.push_back(index);
  sessions_.push_back(std::move(s));
  return index;
}

session& session_batch::at(std::size_t index) {
  NCDN_EXPECTS(index < sessions_.size());
  return *sessions_[index];
}

const session& session_batch::at(std::size_t index) const {
  NCDN_EXPECTS(index < sessions_.size());
  return *sessions_[index];
}

std::size_t session_batch::step_all() {
  // Compact in place: a session that finishes this pass leaves the live
  // list, so a batch of mostly-finished sessions costs only the survivors.
  std::size_t kept = 0;
  std::size_t i = 0;
  try {
    for (; i < live_.size(); ++i) {
      if (sessions_[live_[i]]->step()) live_[kept++] = live_[i];
    }
  } catch (...) {
    // The thrower is dead (finished + failed); keep the not-yet-stepped
    // tail live so a caller that catches can drive the rest to completion.
    for (++i; i < live_.size(); ++i) live_[kept++] = live_[i];
    live_.resize(kept);
    throw;
  }
  live_.resize(kept);
  // Compaction invariant: everything still on the live list can be
  // stepped again, and nothing off it ever is (a finished session's
  // report must not change).
  NCDN_AUDIT(audit_live_list());
  return kept;
}

bool session_batch::audit_live_list() const {
  for (std::size_t index : live_) {
    if (index >= sessions_.size()) return false;
    if (sessions_[index]->finished()) return false;
  }
  return true;
}

void session_batch::run_all() {
  while (step_all() != 0) {
  }
}

}  // namespace ncdn
