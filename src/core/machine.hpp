// The round-driven protocol execution API.
//
// The paper's algorithms are round-synchronous (§4.1): they advance in
// discrete communication rounds against an adaptive adversary.  A
// `protocol_machine` exposes exactly that shape to the caller — the session
// drives it one round at a time, on the caller's thread:
//
//   machine->begin(env);
//   while (machine->advance(env) == round_plan::again) { /* inspect */ }
//   protocol_result res = machine->finish();
//
// Protocols are *written* as resumable coroutines (`round_task<T>`): the
// algorithm body reads as the same sequential code as the old free-running
// loops, with `co_await next_round;` marking every round boundary.  The
// compiler turns each body into a heap-allocated state machine, so
// inverting control costs no rendezvous thread, no locks, and — crucially —
// does not perturb a single RNG draw: the port is the identical statement
// sequence, suspended between rounds instead of blocking.
//
// Sub-phases compose: a machine may `co_await` another round_task (the
// gather primitive, a coded-broadcast session, a whole greedy-forward
// phase); the inner task inherits the outer scheduler, its round
// boundaries surface to the driver via symmetric transfer, and its return
// value lands at the await expression, exactly like the old call.
#pragma once

#include <coroutine>
#include <exception>
#include <memory>
#include <optional>
#include <type_traits>
#include <utility>

#include "protocols/common.hpp"

namespace ncdn {

struct problem;  // core/dissemination.hpp

/// What a protocol driver runs against: the instance, the initial token
/// placement, the round engine, and the shared token-knowledge state.
struct session_env {
  const problem& prob;
  const token_distribution& dist;
  network& net;
  token_state& state;
  /// The session's round-scoped row pool; never null in a session.
  /// Coding protocols hand it to their rlnc_session.  It stays a pointer
  /// because `bench/ncdn_bench` passes it to `rlnc_session::set_arena`.
  word_arena* arena = nullptr;
};

/// What `advance()` reports: `again` while the protocol has more rounds to
/// run, `done` once it has terminated and `finish()` may be called.
enum class round_plan { again, done };

/// A constructed, parameterized protocol, executed one communication round
/// per `advance()` call on the caller's thread.  No call spawns a thread.
class protocol_machine {
 public:
  virtual ~protocol_machine() = default;

  /// Binds the machine to its environment.  The env object must outlive
  /// the machine (the session owns both).  Runs no rounds.
  virtual void begin(session_env& env) = 0;

  /// Runs at most one communication round (a silent waiting round counts).
  /// The terminal call — the one that observes the protocol's own
  /// termination — runs no round and returns `done`.
  virtual round_plan advance(session_env& env) = 0;

  /// The protocol's result record; call exactly once, after `advance`
  /// returned `done`.
  virtual protocol_result finish() = 0;
};

/// Awaitable tag: `co_await next_round;` parks the machine at a round
/// boundary and returns control to whoever called `advance()`.
struct next_round_t {};
inline constexpr next_round_t next_round{};

template <class T>
class round_task;

namespace detail {

/// Shared per-drive state: the leaf coroutine parked at the most recent
/// round boundary, i.e. where the next `advance()` must resume.
struct machine_scheduler {
  std::coroutine_handle<> parked{};
};

struct round_promise_base {
  machine_scheduler* sched = nullptr;
  std::coroutine_handle<> continuation{};
  std::exception_ptr error{};

  std::suspend_always initial_suspend() noexcept { return {}; }

  // On completion, transfer straight back to the awaiting parent (or stop
  // at the top level); the task object owns the frame, so stay suspended.
  struct final_awaiter {
    bool await_ready() noexcept { return false; }
    template <class P>
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<P> h) noexcept {
      const std::coroutine_handle<> cont = h.promise().continuation;
      return cont ? cont : std::noop_coroutine();
    }
    void await_resume() noexcept {}
  };
  final_awaiter final_suspend() noexcept { return {}; }

  void unhandled_exception() { error = std::current_exception(); }

  // co_await next_round: park this leaf with the scheduler and return to
  // the resumer (the driver's advance()).
  struct round_awaiter {
    round_promise_base* promise;
    bool await_ready() noexcept { return false; }
    void await_suspend(std::coroutine_handle<> h) noexcept {
      NCDN_ASSERT(promise->sched != nullptr);
      promise->sched->parked = h;
    }
    void await_resume() noexcept {}
  };
  round_awaiter await_transform(next_round_t) noexcept { return {this}; }

  // co_await round_task<U>: adopt the child, propagate the scheduler, and
  // start it by symmetric transfer.  Declared here, defined after
  // round_task (it needs the complete type).
  template <class U>
  auto await_transform(round_task<U> inner) noexcept;
};

template <class T>
struct round_promise final : round_promise_base {
  std::optional<T> value;
  round_task<T> get_return_object() noexcept;
  void return_value(T v) { value.emplace(std::move(v)); }
};

template <>
struct round_promise<void> final : round_promise_base {
  round_task<void> get_return_object() noexcept;
  void return_void() noexcept {}
};

}  // namespace detail

/// A lazily-started protocol coroutine yielding control at every round
/// boundary; T is its result type.  Owned RAII-style — destroying the task
/// destroys the frame (and, transitively, any awaited child frames), which
/// is how an abandoned mid-run session unwinds without a cancellation
/// protocol.
template <class T>
class [[nodiscard]] round_task {
 public:
  using promise_type = detail::round_promise<T>;
  using handle_type = std::coroutine_handle<promise_type>;

  round_task() = default;
  explicit round_task(handle_type h) noexcept : h_(h) {}
  round_task(round_task&& other) noexcept : h_(std::exchange(other.h_, {})) {}
  round_task& operator=(round_task&& other) noexcept {
    if (this != &other) {
      reset();
      h_ = std::exchange(other.h_, {});
    }
    return *this;
  }
  round_task(const round_task&) = delete;
  round_task& operator=(const round_task&) = delete;
  ~round_task() { reset(); }

  explicit operator bool() const noexcept { return h_ != nullptr; }
  handle_type handle() const noexcept { return h_; }

 private:
  void reset() noexcept {
    if (h_) {
      h_.destroy();
      h_ = {};
    }
  }

  handle_type h_{};
};

namespace detail {

template <class T>
round_task<T> round_promise<T>::get_return_object() noexcept {
  return round_task<T>(
      std::coroutine_handle<round_promise<T>>::from_promise(*this));
}

inline round_task<void> round_promise<void>::get_return_object() noexcept {
  return round_task<void>(
      std::coroutine_handle<round_promise<void>>::from_promise(*this));
}

template <class U>
auto round_promise_base::await_transform(round_task<U> inner) noexcept {
  struct task_awaiter {
    round_promise_base* parent;
    round_task<U> task;  // keeps the child frame alive across the await

    bool await_ready() noexcept { return false; }
    std::coroutine_handle<> await_suspend(
        std::coroutine_handle<> awaiting) noexcept {
      const auto child = task.handle();
      NCDN_ASSERT(child && !child.done());
      child.promise().sched = parent->sched;
      child.promise().continuation = awaiting;
      return child;
    }
    U await_resume() {
      auto& p = task.handle().promise();
      if (p.error) std::rethrow_exception(p.error);
      if constexpr (!std::is_void_v<U>) return std::move(*p.value);
    }
  };
  return task_awaiter{this, std::move(inner)};
}

/// Resumes the drive once: the initial entry, or the leaf parked at the
/// last round boundary.  Returns true while the task has more rounds.
template <class T>
bool resume_once(round_task<T>& task, machine_scheduler& sched,
                 bool& started) {
  const auto h = task.handle();
  NCDN_EXPECTS(h && !h.done());
  const std::coroutine_handle<> next =
      started ? sched.parked : std::coroutine_handle<>(h);
  NCDN_ASSERT(next);
  started = true;
  sched.parked = {};
  next.resume();
  if (h.done()) {
    if (h.promise().error) std::rethrow_exception(h.promise().error);
    return false;
  }
  NCDN_ASSERT(sched.parked);  // a round ran and some leaf parked
  return true;
}

}  // namespace detail

/// Waits `rounds` silent rounds, one per round boundary, so a stepping
/// driver still observes every waiting round individually.  Draw-for-draw
/// and digest-for-digest identical to `net.silent_rounds(rounds)`.
inline round_task<void> silent_wait(network& net, round_t rounds) {
  for (round_t i = 0; i < rounds; ++i) {
    net.silent_rounds(1);
    co_await next_round;
  }
}

/// Drives a round task to completion on the calling thread and returns its
/// result.  This is how tests, benches and examples run a protocol machine
/// or a coded-broadcast sub-phase without a session, e.g.
/// `run_rounds(greedy_forward_machine(net, st, cfg))` or
/// `run_rounds(coding.run_stepped(net, cap, /*stop_early=*/true))`.
template <class T>
T run_rounds(round_task<T> task) {
  detail::machine_scheduler sched;
  task.handle().promise().sched = &sched;
  bool started = false;
  while (detail::resume_once(task, sched, started)) {
  }
  if constexpr (!std::is_void_v<T>) {
    return std::move(*task.handle().promise().value);
  }
}

namespace detail {

/// protocol_machine over a coroutine factory `session_env& -> round_task<R>`
/// with R convertible to protocol_result (derived results slice, exactly
/// like the old std::function<protocol_result(session_env&)> drivers did).
template <class Fn>
class task_machine final : public protocol_machine {
  using task_type = std::invoke_result_t<Fn&, session_env&>;

 public:
  explicit task_machine(Fn fn) : fn_(std::move(fn)) {}

  void begin(session_env& env) override {
    NCDN_EXPECTS(!task_);  // begin() is called exactly once
    task_ = fn_(env);
    task_.handle().promise().sched = &sched_;
  }

  round_plan advance(session_env&) override {
    NCDN_EXPECTS(task_);  // begin() first
    return resume_once(task_, sched_, started_) ? round_plan::again
                                                : round_plan::done;
  }

  protocol_result finish() override {
    const auto h = task_.handle();
    NCDN_EXPECTS(h && h.done());
    return std::move(*h.promise().value);
  }

 private:
  Fn fn_;
  task_type task_{};
  machine_scheduler sched_;
  bool started_ = false;
};

}  // namespace detail

/// Wraps a coroutine factory `session_env& -> round_task<R>` as a
/// round-steppable protocol_machine — the registration path; see the
/// registry header for a worked example.
template <class Fn>
std::unique_ptr<protocol_machine> make_protocol_machine(Fn fn) {
  return std::make_unique<detail::task_machine<Fn>>(std::move(fn));
}

}  // namespace ncdn
