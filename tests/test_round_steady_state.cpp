// Steady-state allocation contract of the round engine's message path: the
// network keeps one message slot per node for each message type, with the
// inbox and the speaker mask as members, and token forwarding sends rank
// masks that its slots keep.  So after a warm-up, a reliable-path round
// allocates nothing: neither a network::step of a message that carries a
// vector nor a round of token forwarding, pipelined or batched.  This binary
// replaces the global operator new with a counting one and reads the
// counter around the measured rounds only.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <vector>

#include "core/dissemination.hpp"
#include "core/machine.hpp"
#include "dynnet/adversary.hpp"
#include "dynnet/network.hpp"
#include "protocols/flooding.hpp"

namespace {

std::atomic<std::uint64_t> allocations{0};

// Out of line, so a caller that inlines the replaced operators does not
// see a malloc/free pair behind a new/delete pair (GCC's
// -Wmismatched-new-delete).
[[gnu::noinline]] void* acquire(std::size_t size) {
  allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
[[gnu::noinline]] void release(void* p) noexcept { std::free(p); }

}  // namespace

void* operator new(std::size_t size) { return acquire(size); }
void operator delete(void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }

namespace ncdn {
namespace {

constexpr std::size_t warmup_rounds = 100;
constexpr std::size_t measured_rounds = 200;

// Audit builds check each committed topology with a BFS, which allocates
// every round by design.
#ifdef NCDN_AUDIT_ENABLED
constexpr bool audit_build = true;
#else
constexpr bool audit_build = false;
#endif

std::uint64_t allocations_now() {
  return allocations.load(std::memory_order_relaxed);
}

struct words_msg {
  std::vector<std::uint64_t> words;
  std::size_t bit_size() const noexcept { return 64 * words.size(); }
};

TEST(round_steady_state, a_step_of_a_vector_message_allocates_nothing) {
  if (audit_build) GTEST_SKIP() << "audit oracles allocate every round";
  const std::size_t n = 64;
  auto adv = make_static_path(n);
  network net(n, 512, *adv, 1);
  opaque_view view(n);
  std::uint64_t sum = 0;
  auto round = [&](std::size_t r) {
    net.step<words_msg>(
        view,
        [r](node_id u, rng& g, words_msg& m) {
          if ((u + r) % 3 == 0) return false;  // a third stays silent
          m.words.assign(1 + (u + r) % 4, g());
          return true;
        },
        [&](node_id, const std::vector<const words_msg*>& inbox) {
          for (const words_msg* m : inbox) sum += m->words.back();
        });
  };
  for (std::size_t r = 0; r < warmup_rounds; ++r) round(r);
  const std::uint64_t before = allocations_now();
  for (std::size_t r = 0; r < measured_rounds; ++r) round(r);
  EXPECT_EQ(allocations_now() - before, 0u);
  EXPECT_NE(sum, 0u);
}

// Advances a token-forwarding machine on static-path through the warm-up,
// then returns the allocations of the measured rounds.
std::uint64_t forwarding_round_allocations(bool pipelined) {
  problem prob;
  prob.n = 64;
  prob.k = 64;
  prob.d = 8;
  prob.b = 8;  // one token per message: well over 300 rounds either way
  rng r(7);
  const token_distribution dist =
      make_distribution(prob.n, prob.k, prob.d, placement::one_per_node, r);
  auto adv = make_static_path(prob.n);
  network net(prob.n, prob.b, *adv, 3);
  token_state st(dist);
  flooding_config cfg;
  cfg.b_bits = prob.b;
  cfg.pipelined = pipelined;
  auto machine = make_protocol_machine([cfg](session_env& env) {
    return flooding_machine(env.net, env.state, cfg);
  });
  session_env env{prob, dist, net, st, nullptr};
  machine->begin(env);
  for (std::size_t i = 0; i < warmup_rounds; ++i) {
    EXPECT_EQ(machine->advance(env), round_plan::again);
  }
  const std::uint64_t before = allocations_now();
  for (std::size_t i = 0; i < measured_rounds; ++i) {
    EXPECT_EQ(machine->advance(env), round_plan::again);
  }
  const std::uint64_t made = allocations_now() - before;
  EXPECT_EQ(net.rounds_elapsed(), warmup_rounds + measured_rounds);
  return made;
}

// The measured batched rounds cross three phase boundaries (phases are
// n = 64 rounds), whose finalization reuses its masks too.
TEST(round_steady_state, token_forwarding_rounds_allocate_nothing) {
  if (audit_build) GTEST_SKIP() << "audit oracles allocate every round";
  EXPECT_EQ(forwarding_round_allocations(/*pipelined=*/true), 0u);
  EXPECT_EQ(forwarding_round_allocations(/*pipelined=*/false), 0u);
}

}  // namespace
}  // namespace ncdn
