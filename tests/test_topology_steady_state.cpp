// Steady-state allocation contract of the dynnet topology layer: every
// adversary rebuilds one graph in place, so after a warm-up a topology()
// call allocates only when a node passes its previous degree record, a
// base passes its edge-count record, or edge-markov's chain archive meets a
// never-seen pair.  This binary replaces the global operator new with a
// counting one and reads the counter around topology() calls only.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "core/registry.hpp"
#include "dynnet/adversary.hpp"

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

constexpr std::size_t warmup_calls = 100;
constexpr std::size_t measured_calls = 1000;

// Knowledge that grows like a protocol's: each call, every node gains a
// unit with probability 1/2, so the adaptive families re-sort every round.
class drifting_view final : public knowledge_view {
 public:
  explicit drifting_view(std::size_t n) : k_(n, 0) {}
  std::size_t node_count() const override { return k_.size(); }
  std::size_t knowledge(node_id u) const override { return k_[u]; }
  void advance(rng& r) {
    for (std::size_t& k : k_) k += r.coin() ? 1 : 0;
  }

 private:
  std::vector<std::size_t> k_;
};

// Per-node degree and edge-count records of the graphs one adversary
// returns; `observe` reports whether this graph passed any of them.
class record_tracker {
 public:
  bool observe(const graph& g) {
    bool passed = false;
    if (degree_.size() < g.order()) degree_.resize(g.order(), 0);
    for (node_id u = 0; u < g.order(); ++u) {
      if (g.degree(u) > degree_[u]) {
        degree_[u] = g.degree(u);
        passed = true;
      }
    }
    if (g.edge_count() > edges_) {
      edges_ = g.edge_count();
      passed = true;
    }
    return passed;
  }

 private:
  std::vector<std::size_t> degree_;
  std::size_t edges_ = 0;
};

// Forwards to a base adversary and watches the records of the base graphs
// it commits, which a modifier's own output does not show.
class base_spy final : public adversary {
 public:
  explicit base_spy(std::unique_ptr<adversary> inner)
      : inner_(std::move(inner)) {}
  const graph& topology(round_t r, const knowledge_view& view) override {
    const graph& g = inner_->topology(r, view);
    passed_ = records_.observe(g) || passed_;
    return g;
  }
  std::string name() const override { return inner_->name(); }
  bool full_connectivity() const override {
    return inner_->full_connectivity();
  }
  /// Whether a base graph passed a record since the last call.
  bool take_passed() {
    const bool p = passed_;
    passed_ = false;
    return p;
  }

 private:
  std::unique_ptr<adversary> inner_;
  record_tracker records_;
  bool passed_ = false;
};

struct family_run {
  std::unique_ptr<adversary> adv;
  base_spy* base = nullptr;                      // modifiers only
  const edge_markov_adversary* markov = nullptr;  // edge-markov only
};

std::unique_ptr<adversary> registry_family(std::size_t n,
                                           const std::string& name,
                                           param_map params) {
  problem prob;
  prob.n = n;
  prob.k = n;
  prob.d = 8;
  prob.b = n;
  return build_adversary(prob, adversary_spec{name, std::move(params)}, 7);
}

family_run make_family(const std::string& label, std::size_t n) {
  family_run run;
  if (label == "edge-markov") {
    auto adv = make_edge_markov(make_static_clique(n), 0.15, 0.3, 23);
    run.markov = static_cast<const edge_markov_adversary*>(adv.get());
    run.adv = std::move(adv);
  } else if (label == "compose[markov-geo]") {
    auto spy = std::make_unique<base_spy>(make_random_geometric(
        n, 1.8 / std::sqrt(static_cast<double>(n)), 29));
    run.base = spy.get();
    auto adv = make_edge_markov(std::move(spy), 0.15, 0.3, 31);
    run.markov = static_cast<const edge_markov_adversary*>(adv.get());
    run.adv = std::move(adv);
  } else if (label == "churn") {
    auto spy = std::make_unique<base_spy>(make_random_connected(n, n / 2, 37));
    run.base = spy.get();
    run.adv = make_churn(std::move(spy), 0.1, 0.25, n / 2, 4, 41);
  } else if (label == "t-interval-random") {
    run.adv = registry_family(n, label, {{"t", "4"}});
  } else {
    run.adv = registry_family(n, label, {});
  }
  return run;
}

struct steady_state {
  std::uint64_t allocations = 0;
  // Calls that allocated although no graph passed a record and the chain
  // archive did not grow: each is a contract violation.
  std::size_t unexplained_calls = 0;
};

steady_state measure(const std::string& label, std::size_t n) {
  family_run run = make_family(label, n);
  drifting_view view(n);
  rng drift(13);
  record_tracker records;
  steady_state out;
  for (std::size_t call = 0; call < warmup_calls + measured_calls; ++call) {
    view.advance(drift);
    const std::size_t chains = run.markov ? run.markov->chains() : 0;
    const std::uint64_t before = allocations.load(std::memory_order_relaxed);
    const graph& g = run.adv->topology(call, view);
    const std::uint64_t made =
        allocations.load(std::memory_order_relaxed) - before;
    bool cause = records.observe(g);
    if (run.base != nullptr) cause = run.base->take_passed() || cause;
    if (run.markov != nullptr) cause = cause || run.markov->chains() > chains;
    if (call < warmup_calls) continue;
    out.allocations += made;
    if (made > 0 && !cause) ++out.unexplained_calls;
  }
  return out;
}

// Audit builds cross-check every round against a graph rebuilt from
// scratch, which allocates by design.
#ifdef NCDN_AUDIT_ENABLED
constexpr bool audit_build = true;
#else
constexpr bool audit_build = false;
#endif

// Families whose steady state allocates nothing at all: constant-degree
// paths, knowledge-sorted sides, and edge-markov over a static clique (each
// node's list settles at its candidate degree, and the archive is full
// after the first round).
TEST(topology_steady_state, fixed_shape_families_allocate_nothing) {
  if (audit_build) GTEST_SKIP() << "audit oracles allocate every round";
  for (const std::size_t n : {std::size_t{16}, std::size_t{256}}) {
    for (const char* label :
         {"permuted-path", "sorted-path", "adaptive-min-cut", "edge-markov"}) {
      const steady_state s = measure(label, n);
      EXPECT_EQ(s.allocations, 0u) << label << " n=" << n;
    }
  }
}

// Random-degree families and compose: the count for these fixed seeds is
// pinned, and every allocating call coincides with a named cause — a node
// or the edge count passing its record (in G(t) or in the modifier's base
// graph), or the chain archive meeting a never-seen pair.  A node's degree
// record in a fresh random graph is still broken now and then long after
// the warm-up, so these counts shrink with time but do not reach zero.
// (Building a fresh graph every call made 7 to 75 allocations per call at
// n = 16, and hundreds to thousands at n = 256.)
TEST(topology_steady_state, random_degree_families_allocate_only_on_records) {
  if (audit_build) GTEST_SKIP() << "audit oracles allocate every round";
  struct pinned {
    const char* label;
    std::size_t n;
    std::uint64_t allocations;
  };
  const pinned cases[] = {
      {"t-interval", 16, 3},
      {"t-interval", 256, 166},
      {"random-connected", 16, 9},
      {"random-connected", 256, 108},
      {"random-geometric", 16, 0},
      {"random-geometric", 256, 35},
      {"t-interval-random", 16, 3},
      {"t-interval-random", 256, 184},
      {"churn", 16, 19},
      {"churn", 256, 496},
      {"compose[markov-geo]", 16, 13},
      {"compose[markov-geo]", 256, 398},
  };
  for (const pinned& c : cases) {
    const steady_state s = measure(c.label, c.n);
    EXPECT_EQ(s.allocations, c.allocations) << c.label << " n=" << c.n;
    EXPECT_EQ(s.unexplained_calls, 0u) << c.label << " n=" << c.n;
  }
}

}  // namespace
}  // namespace ncdn
