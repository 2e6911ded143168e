#include "content/content.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "dynnet/network.hpp"

namespace ncdn {

namespace {

/// The DAG-shape params shared by the steady and burst families (rolling
/// pins its shape instead of reading these).
void read_shared_shape(const std::string& context, param_reader& params,
                       epoch_plan& plan) {
  plan.supersede = checked_probability(
      context, "supersede", params.real("supersede", plan.supersede));
  plan.second_parent = checked_probability(
      context, "second_parent",
      params.real("second_parent", plan.second_parent));
  plan.span = params.size("span", plan.span);
  if (plan.span < 1) {
    throw std::invalid_argument("ncdn: " + context + " needs span >= 1");
  }
}

std::size_t checked_epochs(const std::string& context, param_reader& params,
                           std::size_t fallback) {
  const std::size_t epochs = params.size("epochs", fallback);
  if (epochs < 1) {
    throw std::invalid_argument("ncdn: " + context + " needs epochs >= 1");
  }
  return epochs;
}

std::size_t checked_batch(const std::string& context, param_reader& params,
                          std::size_t fallback) {
  const std::size_t batch = params.size("batch", fallback);
  if (batch < 1) {
    throw std::invalid_argument("ncdn: " + context + " needs batch >= 1");
  }
  return batch;
}

}  // namespace

void register_builtins(content_registry& reg) {
  reg.add({"steady",
           "uniform patch flow: batch patches per epoch [epochs, batch, "
           "supersede, span, second_parent]",
           [](param_reader& params) {
             const std::string ctx = "content model 'steady'";
             epoch_plan plan;
             plan.epochs = checked_epochs(ctx, params, 4);
             plan.batches.assign(plan.epochs, checked_batch(ctx, params, 4));
             read_shared_shape(ctx, params, plan);
             return plan;
           }});
  reg.add({"burst",
           "quiet trickle punctuated by release bursts every period epochs "
           "[epochs, period, batch, supersede, span, second_parent]",
           [](param_reader& params) {
             const std::string ctx = "content model 'burst'";
             epoch_plan plan;
             plan.epochs = checked_epochs(ctx, params, 6);
             const std::size_t period = params.size("period", 3);
             if (period < 1) {
               throw std::invalid_argument("ncdn: " + ctx +
                                           " needs period >= 1");
             }
             const std::size_t batch = checked_batch(ctx, params, 6);
             plan.batches.assign(plan.epochs, 1);
             for (std::size_t e = 0; e < plan.epochs; ++e) {
               if ((e + 1) % period == 0) plan.batches[e] = batch;
             }
             read_shared_shape(ctx, params, plan);
             return plan;
           }});
  reg.add({"rolling",
           "pure supersede chain: every patch replaces the head, exercising "
           "the catch-up shortcut [epochs, batch]",
           [](param_reader& params) {
             const std::string ctx = "content model 'rolling'";
             epoch_plan plan;
             plan.epochs = checked_epochs(ctx, params, 6);
             plan.batches.assign(plan.epochs, checked_batch(ctx, params, 2));
             // A rolling release is a path through version space: each
             // patch supersedes exactly the previous head.
             plan.supersede = 1.0;
             plan.span = 1;
             plan.second_parent = 0.0;
             return plan;
           }});
}

namespace {

/// Dependency closure of `head` with supersede shortcuts applied: walk the
/// wanted versions in descending order (every superseder of v has a larger
/// id, so it is decided before v); a wanted version is cut when some
/// already-included version supersedes it (transitively), and an included
/// version wants its parents except the one it supersedes itself.  The
/// walk visits only wanted versions, so its cost follows the closure's
/// size, not the schedule's length.
std::vector<std::size_t> closure_of(const std::vector<content_patch>& patches,
                                    const std::vector<std::size_t>& sup_by,
                                    std::size_t head) {
  std::priority_queue<std::size_t> wanted;  // may repeat a version
  wanted.push(head);
  std::vector<std::size_t> included;  // descending
  const auto is_included = [&](std::size_t w) {
    return std::binary_search(included.begin(), included.end(), w,
                              std::greater<>());
  };
  std::size_t last = content_schedule::none;
  while (!wanted.empty()) {
    const std::size_t v = wanted.top();
    wanted.pop();
    if (v == last) continue;
    last = v;
    bool cut = false;
    for (std::size_t w = sup_by[v];
         w != content_schedule::none && w <= head; w = sup_by[w]) {
      if (is_included(w)) {
        cut = true;
        break;
      }
    }
    if (cut) continue;
    included.push_back(v);
    for (std::size_t p : patches[v].parents) {
      if (p != patches[v].supersedes) wanted.push(p);
    }
  }
  return {included.rbegin(), included.rend()};
}

}  // namespace

content_schedule::content_schedule(
    std::vector<content_patch> patches, std::vector<std::size_t> epoch_first,
    std::vector<std::vector<std::size_t>> targets, bool full_resync)
    : patches_(std::move(patches)),
      epoch_first_(std::move(epoch_first)),
      targets_(std::move(targets)),
      full_resync_(full_resync) {
  NCDN_EXPECTS(!targets_.empty());
  NCDN_EXPECTS(epoch_first_.size() == targets_.size() + 1);
  NCDN_EXPECTS(epoch_first_.back() == patches_.size());
  superseded_by_.assign(patches_.size(), none);
  for (const content_patch& p : patches_) {
    if (p.supersedes == none) continue;
    NCDN_EXPECTS(p.supersedes < p.version);
    // At most one superseder per version: chains are paths, not trees.
    NCDN_EXPECTS(superseded_by_[p.supersedes] == none);
    superseded_by_[p.supersedes] = p.version;
  }
}

std::shared_ptr<const content_schedule> build_content_schedule(
    const content_spec& spec, const problem& prob, std::uint64_t seed) {
  NCDN_EXPECTS(!spec.empty());
  const content_entry& entry =
      content_registry::instance().at(spec.name, "content model");
  const std::string context = "content model '" + spec.name + "'";
  param_reader params(spec.params, context);
  const epoch_plan plan = entry.plan(params);
  const std::string resync = params.str("resync", "delta");
  if (resync != "delta" && resync != "full") {
    throw std::invalid_argument("ncdn: " + context +
                                " needs resync=delta|full, got '" + resync +
                                "'");
  }
  params.expect_fully_consumed();

  // Expansion is a pure function of (plan, prob.{n,k,d}, seed): every patch
  // takes its draws in a fixed order (primary parent, second parent,
  // supersede, author, payload bits), so the schedule is byte-stable no
  // matter who builds it.
  rng gen(seed);
  std::vector<content_patch> patches;
  std::vector<std::size_t> superseded(prob.k, content_schedule::none);
  std::vector<std::size_t> epoch_first;
  std::vector<std::vector<std::size_t>> targets;
  targets.reserve(plan.epochs + 1);
  // Every epoch's wire working set (target closure plus that epoch's fresh
  // patches) must fit the O(b) message budget the coded broadcast needs:
  // coefficient vectors carry one bit per in-flight version.  Each epoch is
  // checked as soon as its closure exists, so an oversized schedule fails
  // at its first oversized epoch without expanding the rest.
  const double limit = message_bit_limit(prob.n, prob.b, prob.slack);
  const auto check_working_set = [&](std::size_t e) {
    const std::vector<std::size_t>& target = targets[e];
    std::size_t working = target.size();
    for (std::size_t v = epoch_first[e]; v < epoch_first[e + 1]; ++v) {
      if (!std::binary_search(target.begin(), target.end(), v)) ++working;
    }
    if (static_cast<double>(working + prob.d) > limit) {
      throw std::invalid_argument(
          "ncdn: " + context + " puts " + std::to_string(working) +
          " versions on the wire at epoch " + std::to_string(e) +
          ", over the message budget slack * b + framing = " +
          std::to_string(static_cast<std::size_t>(limit)) +
          " bits for (versions + d)-bit coded rows; raise b or slack");
    }
  };

  // The base epoch is the classic instance: every base item is required,
  // not just the dependency closure of the newest one.
  epoch_first.push_back(0);
  std::vector<std::size_t> base_target(prob.k);
  for (std::size_t t = 0; t < prob.k; ++t) {
    content_patch base;
    base.version = t;
    base.epoch = 0;
    base.supersedes = content_schedule::none;
    patches.push_back(std::move(base));
    base_target[t] = t;
  }
  epoch_first.push_back(patches.size());
  targets.push_back(std::move(base_target));
  check_working_set(0);
  for (std::size_t e = 1; e <= plan.epochs; ++e) {
    for (std::size_t i = 0; i < plan.batches[e - 1]; ++i) {
      const std::size_t existing = patches.size();
      content_patch p;
      p.version = existing;
      p.epoch = e;
      const std::size_t window = std::min(plan.span, existing);
      const std::size_t primary =
          existing - 1 - static_cast<std::size_t>(gen.below(window));
      p.parents.push_back(primary);
      if (gen.bernoulli(plan.second_parent)) {
        const std::size_t extra =
            static_cast<std::size_t>(gen.below(existing));
        if (extra != primary) p.parents.push_back(extra);
      }
      std::sort(p.parents.begin(), p.parents.end());
      p.supersedes = content_schedule::none;
      if (gen.bernoulli(plan.supersede) &&
          superseded[primary] == content_schedule::none) {
        p.supersedes = primary;
        superseded[primary] = p.version;
      }
      p.author = static_cast<node_id>(gen.below(prob.n));
      p.payload = bitvec(prob.d);
      for (std::size_t bit = 0; bit < prob.d; ++bit) {
        if (gen.coin()) p.payload.set(bit);
      }
      superseded.push_back(content_schedule::none);
      patches.push_back(std::move(p));
    }
    epoch_first.push_back(patches.size());
    // Later epochs only add superseders past this head, where closure_of
    // never looks, so this closure is already final.
    targets.push_back(closure_of(patches, superseded, patches.size() - 1));
    check_working_set(e);
  }

  return std::make_shared<const content_schedule>(
      std::move(patches), std::move(epoch_first), std::move(targets),
      resync == "full");
}

content_spec parse_content_spec(const std::string& text) {
  return parse_spec<content_spec>(text, "--content");
}

}  // namespace ncdn
