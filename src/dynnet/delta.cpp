#include "dynnet/delta.hpp"

namespace ncdn {

void topology_delta::rebind(const graph& base) {
  bound_ = &base;
  bound_revision_ = base.revision();
  const std::size_t n = base.order();

  slot_u_.clear();
  slot_v_.clear();
  // Unique base edges in global scan order: u ascending, then base
  // adjacency order, first sighting wins.  seen_[v] == u + 1 marks a v
  // already paired with this u, so a parallel base edge takes no second
  // slot.
  seen_.assign(n, 0);
  for (node_id u = 0; u < n; ++u) {
    for (node_id v : base.neighbors(u)) {
      if (u >= v || seen_[v] == u + 1) continue;
      seen_[v] = u + 1;
      slot_u_.push_back(u);
      slot_v_.push_back(v);
    }
  }

  const std::size_t m = slot_u_.size();
  on_.assign(m, 0);
  on_count_ = 0;

  incident_offsets_.assign(n + 1, 0);
  for (std::size_t s = 0; s < m; ++s) {
    ++incident_offsets_[slot_u_[s] + 1];
    ++incident_offsets_[slot_v_[s] + 1];
  }
  for (std::size_t i = 0; i < n; ++i) {
    incident_offsets_[i + 1] += incident_offsets_[i];
  }
  incident_slots_.resize(2 * m);
  cursor_.assign(incident_offsets_.begin(), incident_offsets_.end() - 1);
  for (std::size_t s = 0; s < m; ++s) {
    incident_slots_[cursor_[slot_u_[s]]++] = static_cast<std::uint32_t>(s);
    incident_slots_[cursor_[slot_v_[s]]++] = static_cast<std::uint32_t>(s);
  }

  dirty_.assign(n, 0);
  dirty_list_.resize(n + 1);  // a batch's branch-free append may write one
                              // past the last dirty node
  dirty_count_ = 0;
  all_dirty_ = true;
  forced_.clear();
  forced_.reserve(n);  // a repair adds fewer edges than there are nodes
}

void topology_delta::refresh_node(node_id u, const std::vector<char>& live) {
  batch b = open_batch();
  const std::uint32_t begin = incident_offsets_[u];
  const std::uint32_t end = incident_offsets_[u + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t s = incident_slots_[i];
    b.update(s, live[slot_u_[s]] != 0 && live[slot_v_[s]] != 0);
  }
  close_batch(b);
}

std::size_t topology_delta::apply(graph& out, const graph& base,
                                  const std::vector<char>* keep) {
  NCDN_EXPECTS(bound_to(base));
  const std::size_t n = base.order();

  if (all_dirty_) {
    out.reset(n);
    for (node_id x = 0; x < n; ++x) fill_node(out, x);
    all_dirty_ = false;
  } else {
    NCDN_EXPECTS(out.order() == n);
    // The repair edges were appended after every candidate edge, so
    // reverse-order tail pops remove exactly them and nothing else.
    for (auto it = forced_.rbegin(); it != forced_.rend(); ++it) {
      const auto [u, v] = *it;
      NCDN_ASSERT(!out.adj_[u].empty() && out.adj_[u].back() == v);
      NCDN_ASSERT(!out.adj_[v].empty() && out.adj_[v].back() == u);
      out.adj_[u].pop_back();
      out.adj_[v].pop_back();
    }
    for (std::size_t i = 0; i < dirty_count_; ++i) {
      fill_node(out, dirty_list_[i]);
      dirty_[dirty_list_[i]] = 0;
    }
    dirty_count_ = 0;
  }
  out.edges_ = on_count_;
  out.rev_ = 0;

  forced_.clear();
  const std::size_t added =
      gen::make_connected_over(out, base, keep, &forced_, repair_);

  NCDN_AUDIT(out == rebuild_reference(base, keep));  // delta == rebuild
  return added;
}

void topology_delta::fill_node(graph& out, node_id x) const {
  // Every candidate is written and the fill advances by its on-bit, so
  // the loop takes no branch on the (random) on-states.  The list's
  // capacity settles at x's candidate degree.
  std::vector<node_id>& list = out.adj_[x];
  const std::uint32_t begin = incident_offsets_[x];
  const std::uint32_t end = incident_offsets_[x + 1];
  list.resize(end - begin);
  node_id* const fill = list.data();
  std::size_t len = 0;
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t s = incident_slots_[i];
    fill[len] = slot_u_[s] ^ slot_v_[s] ^ x;  // the endpoint that is not x
    len += static_cast<std::size_t>(on_[s]);
  }
  list.resize(len);
}

graph topology_delta::rebuild_reference(const graph& base,
                                        const std::vector<char>* keep) const {
  graph ref(base.order());
  for (std::size_t s = 0; s < on_.size(); ++s) {
    if (on_[s] != 0) ref.add_edge(slot_u_[s], slot_v_[s]);
  }
  gen::scratch repair;
  gen::make_connected_over(ref, base, keep, nullptr, repair);
  return ref;
}

}  // namespace ncdn
