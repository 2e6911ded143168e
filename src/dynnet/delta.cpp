#include "dynnet/delta.hpp"

#include <algorithm>

namespace ncdn {

void topology_delta::rebind(const graph& base) {
  bound_ = &base;
  bound_revision_ = base.revision();
  const std::size_t n = base.order();

  slot_u_.clear();
  slot_v_.clear();
  // Unique base edges in global scan order: u ascending, then base
  // adjacency order, first sighting wins.
  std::vector<node_id> seen_this_u;
  for (node_id u = 0; u < n; ++u) {
    seen_this_u.clear();
    for (node_id v : base.neighbors(u)) {
      if (u >= v) continue;
      if (std::find(seen_this_u.begin(), seen_this_u.end(), v) !=
          seen_this_u.end()) {
        continue;  // parallel base edge: one slot
      }
      seen_this_u.push_back(v);
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
  std::vector<std::uint32_t> cursor(incident_offsets_.begin(),
                                    incident_offsets_.end() - 1);
  for (std::size_t s = 0; s < m; ++s) {
    incident_slots_[cursor[slot_u_[s]]++] = static_cast<std::uint32_t>(s);
    incident_slots_[cursor[slot_v_[s]]++] = static_cast<std::uint32_t>(s);
  }

  dirty_.assign(n, 0);
  dirty_list_.clear();
  all_dirty_ = true;
  forced_.clear();
}

void topology_delta::set_on(std::size_t s, bool value) {
  NCDN_EXPECTS(s < on_.size());
  if ((on_[s] != 0) == value) return;
  on_[s] = value ? 1 : 0;
  on_count_ += value ? 1 : std::size_t(-1);
  if (!all_dirty_) {
    for (const node_id x : {slot_u_[s], slot_v_[s]}) {
      if (dirty_[x] == 0) {
        dirty_[x] = 1;
        dirty_list_.push_back(x);
      }
    }
  }
}

void topology_delta::refresh_node(node_id u, const std::vector<char>& live) {
  const std::uint32_t begin = incident_offsets_[u];
  const std::uint32_t end = incident_offsets_[u + 1];
  for (std::uint32_t i = begin; i < end; ++i) {
    const std::uint32_t s = incident_slots_[i];
    set_on(s, live[slot_u_[s]] != 0 && live[slot_v_[s]] != 0);
  }
}

std::size_t topology_delta::apply(graph& out, const graph& base,
                                  const std::vector<char>* keep) {
  NCDN_EXPECTS(bound_to(base));
  const std::size_t n = base.order();

  if (all_dirty_) {
    if (out.order() != n) {
      out = graph(n);
    } else {
      for (auto& list : out.adj_) list.clear();  // keep capacity
    }
    for (std::size_t s = 0; s < on_.size(); ++s) {
      if (on_[s] != 0) {
        out.adj_[slot_u_[s]].push_back(slot_v_[s]);
        out.adj_[slot_v_[s]].push_back(slot_u_[s]);
      }
    }
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
    for (const node_id x : dirty_list_) {
      auto& list = out.adj_[x];
      list.clear();
      const std::uint32_t begin = incident_offsets_[x];
      const std::uint32_t end = incident_offsets_[x + 1];
      for (std::uint32_t i = begin; i < end; ++i) {
        const std::uint32_t s = incident_slots_[i];
        if (on_[s] != 0) {
          list.push_back(slot_u_[s] == x ? slot_v_[s] : slot_u_[s]);
        }
      }
      dirty_[x] = 0;
    }
    dirty_list_.clear();
  }
  out.edges_ = on_count_;
  out.rev_ = detail::next_graph_revision();

  forced_.clear();
  const std::size_t added =
      gen::make_connected_over(out, base, keep, &forced_);

  NCDN_AUDIT(out == rebuild_reference(base, keep));  // delta == rebuild
  return added;
}

graph topology_delta::rebuild_reference(const graph& base,
                                        const std::vector<char>* keep) const {
  graph ref(base.order());
  for (std::size_t s = 0; s < on_.size(); ++s) {
    if (on_[s] != 0) ref.add_edge(slot_u_[s], slot_v_[s]);
  }
  gen::make_connected_over(ref, base, keep);
  return ref;
}

}  // namespace ncdn
