#include "protocols/coded_nodes.hpp"

#include <algorithm>

namespace ncdn {

coded_nodes::coded_nodes(std::size_t n, std::size_t items,
                         std::size_t item_bits,
                         std::unique_ptr<coding_backend> backend)
    : items_(items), item_bits_(item_bits), progress_(n, 0) {
  NCDN_EXPECTS(items >= 1);
  NCDN_EXPECTS(item_bits >= 1);
  NCDN_EXPECTS(backend != nullptr);
  coders_.reserve(n);
  for (std::size_t u = 0; u < n; ++u) {
    coders_.push_back(backend->make_node_coder(items, item_bits));
  }
}

void coded_nodes::seed(node_id u, std::size_t index, const bitvec& payload) {
  NCDN_EXPECTS(u < coders_.size());
  NCDN_EXPECTS(index < items_);
  NCDN_EXPECTS(payload.size() == item_bits_);
  bitvec row(items_ + item_bits_);
  row.set(index);
  row.copy_bits_from(payload, 0, item_bits_, items_);
  coders_[u]->insert(row);
  note_progress(u, 0);
}

void coded_nodes::note_progress(node_id u, round_t bucket) {
  const std::size_t p = coders_[u]->decode_progress();
  const std::size_t delta = p - progress_[u];
  // The recorded delta must equal the can_decode flips since last time.
  NCDN_AUDIT(audit_delay_flips(u, delta));
  if (delta == 0) return;
  if (delay_hist_.size() <= bucket) delay_hist_.resize(bucket + 1);
  delay_hist_[bucket] += delta;
  progress_[u] = p;
}

bool coded_nodes::all_complete() const {
  for (const auto& c : coders_) {
    if (!c->complete()) return false;
  }
  return true;
}

std::uint64_t coded_nodes::xor_word_ops() const {
  std::uint64_t total = 0;
  for (const auto& c : coders_) total += c->xor_word_ops();
  return total;
}

bool coded_nodes::audit_delay_flips(node_id u, std::size_t delta) {
  if (audit_decodable_.empty()) audit_decodable_.resize(coders_.size());
  auto& snap = audit_decodable_[u];
  if (snap.empty()) snap.assign(items_, 0);
  std::size_t flips = 0;
  for (std::size_t i = 0; i < items_; ++i) {
    const bool now = coders_[u]->can_decode(i);
    if (now && snap[i] == 0) {
      ++flips;
      snap[i] = 1;
    } else if (!now && snap[i] != 0) {
      return false;  // decodability regressed — never legal
    }
  }
  return flips == delta;
}

bitvec pack_block(const token_distribution& dist,
                  std::span<const std::size_t> tokens, std::size_t bits) {
  const std::size_t d = dist.d_bits;
  bitvec block(bits);
  for (std::size_t j = 0; j < std::min(tokens.size(), bits / d); ++j) {
    block.copy_bits_from(dist.tokens[tokens[j]].payload, 0, d, j * d);
  }
  return block;
}

block_layout token_blocks(const token_state& st, node_id u,
                          std::size_t per_block, std::size_t max_tokens) {
  NCDN_EXPECTS(per_block >= 1);
  const std::vector<std::size_t> tokens = st.remaining_tokens(u);
  const std::size_t count = std::min(tokens.size(), max_tokens);
  const auto at = [&](std::size_t i) {
    return tokens.begin() + static_cast<std::ptrdiff_t>(i);
  };
  block_layout blocks;
  for (std::size_t off = 0; off < count; off += per_block) {
    blocks.emplace_back(at(off), at(std::min(off + per_block, count)));
  }
  return blocks;
}

void retirement_ledger::close_flood(token_state& st, bool fail_seen) {
  for (node_id u = 0; u < last_.size(); ++u) {
    if (fail_seen) {
      for (std::size_t t : last_[u]) st.reinstate(u, t);
    }
    last_[u].clear();
  }
  std::fill(fail_.begin(), fail_.end(), false);
}

void retirement_ledger::settle(token_state& st, const coded_nodes& session,
                               const block_layout& blocks) {
  const token_distribution& dist = st.distribution();
  const std::size_t d = dist.d_bits;
  NCDN_EXPECTS(blocks.size() == session.items());
  for (const auto& block : blocks) {
    NCDN_EXPECTS(block.size() <= session.item_bits() / d);
  }
  for (node_id u = 0; u < last_.size(); ++u) {
    if (!session.node_complete(u)) {
      fail_[u] = true;
      continue;
    }
    last_[u].clear();
    for (std::size_t i = 0; i < blocks.size(); ++i) {
      const bitvec decoded = session.decode(u, i);
      for (std::size_t j = 0; j < blocks[i].size(); ++j) {
        const std::size_t t = blocks[i][j];
        NCDN_ASSERT(decoded.slice(j * d, d) == dist.tokens[t].payload);
        st.learn(u, t);
        st.retire(u, t);
        last_[u].push_back(t);
      }
    }
  }
}

}  // namespace ncdn
