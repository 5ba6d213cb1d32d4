#include "sim/incremental.h"

#include <limits>
#include <stdexcept>

namespace solarnet::sim {

namespace {

constexpr std::uint32_t kNone = std::numeric_limits<std::uint32_t>::max();

}  // namespace

IncrementalConnectivity::IncrementalConnectivity(
    const topo::InfrastructureNetwork& net)
    : cables_(net.cable_count()),
      nodes_(net.node_count()),
      connected_nodes_(net.connected_node_count()) {
  // Per-cable unique incident nodes, built by inverting cables_at(n) in
  // two counting passes (each (cable, node) incidence appears exactly once
  // there — Cable::endpoints() dedups before network registration).
  std::vector<std::uint32_t> node_offset(cables_ + 1, 0);
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    for (const topo::CableId c : net.cables_at(n)) ++node_offset[c + 1];
  }
  for (topo::CableId c = 0; c < cables_; ++c) {
    node_offset[c + 1] += node_offset[c];
  }
  std::vector<std::uint32_t> node_ids(node_offset[cables_]);
  std::vector<std::uint32_t> cursor(node_offset.begin(),
                                    node_offset.end() - 1);
  std::vector<std::uint8_t> junction(nodes_, 0);
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    junction[n] = net.cables_at(n).size() >= 2 ? 1 : 0;
    for (const topo::CableId c : net.cables_at(n)) {
      node_ids[cursor[c]++] = static_cast<std::uint32_t>(n);
    }
  }

  // Each cable's own pieces: its segments united over its nodes (slot k -
  // begin of the cable's node range). piece[k] is the slot of the piece
  // root. Every node of a cable with more than one piece is a junction, so
  // the union-find keeps the pieces apart.
  std::vector<std::uint32_t> slot(nodes_, kNone);
  std::vector<std::uint32_t> piece(node_ids.size());
  graph::UnionFind pieces;
  for (topo::CableId c = 0; c < cables_; ++c) {
    const std::uint32_t begin = node_offset[c];
    const std::uint32_t end = node_offset[c + 1];
    for (std::uint32_t k = begin; k < end; ++k) slot[node_ids[k]] = k - begin;
    pieces.reset(end - begin);
    for (const graph::EdgeId e : net.edges_of_cable(c)) {
      const graph::Edge& ed = net.graph().edge(e);
      pieces.unite(slot[ed.u], slot[ed.v]);
    }
    for (std::uint32_t k = begin; k < end; ++k) {
      piece[k] = static_cast<std::uint32_t>(pieces.find(k - begin));
      slot[node_ids[k]] = kNone;
    }
    if (pieces.set_count() > 1) {
      for (std::uint32_t k = begin; k < end; ++k) junction[node_ids[k]] = 1;
    }
  }

  std::vector<std::uint32_t> junction_index(nodes_, kNone);
  for (topo::NodeId n = 0; n < nodes_; ++n) {
    if (junction[n]) {
      junction_index[n] = static_cast<std::uint32_t>(junctions_++);
    }
  }

  // Fold each cable: count its private nodes; for a link, join every
  // junction of a piece to the piece's first junction (head[root slot]),
  // and give a piece with no second junction an a == b entry so that every
  // junction of the link is lit by one of its entries.
  kind_.assign(cables_, kStub);
  private_nodes_.assign(cables_, 0);
  union_offset_.reserve(cables_ + 1);
  union_offset_.push_back(0);
  std::vector<std::uint32_t> head;
  std::vector<std::uint8_t> joined;
  for (topo::CableId c = 0; c < cables_; ++c) {
    const std::uint32_t begin = node_offset[c];
    const std::uint32_t end = node_offset[c + 1];
    head.assign(end - begin, kNone);
    joined.assign(end - begin, 0);
    const std::size_t first = unions_.size();
    std::size_t junctions = 0;
    for (std::uint32_t k = begin; k < end; ++k) {
      const std::uint32_t j = junction_index[node_ids[k]];
      if (j == kNone) {
        ++private_nodes_[c];
        continue;
      }
      ++junctions;
      if (head[piece[k]] == kNone) {
        head[piece[k]] = j;
      } else {
        unions_.push_back({head[piece[k]], j, 0});
        joined[piece[k]] = 1;
      }
    }
    for (std::uint32_t r = 0; r < end - begin; ++r) {
      if (head[r] != kNone && !joined[r]) {
        unions_.push_back({head[r], head[r], 0});
      }
    }
    if (junctions > 0) {
      unions_[first].extra = private_nodes_[c];
      kind_[c] = junctions == 1 ? kSpur : kBridge;
    }
    union_offset_.push_back(static_cast<std::uint32_t>(unions_.size()));
  }
}

void IncrementalConnectivity::bucket_by_first_dead(
    std::span<const std::uint32_t> first_dead, std::size_t steps,
    IncrementalScratch& s) const {
  if (first_dead.size() != cables_) {
    throw std::invalid_argument(
        "IncrementalConnectivity: first_dead size mismatches network");
  }
  s.bucket_start.assign((steps + 1) * kKinds + 1, 0);
  for (std::size_t c = 0; c < cables_; ++c) {
    ++s.bucket_start[first_dead[c] * kKinds + kind_[c] + 1];
  }
  for (std::size_t k = 1; k < s.bucket_start.size(); ++k) {
    s.bucket_start[k] += s.bucket_start[k - 1];
  }
  s.bucket_cursor.assign(s.bucket_start.begin(), s.bucket_start.end() - 1);
  s.bucket_cables.resize(cables_);
  for (std::size_t c = 0; c < cables_; ++c) {
    s.bucket_cables[s.bucket_cursor[first_dead[c] * kKinds + kind_[c]]++] =
        static_cast<std::uint32_t>(c);
  }
}

}  // namespace solarnet::sim
