// Frozen reference resurrection walk: a verbatim copy of the node-level
// sim::IncrementalConnectivity walk that SweepEngine and TimelineEngine ran
// before the walk moved onto junctions. It counts alive cables per node
// over every graph node and unites every cable segment into a union-find
// that spans all nodes, so it shares no folding with the junction walk in
// src/sim/incremental.h. The IncrementalParity tests and perf_sweep's walk
// gate compare the live walk against it. Do not route this through
// src/sim/incremental.cpp; it is deliberately frozen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

#include "graph/union_find.h"
#include "sim/incremental.h"
#include "topology/network.h"

namespace solarnet::reference {

struct IncrementalScratch {
  std::vector<std::uint32_t> bucket_start;   // counting-sort offsets, S+2
  std::vector<std::uint32_t> bucket_cursor;  // counting-sort fill cursors
  std::vector<std::uint32_t> bucket_cables;  // cables grouped by first-dead
  std::vector<std::uint32_t> alive_cables_at_node;
  graph::UnionFind uf;
};

class IncrementalConnectivity {
 public:
  explicit IncrementalConnectivity(const topo::InfrastructureNetwork& net)
      : cables_(net.cable_count()),
        nodes_(net.node_count()),
        connected_nodes_(net.connected_node_count()) {
    // Flatten per-cable graph edges for the resurrection walk.
    edge_offset_.reserve(cables_ + 1);
    edge_offset_.push_back(0);
    for (topo::CableId c = 0; c < cables_; ++c) {
      for (const graph::EdgeId e : net.edges_of_cable(c)) {
        const graph::Edge& ed = net.graph().edge(e);
        edge_u_.push_back(ed.u);
        edge_v_.push_back(ed.v);
      }
      edge_offset_.push_back(static_cast<std::uint32_t>(edge_u_.size()));
    }

    // Per-cable unique incident nodes, built by inverting cables_at(n) in
    // two counting passes (each (cable, node) incidence appears exactly
    // once there — Cable::endpoints() dedups before network registration).
    node_offset_.assign(cables_ + 1, 0);
    for (topo::NodeId n = 0; n < nodes_; ++n) {
      for (const topo::CableId c : net.cables_at(n)) ++node_offset_[c + 1];
    }
    for (topo::CableId c = 0; c < cables_; ++c) {
      node_offset_[c + 1] += node_offset_[c];
    }
    node_ids_.resize(node_offset_[cables_]);
    std::vector<std::uint32_t> cursor(node_offset_.begin(),
                                      node_offset_.end() - 1);
    for (topo::NodeId n = 0; n < nodes_; ++n) {
      for (const topo::CableId c : net.cables_at(n)) {
        node_ids_[cursor[c]++] = static_cast<std::uint32_t>(n);
      }
    }
  }

  std::size_t cable_count() const noexcept { return cables_; }
  std::size_t node_count() const noexcept { return nodes_; }
  std::size_t connected_node_count() const noexcept { return connected_nodes_; }

  void bucket_by_first_dead(std::span<const std::uint32_t> first_dead,
                            std::size_t steps,
                            IncrementalScratch& s) const {
    if (first_dead.size() != cables_) {
      throw std::invalid_argument(
          "IncrementalConnectivity: first_dead size mismatches network");
    }
    s.bucket_start.assign(steps + 2, 0);
    for (std::size_t c = 0; c < cables_; ++c) {
      ++s.bucket_start[first_dead[c] + 1];
    }
    for (std::size_t g = 1; g <= steps + 1; ++g) {
      s.bucket_start[g] += s.bucket_start[g - 1];
    }
    s.bucket_cursor.assign(s.bucket_start.begin(), s.bucket_start.end() - 1);
    s.bucket_cables.resize(cables_);
    for (std::size_t c = 0; c < cables_; ++c) {
      s.bucket_cables[s.bucket_cursor[first_dead[c]]++] =
          static_cast<std::uint32_t>(c);
    }
  }

  template <typename OnStep>
  void walk(std::size_t steps, IncrementalScratch& s, OnStep&& on_step) const {
    s.alive_cables_at_node.assign(nodes_, 0);
    s.uf.reset(nodes_);
    sim::IncrementalAggregates agg;
    agg.largest = nodes_ > 0 ? 1 : 0;

    const auto activate_bucket = [&](std::size_t bucket) {
      for (std::uint32_t i = s.bucket_start[bucket];
           i < s.bucket_start[bucket + 1]; ++i) {
        const std::uint32_t c = s.bucket_cables[i];
        ++agg.alive_cables;
        for (std::uint32_t k = node_offset_[c]; k < node_offset_[c + 1];
             ++k) {
          if (s.alive_cables_at_node[node_ids_[k]]++ == 0) ++agg.lit_nodes;
        }
        for (std::uint32_t k = edge_offset_[c]; k < edge_offset_[c + 1];
             ++k) {
          const std::size_t merged =
              s.uf.unite_returning_size(edge_u_[k], edge_v_[k]);
          agg.largest = std::max(agg.largest, merged);
        }
      }
    };

    activate_bucket(steps);
    for (std::size_t g = steps; g-- > 0;) {
      on_step(g, static_cast<const sim::IncrementalAggregates&>(agg));
      if (g > 0) activate_bucket(g);
    }
  }

 private:
  std::size_t cables_ = 0;
  std::size_t nodes_ = 0;
  std::size_t connected_nodes_ = 0;
  // Per-cable flattened graph edges and unique incident nodes.
  std::vector<std::uint32_t> edge_offset_;  // size cables+1
  std::vector<std::uint32_t> edge_u_;
  std::vector<std::uint32_t> edge_v_;
  std::vector<std::uint32_t> node_offset_;  // size cables+1
  std::vector<std::uint32_t> node_ids_;
};

}  // namespace solarnet::reference
