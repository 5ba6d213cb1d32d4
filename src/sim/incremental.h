// Shared incremental-connectivity core: the resurrection walk that prices a
// whole axis of nested dead-cable sets at the cost of ~one component build,
// run over the network's junctions only.
//
// SweepEngine (probability axis) and TimelineEngine (time axis) both
// evaluate sequences of *monotone nested* dead sets: dead(0) ⊆ dead(1) ⊆ …
// along severity, or failures accumulating during a storm and healing
// during repair. Both walk the axis from the most severe step to the least
// severe, *resurrecting* cables, and read the aggregates (alive cables,
// nodes with >= 1 alive cable, largest component) after each resurrection
// batch. This header owns that walk, and one set of bit-identity gates
// (bench/perf_sweep, bench/perf_timeline), for every axis-shaped workload.
//
// Junctions. Most landing nodes sit on a single cable: such a node is lit
// exactly while its cable is alive and always lies in its cable's
// component. The constructor folds each of them into its cable, once per
// network:
//   - a *junction* is a node touched by >= 2 cables, or any node of a cable
//     whose own segments form more than one connected piece (the shipped
//     networks have no such cable; add_cable accepts one);
//   - a *stub* is a cable that touches no junction: when alive, its
//     component is exactly its own nodes;
//   - a *link* cable touches at least one junction: when alive, it unites
//     its junctions and adds its private (non-junction) nodes to their set.
//     A *spur* is a link with one junction, a *bridge* any other link.
// Only links go through the union-find, and it spans only the junctions:
// on the submarine network 110 of 470 cables and 104 of 1,188 nodes.
//
// The protocol:
//   1. Compute, per cable, its *first dead step* on the axis: the smallest
//      step index at which the cable is dead, or `steps` when it is alive
//      everywhere. Nesting means the dead set at step g is exactly
//      {c : first_dead[c] <= g}.
//   2. bucket_by_first_dead() counting-sorts the cables by (first dead
//      step, kind): bucket b holds its stubs, then its spurs, then its
//      bridges, each range in ascending cable order.
//   3. walk() activates bucket `steps` (the always-alive cables), then
//      iterates g = steps-1 … 0, reporting step g's aggregates *before*
//      activating bucket g — so the callback observes exactly
//      {c : first_dead[c] > g}, step g's alive set. Activating a bucket
//      counts its cables, lights their private nodes and any junction not
//      yet lit (a junction stays lit while its latest-dying cable lives),
//      keeps the largest stub, and unites each link's junctions.
//
// Every aggregate is an integer function of the alive set, so the fold
// must not change any of them: the IncrementalParity tests check the walk
// against the node-level walk frozen in bench/reference/incremental.h on
// the shipped networks. All state lives in IncrementalScratch; a warm
// scratch makes the bucket+walk pair allocation-free (asserted by the perf
// benches).
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "graph/union_find.h"
#include "topology/network.h"

namespace solarnet::sim {

// Aggregates maintained by the walk, updated after every resurrection.
struct IncrementalAggregates {
  std::size_t alive_cables = 0;
  std::size_t lit_nodes = 0;  // nodes with >= 1 alive cable
  // Largest component over *all* graph nodes; isolated vertices count as
  // singleton components, hence the 1 floor on non-empty graphs.
  std::size_t largest = 0;
};

// Reusable buffers for one walk. Sized on first use, never shrunk.
struct IncrementalScratch {
  // Counting-sort offsets by (step, kind): the cables of bucket b and kind
  // k occupy [bucket_start[b*kKinds + k], bucket_start[b*kKinds + k + 1]).
  std::vector<std::uint32_t> bucket_start;   // (S+1)*kKinds + 1
  std::vector<std::uint32_t> bucket_cursor;  // counting-sort fill cursors
  std::vector<std::uint32_t> bucket_cables;  // cables by (first dead, kind)
  std::vector<std::uint8_t> lit;             // per junction
  graph::UnionFind uf;                       // over the junctions
};

// Immutable per-network fold for the resurrection walk: each cable's kind
// and private node count, and each link's junction unions. Built once at
// construction; the network is not referenced afterwards.
class IncrementalConnectivity {
 public:
  // Cable kinds, in their order inside a bucket.
  enum Kind : std::uint32_t { kStub = 0, kSpur = 1, kBridge = 2, kKinds = 3 };

  explicit IncrementalConnectivity(const topo::InfrastructureNetwork& net);

  std::size_t cable_count() const noexcept { return cables_; }
  std::size_t node_count() const noexcept { return nodes_; }
  // Nodes with >= 1 registered cable — the denominator the engines use for
  // unreachable / largest-component percentages.
  std::size_t connected_node_count() const noexcept { return connected_nodes_; }

  // Counting-sorts the cables into buckets by first-dead step index, and
  // by kind inside each bucket. Each first_dead[c] must be in [0, steps];
  // bucket `steps` holds the cables alive across the whole axis. Ascending
  // cable order is preserved inside each range, so the union-find merge
  // sequence is a pure function of the first_dead array.
  void bucket_by_first_dead(std::span<const std::uint32_t> first_dead,
                            std::size_t steps,
                            IncrementalScratch& scratch) const;

  // The resurrection walk over a bucketed scratch. Calls
  // `on_step(g, aggregates)` for g = steps-1 … 0 with the aggregates of
  // step g's alive set {c : first_dead[c] > g}. With steps == 0 the
  // callback is never invoked (an empty axis has no steps to report).
  // Header-inline so the activation loops inline into each engine's
  // callback.
  template <typename OnStep>
  void walk(std::size_t steps, IncrementalScratch& s, OnStep&& on_step) const {
    s.uf.reset(junctions_);
    s.lit.assign(junctions_, 0);
    IncrementalAggregates agg;
    // Largest union-find set (junctions plus the private nodes folded into
    // them) and largest alive stub; both only grow as cables come back.
    std::size_t linked = nodes_ > 0 ? 1 : 0;
    std::size_t stub = 0;

    const auto light = [&](std::uint32_t junction) {
      agg.lit_nodes += s.lit[junction] ^ 1u;
      s.lit[junction] = 1;
    };
    const auto activate_bucket = [&](std::size_t bucket) {
      const std::uint32_t* range = s.bucket_start.data() + bucket * kKinds;
      agg.alive_cables += range[kKinds] - range[kStub];
      for (std::uint32_t i = range[kStub]; i < range[kSpur]; ++i) {
        const std::uint32_t nodes = private_nodes_[s.bucket_cables[i]];
        agg.lit_nodes += nodes;
        stub = std::max<std::size_t>(stub, nodes);
      }
      for (std::uint32_t i = range[kSpur]; i < range[kBridge]; ++i) {
        const Union& u = unions_[union_offset_[s.bucket_cables[i]]];
        agg.lit_nodes += u.extra;
        light(u.a);
        linked = std::max(linked, s.uf.grow(u.a, u.extra));
      }
      for (std::uint32_t i = range[kBridge]; i < range[kKinds]; ++i) {
        const std::uint32_t c = s.bucket_cables[i];
        for (std::uint32_t k = union_offset_[c]; k < union_offset_[c + 1];
             ++k) {
          const Union& u = unions_[k];
          agg.lit_nodes += u.extra;
          light(u.a);
          light(u.b);
          linked = std::max(linked, s.uf.unite_and_grow(u.a, u.b, u.extra));
        }
      }
      agg.largest = std::max(linked, stub);
    };

    activate_bucket(steps);
    for (std::size_t g = steps; g-- > 0;) {
      on_step(g, static_cast<const IncrementalAggregates&>(agg));
      if (g > 0) activate_bucket(g);
    }
  }

 private:
  // Unite junctions a and b (a == b only lights a) and add `extra` private
  // nodes to the set. A link's private node count rides on its first union.
  struct Union {
    std::uint32_t a = 0;
    std::uint32_t b = 0;
    std::uint32_t extra = 0;
  };

  std::size_t cables_ = 0;
  std::size_t nodes_ = 0;
  std::size_t connected_nodes_ = 0;
  std::size_t junctions_ = 0;
  std::vector<std::uint32_t> kind_;           // per cable, a Kind
  std::vector<std::uint32_t> private_nodes_;  // per cable; all of a stub's
  // Per link, in junction indices: one union per junction that is not the
  // first of its piece, one a == b entry per piece with a single junction.
  std::vector<std::uint32_t> union_offset_;  // size cables+1
  std::vector<Union> unions_;
};

}  // namespace solarnet::sim
