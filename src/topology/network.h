// InfrastructureNetwork: a set of nodes plus cables, with a graph view for
// connectivity analysis. This is the common in-memory model every dataset
// (submarine map, Intertubes, ITU) loads into and every failure experiment
// operates on.
#pragma once

#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "graph/csr.h"
#include "graph/graph.h"
#include "topology/cable.h"
#include "topology/node.h"
#include "util/bitset.h"

namespace solarnet::topo {

class InfrastructureNetwork {
 public:
  explicit InfrastructureNetwork(std::string name) : name_(std::move(name)) {}

  const std::string& name() const noexcept { return name_; }

  // --- construction -------------------------------------------------------
  // Adds a node; names must be unique within a network (throws on
  // duplicates — datasets key landing points by name).
  NodeId add_node(Node node);
  // Adds a cable; every referenced node must already exist. Segments with
  // length 0 get their great-circle length computed from node coordinates.
  CableId add_cable(Cable cable);
  // Marks whether a cable's length figure is authoritative (datasets flag
  // entries whose source publishes no length).
  void set_cable_length_known(CableId id, bool known);

  // Deep copy with `name_suffix` appended to the name and each cable of
  // `extra_cables` appended after the originals (same validation as
  // add_cable). Base node/cable ids are preserved in the copy, so callers
  // can resolve endpoints against the base first; the copy starts with a
  // cold CSR cache. This is the one clone path shared by the planner's
  // `with_cable` and the mitigation evaluator.
  InfrastructureNetwork clone_with_extra_cables(
      std::string_view name_suffix, std::vector<Cable> extra_cables = {}) const;

  // --- access -------------------------------------------------------------
  std::size_t node_count() const noexcept { return nodes_.size(); }
  std::size_t cable_count() const noexcept { return cables_.size(); }
  const Node& node(NodeId id) const;
  const Cable& cable(CableId id) const;
  const std::vector<Node>& nodes() const noexcept { return nodes_; }
  const std::vector<Cable>& cables() const noexcept { return cables_; }
  std::optional<NodeId> find_node(std::string_view name) const;

  // Cables incident to a node.
  const std::vector<CableId>& cables_at(NodeId id) const;
  // True when the node has at least one cable.
  bool has_cables(NodeId id) const { return !cables_at(id).empty(); }

  // --- graph view ---------------------------------------------------------
  // One graph edge per cable segment, weighted by segment length.
  const graph::Graph& graph() const noexcept { return graph_; }
  // Flat CSR snapshot of graph(), built lazily on first use and cached
  // until the next add_node/add_cable invalidates it. This is the substrate
  // the scratch-based connectivity kernels (graph/components.h,
  // graph/traversal.h) traverse; build it (by calling this once) before
  // fanning trial workers out over the network.
  const graph::Csr& csr() const;
  // Order-sensitive 64-bit digest of the network's content: every node
  // (name, coordinates, country, kind, authoritativeness) and cable (name,
  // kind, segments with exact length bits, length_known) in id order. Two
  // networks with equal fingerprints are, for fingerprinting purposes, the
  // same scenario substrate — the server's result cache keys on this
  // instead of the (non-identifying) network name. Computed lazily and
  // cached; add_node / add_cable / set_cable_length_known invalidate it.
  std::uint64_t content_fingerprint() const;
  CableId cable_of_edge(graph::EdgeId e) const;
  const std::vector<graph::EdgeId>& edges_of_cable(CableId c) const;

  // Mask for the subgraph that survives when `cable_dead[c]` cables fail,
  // refilled in place over the precomputed edge->cable table (reusing the
  // mask's storage; the trial loops call this once per draw per worker).
  // All vertices stay alive (a node with no surviving cable is detected via
  // unreachable_nodes below, matching the paper's definition).
  void mask_for_failures(const util::Bitset& cable_dead,
                         graph::AliveMask& mask) const;
  // One-shot form: converts through util::Bitset::from_bools.
  graph::AliveMask mask_for_failures(const std::vector<bool>& cable_dead) const;

  // Paper §4.3.1: "a node is unreachable when all its connected links have
  // failed". Clears and fills `out` (reusing its storage — the Monte-Carlo
  // trial loop calls this once per trial per worker) with the ids of nodes
  // that had >= 1 cable and lost all of them.
  void unreachable_nodes(const util::Bitset& cable_dead,
                         std::vector<NodeId>& out) const;
  // std::vector<bool> forms: convert through util::Bitset::from_bools.
  std::vector<NodeId> unreachable_nodes(const std::vector<bool>& cable_dead) const;
  void unreachable_nodes(const std::vector<bool>& cable_dead,
                         std::vector<NodeId>& out) const;
  // True when node `id` has >= 1 cable and every one of them is dead.
  bool node_unreachable(NodeId id, const util::Bitset& cable_dead) const;

  // Nodes with at least one cable (the denominator of "% unreachable").
  std::size_t connected_node_count() const;

  // --- derived views used by the analyses ---------------------------------
  // Latitudes (degrees) of all nodes with authoritative coordinates.
  std::vector<double> node_latitudes() const;
  // Total lengths of all cables with known length.
  std::vector<double> cable_lengths() const;
  // Highest |latitude| over a cable's endpoints — the quantity the paper's
  // non-uniform model keys failure probability on.
  double cable_max_abs_latitude(CableId id) const;

 private:
  void invalidate_csr();

  std::string name_;
  std::vector<Node> nodes_;
  std::vector<Cable> cables_;
  std::unordered_map<std::string, NodeId> node_by_name_;
  std::vector<std::vector<CableId>> cables_at_node_;
  graph::Graph graph_;
  std::vector<CableId> edge_to_cable_;
  std::vector<std::vector<graph::EdgeId>> cable_to_edges_;
  // Lazily built CSR snapshot of graph_ plus the cached content
  // fingerprint, rebuilt on demand after mutation invalidates them. The
  // cache (not the network) carries the mutex, with copy/move defined to
  // drop the cached state, so the network stays movable and a copied
  // network rebuilds its own CSR and fingerprint.
  struct CsrCache {
    CsrCache() = default;
    CsrCache(const CsrCache&) noexcept {}
    CsrCache(CsrCache&&) noexcept {}
    CsrCache& operator=(const CsrCache&) noexcept {
      ptr.reset();
      fingerprint_valid = false;
      return *this;
    }
    CsrCache& operator=(CsrCache&&) noexcept {
      ptr.reset();
      fingerprint_valid = false;
      return *this;
    }
    std::mutex mutex;
    std::shared_ptr<const graph::Csr> ptr;
    std::uint64_t fingerprint = 0;
    bool fingerprint_valid = false;
  };
  mutable CsrCache csr_cache_;
};

}  // namespace solarnet::topo
