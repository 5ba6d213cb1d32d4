#include "topology/network.h"

#include <algorithm>
#include <stdexcept>

#include "geo/distance.h"
#include "util/fingerprint.h"

namespace solarnet::topo {

NodeId InfrastructureNetwork::add_node(Node node) {
  node.location = geo::validated(node.location);
  if (node.name.empty()) {
    throw std::invalid_argument("add_node: empty node name");
  }
  const auto [it, inserted] = node_by_name_.try_emplace(
      node.name, static_cast<NodeId>(nodes_.size()));
  if (!inserted) {
    throw std::invalid_argument("add_node: duplicate node name '" +
                                node.name + "'");
  }
  nodes_.push_back(std::move(node));
  cables_at_node_.emplace_back();
  graph_.add_vertex();
  invalidate_csr();
  return it->second;
}

CableId InfrastructureNetwork::add_cable(Cable cable) {
  if (cable.segments.empty()) {
    throw std::invalid_argument("add_cable: cable '" + cable.name +
                                "' has no segments");
  }
  for (CableSegment& s : cable.segments) {
    if (s.a >= nodes_.size() || s.b >= nodes_.size()) {
      throw std::out_of_range("add_cable: segment references unknown node");
    }
    if (s.length_km < 0.0) {
      throw std::invalid_argument("add_cable: negative segment length");
    }
    if (s.length_km == 0.0) {
      s.length_km =
          geo::haversine_km(nodes_[s.a].location, nodes_[s.b].location);
    }
  }

  const auto id = static_cast<CableId>(cables_.size());
  cable_to_edges_.emplace_back();
  for (const CableSegment& s : cable.segments) {
    const graph::EdgeId e = graph_.add_edge(s.a, s.b, s.length_km);
    edge_to_cable_.push_back(id);
    cable_to_edges_[id].push_back(e);
  }
  for (NodeId n : cable.endpoints()) {
    cables_at_node_[n].push_back(id);
  }
  cables_.push_back(std::move(cable));
  invalidate_csr();
  return id;
}

InfrastructureNetwork InfrastructureNetwork::clone_with_extra_cables(
    std::string_view name_suffix, std::vector<Cable> extra_cables) const {
  InfrastructureNetwork copy(name_ + std::string(name_suffix));
  for (const Node& n : nodes_) copy.add_node(n);
  for (const Cable& c : cables_) copy.add_cable(c);
  for (Cable& c : extra_cables) copy.add_cable(std::move(c));
  return copy;
}

void InfrastructureNetwork::invalidate_csr() {
  const std::lock_guard<std::mutex> lock(csr_cache_.mutex);
  csr_cache_.ptr.reset();
  csr_cache_.fingerprint_valid = false;
}

const graph::Csr& InfrastructureNetwork::csr() const {
  const std::lock_guard<std::mutex> lock(csr_cache_.mutex);
  if (!csr_cache_.ptr) {
    csr_cache_.ptr = std::make_shared<const graph::Csr>(graph_);
  }
  return *csr_cache_.ptr;
}

std::uint64_t InfrastructureNetwork::content_fingerprint() const {
  const std::lock_guard<std::mutex> lock(csr_cache_.mutex);
  if (csr_cache_.fingerprint_valid) return csr_cache_.fingerprint;
  util::Fingerprint fp(0x736e2d6e657477ULL);  // "sn-netw"
  fp.fold(nodes_.size());
  for (const Node& n : nodes_) {
    fp.fold_bytes(n.name);
    fp.fold_double(n.location.lat_deg);
    fp.fold_double(n.location.lon_deg);
    fp.fold_bytes(n.country_code);
    fp.fold(static_cast<std::uint64_t>(n.kind));
    fp.fold(n.coords_authoritative ? 1 : 0);
  }
  fp.fold(cables_.size());
  for (const Cable& c : cables_) {
    fp.fold_bytes(c.name);
    fp.fold(static_cast<std::uint64_t>(c.kind));
    fp.fold(c.length_known ? 1 : 0);
    fp.fold(c.segments.size());
    for (const CableSegment& s : c.segments) {
      fp.fold(s.a);
      fp.fold(s.b);
      fp.fold_double(s.length_km);
    }
  }
  csr_cache_.fingerprint = fp.value();
  csr_cache_.fingerprint_valid = true;
  return csr_cache_.fingerprint;
}

void InfrastructureNetwork::set_cable_length_known(CableId id, bool known) {
  if (id >= cables_.size()) {
    throw std::out_of_range("network: set_cable_length_known");
  }
  cables_[id].length_known = known;
  // The graph is unchanged (no CSR invalidation needed) but the content
  // digest covers length_known, so drop the cached fingerprint.
  const std::lock_guard<std::mutex> lock(csr_cache_.mutex);
  csr_cache_.fingerprint_valid = false;
}

const Node& InfrastructureNetwork::node(NodeId id) const {
  if (id >= nodes_.size()) throw std::out_of_range("network: node id");
  return nodes_[id];
}

const Cable& InfrastructureNetwork::cable(CableId id) const {
  if (id >= cables_.size()) throw std::out_of_range("network: cable id");
  return cables_[id];
}

std::optional<NodeId> InfrastructureNetwork::find_node(
    std::string_view name) const {
  const auto it = node_by_name_.find(std::string(name));
  if (it == node_by_name_.end()) return std::nullopt;
  return it->second;
}

const std::vector<CableId>& InfrastructureNetwork::cables_at(NodeId id) const {
  if (id >= cables_at_node_.size()) {
    throw std::out_of_range("network: cables_at");
  }
  return cables_at_node_[id];
}

CableId InfrastructureNetwork::cable_of_edge(graph::EdgeId e) const {
  if (e >= edge_to_cable_.size()) {
    throw std::out_of_range("network: cable_of_edge");
  }
  return edge_to_cable_[e];
}

const std::vector<graph::EdgeId>& InfrastructureNetwork::edges_of_cable(
    CableId c) const {
  if (c >= cable_to_edges_.size()) {
    throw std::out_of_range("network: edges_of_cable");
  }
  return cable_to_edges_[c];
}

graph::AliveMask InfrastructureNetwork::mask_for_failures(
    const std::vector<bool>& cable_dead) const {
  graph::AliveMask mask;
  mask_for_failures(util::Bitset::from_bools(cable_dead), mask);
  return mask;
}

void InfrastructureNetwork::mask_for_failures(const util::Bitset& cable_dead,
                                              graph::AliveMask& mask) const {
  if (cable_dead.size() != cables_.size()) {
    throw std::invalid_argument("mask_for_failures: size mismatch");
  }
  mask.reset_to_all_alive(graph_);
  if (cable_dead.none()) return;
  for (graph::EdgeId e = 0; e < edge_to_cable_.size(); ++e) {
    if (cable_dead[edge_to_cable_[e]]) mask.edge_alive.reset(e);
  }
}

std::vector<NodeId> InfrastructureNetwork::unreachable_nodes(
    const std::vector<bool>& cable_dead) const {
  std::vector<NodeId> out;
  unreachable_nodes(cable_dead, out);
  return out;
}

void InfrastructureNetwork::unreachable_nodes(
    const std::vector<bool>& cable_dead, std::vector<NodeId>& out) const {
  unreachable_nodes(util::Bitset::from_bools(cable_dead), out);
}

void InfrastructureNetwork::unreachable_nodes(const util::Bitset& cable_dead,
                                              std::vector<NodeId>& out) const {
  if (cable_dead.size() != cables_.size()) {
    throw std::invalid_argument("unreachable_nodes: size mismatch");
  }
  out.clear();
  if (cable_dead.none()) return;  // nothing dead -> nothing unreachable
  for (NodeId n = 0; n < nodes_.size(); ++n) {
    const auto& incident = cables_at_node_[n];
    if (incident.empty()) continue;
    const bool all_dead =
        std::all_of(incident.begin(), incident.end(),
                    [&](CableId c) { return cable_dead[c]; });
    if (all_dead) out.push_back(n);
  }
}

bool InfrastructureNetwork::node_unreachable(
    NodeId id, const util::Bitset& cable_dead) const {
  if (cable_dead.size() != cables_.size()) {
    throw std::invalid_argument("node_unreachable: size mismatch");
  }
  const auto& incident = cables_at(id);
  if (incident.empty()) return false;
  return std::all_of(incident.begin(), incident.end(),
                     [&](CableId c) { return cable_dead[c]; });
}

std::size_t InfrastructureNetwork::connected_node_count() const {
  std::size_t count = 0;
  for (const auto& incident : cables_at_node_) {
    if (!incident.empty()) ++count;
  }
  return count;
}

std::vector<double> InfrastructureNetwork::node_latitudes() const {
  std::vector<double> out;
  out.reserve(nodes_.size());
  for (const Node& n : nodes_) {
    if (n.coords_authoritative) out.push_back(n.location.lat_deg);
  }
  return out;
}

std::vector<double> InfrastructureNetwork::cable_lengths() const {
  std::vector<double> out;
  out.reserve(cables_.size());
  for (const Cable& c : cables_) {
    if (c.length_known) out.push_back(c.total_length_km());
  }
  return out;
}

double InfrastructureNetwork::cable_max_abs_latitude(CableId id) const {
  const Cable& c = cable(id);
  double max_abs = 0.0;
  for (NodeId n : c.endpoints()) {
    max_abs = std::max(max_abs, nodes_[n].location.abs_lat());
  }
  return max_abs;
}

}  // namespace solarnet::topo
