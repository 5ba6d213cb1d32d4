#include "routing/assignment.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace solarnet::routing {

TrafficEngine::TrafficEngine(const topo::InfrastructureNetwork& net,
                             std::vector<TrafficDemand> demands)
    : net_(net), demands_(std::move(demands)) {
  for (const TrafficDemand& d : demands_) {
    if (d.src >= net_.node_count() || d.dst >= net_.node_count()) {
      throw std::out_of_range("TrafficEngine: demand endpoint out of range");
    }
    if (!(d.gbps >= 0.0)) {  // catches negative and NaN
      throw std::invalid_argument("TrafficEngine: negative demand");
    }
    offered_gbps_ += d.gbps;
  }

  // Group demand indices by source: ascending source id, original order
  // within a source — the accumulation order of the historical per-source
  // std::map loop, which the batched assign must reproduce bit for bit.
  grouped_.resize(demands_.size());
  for (std::uint32_t i = 0; i < grouped_.size(); ++i) grouped_[i] = i;
  std::stable_sort(grouped_.begin(), grouped_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return demands_[a].src < demands_[b].src;
                   });
  source_begin_.push_back(0);
  for (std::uint32_t i = 0; i < grouped_.size(); ++i) {
    const topo::NodeId src = demands_[grouped_[i]].src;
    if (sources_.empty() || sources_.back() != src) {
      if (!sources_.empty()) source_begin_.push_back(i);
      sources_.push_back(src);
    }
  }
  source_begin_.push_back(static_cast<std::uint32_t>(grouped_.size()));

  std::vector<bool> is_endpoint(net_.node_count(), false);
  for (const TrafficDemand& d : demands_) {
    is_endpoint[d.src] = true;
    is_endpoint[d.dst] = true;
  }
  for (topo::NodeId n = 0; n < net_.node_count(); ++n) {
    if (is_endpoint[n]) endpoints_.push_back(n);
  }

  // Snapshot per-edge weights (the Csr stores none) and per-cable
  // capacities once, so the hot path never touches Graph or capacity_tbps.
  const graph::Graph& g = net_.graph();
  edge_weight_.resize(g.edge_count());
  for (graph::EdgeId e = 0; e < g.edge_count(); ++e) {
    edge_weight_[e] = g.edge(e).weight;
  }
  capacity_gbps_.resize(net_.cable_count());
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    capacity_gbps_[c] = 1000.0 * capacity_tbps(net_.cable(c));
  }
  net_.csr();  // build the cached CSR before any worker threads fan out
}

void TrafficEngine::assign(const util::Bitset& cable_dead,
                           const graph::AliveMask* mask,
                           const std::uint32_t* labels,
                           TrafficScratch& scratch,
                           AssignmentResult& out) const {
  if (cable_dead.size() != net_.cable_count()) {
    throw std::invalid_argument("TrafficEngine::assign: cable_dead size");
  }
  if (mask == nullptr) {
    net_.mask_for_failures(cable_dead, scratch.mask);
    mask = &scratch.mask;
  }
  const graph::Csr& csr = net_.csr();

  out.loads.resize(net_.cable_count());
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    out.loads[c].cable = c;
    out.loads[c].load_gbps = 0.0;
    out.loads[c].capacity_gbps = capacity_gbps_[c];
  }
  out.delivered_gbps = 0.0;
  out.undeliverable_gbps = 0.0;
  out.max_utilization = 0.0;
  out.overloaded_cables = 0;
  out.mean_path_km = 0.0;

  double weighted_km = 0.0;
  for (std::size_t s = 0; s < sources_.size(); ++s) {
    const topo::NodeId src = sources_[s];
    const std::span<const std::uint32_t> indices = demands_of_source(s);
    // Label short-circuit: the pipeline's masks keep every vertex alive,
    // so label equality is exactly SSSP reachability — a source whose
    // demands are all stranded skips its tree entirely.
    bool need_tree = true;
    if (labels != nullptr) {
      need_tree = false;
      for (std::uint32_t idx : indices) {
        if (labels[demands_[idx].dst] == labels[src]) {
          need_tree = true;
          break;
        }
      }
    }
    if (need_tree) {
      graph::shortest_path_tree(csr, edge_weight_, *mask, src, scratch.sssp);
    }
    for (std::uint32_t idx : indices) {
      const TrafficDemand& d = demands_[idx];
      if (labels != nullptr && labels[d.dst] != labels[src]) {
        out.undeliverable_gbps += d.gbps;
        continue;
      }
      if (scratch.sssp.distance[d.dst] == graph::kUnreachable) {
        out.undeliverable_gbps += d.gbps;
        continue;
      }
      out.delivered_gbps += d.gbps;
      weighted_km += d.gbps * scratch.sssp.distance[d.dst];
      // Walk the parent chain, charging each traversed cable once per edge.
      for (topo::NodeId v = d.dst;
           scratch.sssp.parent_edge[v] != graph::kInvalidEdge;
           v = scratch.sssp.parent[v]) {
        const topo::CableId cable =
            net_.cable_of_edge(scratch.sssp.parent_edge[v]);
        out.loads[cable].load_gbps += d.gbps;
      }
    }
  }

  for (const CableLoad& load : out.loads) {
    out.max_utilization = std::max(out.max_utilization, load.utilization());
    if (load.utilization() > 1.0) ++out.overloaded_cables;
  }
  out.mean_path_km =
      out.delivered_gbps > 0.0 ? weighted_km / out.delivered_gbps : 0.0;
}

AssignmentResult TrafficEngine::assign(
    const std::vector<bool>& cable_dead) const {
  util::Bitset dead(cable_dead.size());
  for (std::size_t c = 0; c < cable_dead.size(); ++c) {
    if (cable_dead[c]) dead.set(c);
  }
  TrafficScratch scratch;
  AssignmentResult result;
  assign(dead, nullptr, nullptr, scratch, result);
  return result;
}

AssignmentResult TrafficEngine::assign_baseline() const {
  return assign(std::vector<bool>(net_.cable_count(), false));
}

AssignmentResult TrafficEngine::assign_capacity_aware(
    const std::vector<bool>& cable_dead) const {
  const graph::AliveMask base_mask = net_.mask_for_failures(cable_dead);
  const graph::Csr& csr = net_.csr();

  AssignmentResult result;
  result.loads.resize(net_.cable_count());
  std::vector<double> residual(net_.cable_count(), 0.0);
  for (topo::CableId c = 0; c < net_.cable_count(); ++c) {
    result.loads[c].cable = c;
    result.loads[c].capacity_gbps = capacity_gbps_[c];
    residual[c] = capacity_gbps_[c];
  }

  // Largest demands first: they are hardest to place and dominate loads.
  std::vector<std::size_t> order(demands_.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) {
                     return demands_[a].gbps > demands_[b].gbps;
                   });

  // One lazily-built SSSP tree per distinct source over the base mask
  // (residual-independent, so it is valid for every demand of that
  // source); the per-demand fit-mask search only runs when the tree path
  // cannot absorb the whole demand. See the header for the equivalence
  // contract with the historical per-demand implementation.
  std::vector<graph::RoutingScratch> trees(sources_.size());
  std::vector<char> tree_built(sources_.size(), 0);
  graph::RoutingScratch fallback;
  graph::AliveMask fit_mask = base_mask;

  constexpr double kEps = 1e-9;
  double weighted_km = 0.0;
  for (std::size_t idx : order) {
    const TrafficDemand& d = demands_[idx];
    const std::size_t slot = static_cast<std::size_t>(
        std::lower_bound(sources_.begin(), sources_.end(), d.src) -
        sources_.begin());
    if (!tree_built[slot]) {
      graph::shortest_path_tree(csr, edge_weight_, base_mask, d.src,
                                trees[slot]);
      tree_built[slot] = 1;
    }
    const graph::RoutingScratch& tree = trees[slot];
    if (tree.distance[d.dst] == graph::kUnreachable) {
      // The fit mask only removes edges, so unreachable under the base
      // mask is unreachable under every fit mask.
      result.undeliverable_gbps += d.gbps;
      continue;
    }
    // Fast path: the base-mask tree path, when every edge on it still has
    // residual for the whole demand. Feasibility mirrors the fit-mask
    // criterion edge by edge (a cable traversed via two segments is
    // checked — and later charged — once per edge, as before).
    bool tree_path_fits = true;
    for (topo::NodeId v = d.dst; tree.parent_edge[v] != graph::kInvalidEdge;
         v = tree.parent[v]) {
      if (residual[net_.cable_of_edge(tree.parent_edge[v])] + kEps < d.gbps) {
        tree_path_fits = false;
        break;
      }
    }
    double path_km = 0.0;
    const graph::RoutingScratch* path = nullptr;
    if (tree_path_fits) {
      // Every fit mask is a subset of the base mask, so a feasible
      // base-shortest path is also a fit-mask optimum.
      path = &tree;
      path_km = tree.distance[d.dst];
    } else {
      // Per-demand fit mask: only cables that can absorb this whole
      // demand (the historical per-demand search, with early exit).
      fit_mask.edge_alive = base_mask.edge_alive;
      for (graph::EdgeId e = 0; e < csr.edge_count(); ++e) {
        if (!fit_mask.edge_alive[e]) continue;
        if (residual[net_.cable_of_edge(e)] + kEps < d.gbps) {
          fit_mask.edge_alive.reset(e);
        }
      }
      if (!graph::shortest_path_to(csr, edge_weight_, fit_mask, d.src, d.dst,
                                   fallback)) {
        result.undeliverable_gbps += d.gbps;
        continue;
      }
      path = &fallback;
      path_km = fallback.distance[d.dst];
    }
    result.delivered_gbps += d.gbps;
    weighted_km += d.gbps * path_km;
    for (topo::NodeId v = d.dst; path->parent_edge[v] != graph::kInvalidEdge;
         v = path->parent[v]) {
      const topo::CableId cable = net_.cable_of_edge(path->parent_edge[v]);
      result.loads[cable].load_gbps += d.gbps;
      residual[cable] -= d.gbps;
    }
  }

  for (const CableLoad& load : result.loads) {
    result.max_utilization =
        std::max(result.max_utilization, load.utilization());
    if (load.utilization() > 1.0 + kEps) ++result.overloaded_cables;
  }
  result.mean_path_km =
      result.delivered_gbps > 0.0 ? weighted_km / result.delivered_gbps : 0.0;
  return result;
}

std::vector<double> TrafficEngine::load_shift(
    const AssignmentResult& baseline, const AssignmentResult& after) {
  if (baseline.loads.size() != after.loads.size()) {
    throw std::invalid_argument("load_shift: result size mismatch");
  }
  std::vector<double> shift(baseline.loads.size(), 0.0);
  for (std::size_t c = 0; c < shift.size(); ++c) {
    shift[c] = after.loads[c].load_gbps - baseline.loads[c].load_gbps;
  }
  return shift;
}

}  // namespace solarnet::routing
