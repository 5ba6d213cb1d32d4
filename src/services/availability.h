// Resilience testing for geo-distributed services (§5.4: "we need to
// devise standard practices in resilience testing involving large-scale
// failures", §5.2: "search engines, financial services, etc. should
// geo-distribute critical data ... so that each partition can function
// independently"). A service is a replica set with a quorum requirement;
// this module evaluates read/write availability for clients on every
// continent under a cable-failure draw, using the surviving submarine
// topology to decide who can reach whom.
//
// ServiceEvaluator resolves the replica and continent-anchor landing
// nodes once per (network, spec) through the network's cached attachment
// index into a table over the distinct nodes, and then answers each draw
// from the component labels of those nodes; AvailabilityObserver runs it
// on the trial pipeline, the Monte-Carlo hot path, where the labels come
// from the 64-lane kernel.
// evaluate_service is a one-shot wrapper that builds an evaluator for one
// std::vector<bool> draw.
#pragma once

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geo/coords.h"
#include "geo/regions.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/stats.h"

namespace solarnet::services {

struct ServiceSpec {
  std::string name;
  std::vector<geo::GeoPoint> replicas;
  // Replicas that must be mutually reachable (and reachable from the
  // client) for writes; 1 replica suffices for reads.
  std::size_t write_quorum = 1;
};

// Builds a replica set from an operator's data-center footprint.
ServiceSpec service_from_datacenters(const std::string& name,
                                     const std::vector<geo::GeoPoint>& sites,
                                     std::size_t write_quorum);

struct ContinentAvailability {
  geo::Continent continent;
  bool read_available = false;
  bool write_available = false;
};

struct AvailabilityReport {
  std::string service;
  std::vector<ContinentAvailability> per_continent;
  // Population-weighted availability over continents.
  double read_availability = 0.0;
  double write_availability = 0.0;
};

// Clients and replicas reach the submarine plant through terrestrial
// networks, so they attach to the best-connected landing station in their
// area, not literally the closest beach: among cable-bearing nodes within
// kAttachmentRadiusKm (haversine) of `p`, the highest cable degree wins,
// then the shorter distance, then the lower node id; with no node in
// range, the nearest one (lower id on ties). Nodes without cables are never
// chosen; kInvalidNode when the network has no cable. The search reads
// net.attachment_index(): it visits one latitude band and computes the
// exact distance only for nodes that pass a dot-product prefilter, falling
// back to every node only when none is in range.
inline constexpr double kAttachmentRadiusKm = 1500.0;
topo::NodeId nearest_connected_node(const topo::InfrastructureNetwork& net,
                                    const geo::GeoPoint& p);

// The continent population shares used for weighting (sums to 1).
const std::vector<std::pair<geo::Continent, double>>&
continent_population_shares();

// The distinct landing nodes a set of points and the six continent client
// anchors attach to (nearest_connected_node). `nodes` is ascending, so
// kInvalidNode — every attachment on a network without cables — comes
// last; `point_node[i]` indexes points[i]'s node in `nodes`, and `anchors`
// holds (continent, index into nodes) in the fixed anchor order.
struct Attachments {
  std::vector<topo::NodeId> nodes;
  std::vector<std::uint32_t> point_node;
  std::vector<std::pair<geo::Continent, std::uint32_t>> anchors;
};
Attachments attach(const topo::InfrastructureNetwork& net,
                   std::span<const geo::GeoPoint> points);

// Pre-resolved evaluator for one (network, service) pair: a table over the
// distinct landing nodes its replicas and the continent anchors attach to
// (nearest_connected_node over the network's attachment index, built on
// the network's first use and shared by every evaluator on it), holding a
// replica count per node. A draw is answered from the component labels of
// those nodes: a continent reads when some replica node shares its
// anchor's label, and writes when those nodes hold >= write_quorum
// replicas. The network must outlive the evaluator.
class ServiceEvaluator {
 public:
  // Throws std::invalid_argument on an empty replica set or a quorum
  // outside [1, replicas].
  ServiceEvaluator(const topo::InfrastructureNetwork& net, ServiceSpec spec);

  const ServiceSpec& spec() const noexcept { return spec_; }
  // The distinct attachment nodes, ascending: the query nodes whose labels
  // the label form of evaluate() reads.
  std::span<const topo::NodeId> nodes() const noexcept { return nodes_; }

  // Evaluates one draw from its labels (labels[i] is the label of
  // nodes()[i], see sim::TrialView::labels) into `out`, reusing its
  // storage. Continent shares are summed in continent_population_shares()
  // order. Allocation-free once `out` is warm.
  void evaluate(const std::uint32_t* labels, AvailabilityReport& out) const;

  // Evaluates one failure draw: decomposes the masked network and labels
  // nodes() itself. Allocation-free once warm.
  void evaluate(const util::Bitset& cable_dead, AvailabilityReport& out);
  AvailabilityReport evaluate(const util::Bitset& cable_dead);

 private:
  const topo::InfrastructureNetwork& net_;
  ServiceSpec spec_;
  std::vector<topo::NodeId> nodes_;
  std::vector<std::uint32_t> replicas_;  // per node: replicas attached there
  std::vector<std::pair<geo::Continent, std::uint32_t>> anchors_;
  sim::DrawLabels draw_;  // scratch of the dead-set form
};

// Evaluates one service against a failure draw. Every replica and client
// continent is mapped to its nearest cable-bearing landing point; two
// parties can communicate when those landing points share a surviving
// component. A client's continent gets read availability when >= 1
// replica is reachable, write availability when >= write_quorum replicas
// are reachable AND mutually connected.
AvailabilityReport evaluate_service(const topo::InfrastructureNetwork& net,
                                    const std::vector<bool>& cable_dead,
                                    const ServiceSpec& service);

// Monte-Carlo availability of one service: population-weighted read/write
// availability over `draws` failure draws (draw d from child stream d of
// `seed`), bit-identical for every `threads` value (0 = hardware
// concurrency). availability_sweep is one TrialPipeline pass with a single
// AvailabilityObserver.
struct AvailabilitySweep {
  std::string service;
  std::size_t draws = 0;
  // Population-weighted availability per draw.
  util::RunningStats read_availability;
  util::RunningStats write_availability;
};

AvailabilitySweep availability_sweep(const sim::FailureSimulator& simulator,
                                     const gic::RepeaterFailureModel& model,
                                     const ServiceSpec& service,
                                     std::size_t draws, std::uint64_t seed,
                                     std::size_t threads = 0);

// Trial-pipeline observer for one service: declares the evaluator's
// distinct attachment nodes as query nodes and evaluates every trial from
// their labels, on the scalar path per trial and on the 64-lane path per
// batch, accumulating read/write availability. Construction resolves the
// replica/anchor nodes once; begin_run maps them to label slots.
class AvailabilityObserver final : public sim::CheckpointableObserver {
 public:
  // Throws like ServiceEvaluator on a bad spec.
  AvailabilityObserver(const topo::InfrastructureNetwork& net,
                       ServiceSpec spec);

  // Valid after TrialPipeline::run().
  const AvailabilitySweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  std::span<const topo::NodeId> query_nodes() const override {
    return evaluator_.nodes();
  }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  bool supports_batch() const override { return true; }
  void observe_batch(const sim::BatchTrialView& view, std::size_t worker,
                     std::size_t first_chunk) override;
  void end_run() override;

  // The id carries the service name and write quorum: a checkpoint written
  // for one service or quorum is rejected for another even with identical
  // chunk counts.
  std::string checkpoint_id() const override {
    return "availability/v2/" + evaluator_.spec().name + "/quorum=" +
           std::to_string(evaluator_.spec().write_quorum);
  }
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Slot {
    util::RunningStats read;
    util::RunningStats write;
    static constexpr auto kFields = std::tuple{&Slot::read, &Slot::write};
  };
  void add(const std::uint32_t* labels, std::size_t worker, std::size_t chunk);

  ServiceEvaluator evaluator_;
  sim::LabelGather labels_;
  std::vector<AvailabilityReport> reports_;  // per-worker scratch
  sim::ChunkSlots<Slot> slots_{"AvailabilityObserver"};
  AvailabilitySweep result_;
};

}  // namespace solarnet::services
