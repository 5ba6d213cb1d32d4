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
// index and then answers per-draw queries allocation-free over its cached
// CSR; AvailabilityObserver runs it on the trial pipeline, the Monte-Carlo
// hot path.
// evaluate_service is a one-shot wrapper that builds an evaluator for one
// std::vector<bool> draw.
#pragma once

#include <string>
#include <vector>

#include "geo/coords.h"
#include "geo/regions.h"
#include "graph/components.h"
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

// Pre-resolved evaluator for one (network, service) pair. Construction
// attaches every replica and continent anchor once (nearest_connected_node
// over the network's attachment index, built on the network's first use
// and shared by every evaluator on it); evaluate() then costs one masked
// component decomposition plus O(1) lookups per party, reusing all
// scratch. Copyable — AvailabilityObserver hands each worker its own copy.
// The network must outlive the evaluator.
class ServiceEvaluator {
 public:
  // Throws std::invalid_argument on an empty replica set or a quorum
  // outside [1, replicas].
  ServiceEvaluator(const topo::InfrastructureNetwork& net, ServiceSpec spec);

  const ServiceSpec& spec() const noexcept { return spec_; }

  // Evaluates one failure draw into `out`, reusing its storage.
  // Allocation-free once warm.
  void evaluate(const util::Bitset& cable_dead, AvailabilityReport& out);
  AvailabilityReport evaluate(const util::Bitset& cable_dead);

  // Same evaluation against a caller-provided component decomposition of
  // the masked subgraph (must come from the same network and the same
  // cable_dead mask — the trial pipeline's per-trial decomposition). Skips
  // the internal mask + component build, so N services under one draw share
  // one decomposition. Produces bit-identical reports to evaluate().
  void evaluate_with_components(const util::Bitset& cable_dead,
                                const graph::ComponentResult& components,
                                AvailabilityReport& out);

 private:
  std::uint32_t component_of(topo::NodeId n, const util::Bitset& cable_dead,
                             const graph::ComponentResult& components) const;

  const topo::InfrastructureNetwork& net_;
  const graph::Csr* csr_;  // net_'s cached CSR, resolved once at construction
  ServiceSpec spec_;
  std::vector<topo::NodeId> replica_nodes_;
  std::vector<std::pair<geo::Continent, topo::NodeId>> anchor_nodes_;
  // Per-draw scratch.
  graph::AliveMask mask_;
  graph::ComponentScratch comp_scratch_;
  graph::ComponentResult cc_;
  std::vector<std::uint32_t> replica_components_;
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

// Trial-pipeline observer for one service: evaluates every trial's draw
// against the pipeline's shared component decomposition (no per-service
// mask/component rebuild) and accumulates read/write availability, sharing
// the failure draw with every other observer. Construction resolves the
// replica/anchor nodes once; begin_run hands each worker a copy of the
// resolved evaluator.
class AvailabilityObserver final : public sim::CheckpointableObserver {
 public:
  // Throws like ServiceEvaluator on a bad spec.
  AvailabilityObserver(const topo::InfrastructureNetwork& net,
                       ServiceSpec spec);

  const ServiceSpec& spec() const noexcept { return prototype_.spec(); }
  // Valid after TrialPipeline::run().
  const AvailabilitySweep& result() const noexcept { return result_; }

  bool needs_components() const override { return true; }
  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override;
  void end_run() override;

  // The id carries the service name and write quorum: a checkpoint written
  // for one service or quorum is rejected for another even with identical
  // chunk counts.
  std::string checkpoint_id() const override {
    return "availability/v2/" + prototype_.spec().name + "/quorum=" +
           std::to_string(prototype_.spec().write_quorum);
  }
  void save_chunk(std::size_t chunk, util::ByteWriter& out) const override;
  void load_chunk(std::size_t chunk, util::ByteReader& in) override;

 private:
  struct Slot {
    util::RunningStats read;
    util::RunningStats write;
    static constexpr auto kFields = std::tuple{&Slot::read, &Slot::write};
  };
  ServiceEvaluator prototype_;
  std::vector<ServiceEvaluator> workers_;
  std::vector<AvailabilityReport> reports_;  // per-worker scratch
  sim::ChunkSlots<Slot> slots_{"AvailabilityObserver"};
  AvailabilitySweep result_;
};

}  // namespace solarnet::services
