#include "services/availability.h"

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "geo/distance.h"

namespace solarnet::services {

namespace {

// Continent "client anchors": a representative populous coastal location
// per continent, mapped to the nearest landing point.
const std::vector<std::pair<geo::Continent, geo::GeoPoint>>&
continent_anchors() {
  static const std::vector<std::pair<geo::Continent, geo::GeoPoint>> anchors =
      {
          {geo::Continent::kNorthAmerica, {40.7, -74.0}},   // New York
          {geo::Continent::kSouthAmerica, {-23.5, -46.6}},  // Sao Paulo
          {geo::Continent::kEurope, {50.1, 8.7}},           // Frankfurt
          {geo::Continent::kAfrica, {6.5, 3.4}},            // Lagos
          {geo::Continent::kAsia, {1.35, 103.8}},           // Singapore
          {geo::Continent::kOceania, {-33.9, 151.2}},       // Sydney
      };
  return anchors;
}

// Clients and replicas reach the submarine plant through terrestrial
// networks, so they attach to the best-connected landing station in their
// area, not literally the closest beach: among nodes within the attachment
// radius, prefer the highest cable degree (nearest wins ties); with no
// node in range, fall back to the globally nearest.
topo::NodeId nearest_connected_node(const topo::InfrastructureNetwork& net,
                                    const geo::GeoPoint& p) {
  constexpr double kAttachmentRadiusKm = 1500.0;
  topo::NodeId best_in_range = topo::kInvalidNode;
  std::size_t best_degree = 0;
  double best_in_range_d = std::numeric_limits<double>::infinity();
  topo::NodeId nearest = topo::kInvalidNode;
  double nearest_d = std::numeric_limits<double>::infinity();
  for (topo::NodeId n = 0; n < net.node_count(); ++n) {
    const std::size_t degree = net.cables_at(n).size();
    if (degree == 0) continue;
    const double d = geo::haversine_km(p, net.node(n).location);
    if (d < nearest_d) {
      nearest_d = d;
      nearest = n;
    }
    if (d <= kAttachmentRadiusKm &&
        (degree > best_degree ||
         (degree == best_degree && d < best_in_range_d))) {
      best_degree = degree;
      best_in_range_d = d;
      best_in_range = n;
    }
  }
  return best_in_range != topo::kInvalidNode ? best_in_range : nearest;
}

// A node that lost every cable is not "nowhere" — it is its own island
// partition: parties attached to the same dark landing station can still
// talk over the local terrestrial network. Each dark node gets a unique
// synthetic component id above this base so co-located pairs match.
constexpr std::uint32_t kIslandBase = 0x80000000u;

}  // namespace

ServiceSpec service_from_datacenters(const std::string& name,
                                     const std::vector<geo::GeoPoint>& sites,
                                     std::size_t write_quorum) {
  ServiceSpec spec;
  spec.name = name;
  spec.replicas = sites;
  spec.write_quorum = write_quorum;
  return spec;
}

const std::vector<std::pair<geo::Continent, double>>&
continent_population_shares() {
  static const std::vector<std::pair<geo::Continent, double>> shares = {
      {geo::Continent::kAsia, 0.585},
      {geo::Continent::kAfrica, 0.18},
      {geo::Continent::kEurope, 0.10},
      {geo::Continent::kNorthAmerica, 0.075},
      {geo::Continent::kSouthAmerica, 0.055},
      {geo::Continent::kOceania, 0.005},
  };
  return shares;
}

ServiceEvaluator::ServiceEvaluator(const topo::InfrastructureNetwork& net,
                                   ServiceSpec spec)
    : net_(net), csr_(&net.csr()), spec_(std::move(spec)) {
  if (spec_.replicas.empty() || spec_.write_quorum == 0 ||
      spec_.write_quorum > spec_.replicas.size()) {
    throw std::invalid_argument("ServiceEvaluator: bad service spec");
  }
  replica_nodes_.reserve(spec_.replicas.size());
  for (const geo::GeoPoint& r : spec_.replicas) {
    replica_nodes_.push_back(nearest_connected_node(net_, r));
  }
  anchor_nodes_.reserve(continent_anchors().size());
  for (const auto& [continent, anchor] : continent_anchors()) {
    anchor_nodes_.emplace_back(continent,
                               nearest_connected_node(net_, anchor));
  }
}

std::uint32_t ServiceEvaluator::component_of(
    topo::NodeId n, const util::Bitset& cable_dead,
    const graph::ComponentResult& components) const {
  if (n == topo::kInvalidNode) return graph::ComponentResult::kNoComponent;
  if (net_.node_unreachable(n, cable_dead)) return kIslandBase + n;
  return components.component[n];
}

void ServiceEvaluator::evaluate(const util::Bitset& cable_dead,
                                AvailabilityReport& out) {
  net_.mask_for_failures(cable_dead, mask_);
  graph::connected_components(*csr_, mask_, comp_scratch_, cc_);
  evaluate_with_components(cable_dead, cc_, out);
}

void ServiceEvaluator::evaluate_with_components(
    const util::Bitset& cable_dead, const graph::ComponentResult& components,
    AvailabilityReport& out) {
  replica_components_.clear();
  for (topo::NodeId n : replica_nodes_) {
    replica_components_.push_back(component_of(n, cable_dead, components));
  }

  out.service = spec_.name;
  out.per_continent.clear();
  out.read_availability = 0.0;
  out.write_availability = 0.0;
  for (const auto& [continent, anchor_node] : anchor_nodes_) {
    ContinentAvailability avail;
    avail.continent = continent;
    const std::uint32_t client =
        component_of(anchor_node, cable_dead, components);
    if (client != graph::ComponentResult::kNoComponent) {
      std::size_t reachable = 0;
      for (std::uint32_t rc : replica_components_) {
        if (rc == client) ++reachable;
      }
      avail.read_available = reachable >= 1;
      // Replicas reachable from the client are in the same component, so
      // they are mutually connected: quorum is just a count.
      avail.write_available = reachable >= spec_.write_quorum;
    }
    out.per_continent.push_back(avail);
  }

  for (const auto& [continent, share] : continent_population_shares()) {
    for (const ContinentAvailability& avail : out.per_continent) {
      if (avail.continent != continent) continue;
      if (avail.read_available) out.read_availability += share;
      if (avail.write_available) out.write_availability += share;
    }
  }
}

AvailabilityReport ServiceEvaluator::evaluate(const util::Bitset& cable_dead) {
  AvailabilityReport out;
  evaluate(cable_dead, out);
  return out;
}

AvailabilityReport evaluate_service(const topo::InfrastructureNetwork& net,
                                    const std::vector<bool>& cable_dead,
                                    const ServiceSpec& service) {
  ServiceEvaluator evaluator(net, service);
  return evaluator.evaluate(util::Bitset::from_bools(cable_dead));
}

AvailabilitySweep availability_sweep(const sim::FailureSimulator& simulator,
                                     const gic::RepeaterFailureModel& model,
                                     const ServiceSpec& service,
                                     std::size_t draws, std::uint64_t seed,
                                     std::size_t threads) {
  AvailabilityObserver observer(simulator.network(), service);
  sim::TrialPipeline pipeline(simulator, model);
  pipeline.add_observer(observer);
  pipeline.run(draws, seed, threads);
  return observer.result();
}

AvailabilityObserver::AvailabilityObserver(
    const topo::InfrastructureNetwork& net, ServiceSpec spec)
    : prototype_(net, std::move(spec)) {}

void AvailabilityObserver::begin_run(const sim::TrialPipeline& /*pipeline*/,
                                     std::size_t workers, std::size_t chunks) {
  // Fill-construct (ServiceEvaluator is copyable but not assignable).
  workers_ = std::vector<ServiceEvaluator>(workers, prototype_);
  reports_.assign(workers, {});
  slots_.assign(chunks);
  result_ = {};
  result_.service = prototype_.spec().name;
}

void AvailabilityObserver::observe(const sim::TrialView& view,
                                   std::size_t worker, std::size_t chunk) {
  AvailabilityReport& report = reports_[worker];
  workers_[worker].evaluate_with_components(*view.cable_dead, *view.components,
                                            report);
  Slot& slot = slots_.at(chunk);
  slot.read.add(report.read_availability);
  slot.write.add(report.write_availability);
}

void AvailabilityObserver::save_chunk(std::size_t chunk,
                                      util::ByteWriter& out) const {
  slots_.save(chunk, out);
}

void AvailabilityObserver::load_chunk(std::size_t chunk, util::ByteReader& in) {
  slots_.load(chunk, in);
}

void AvailabilityObserver::end_run() {
  const Slot merged = slots_.merged();
  result_.read_availability = merged.read;
  result_.write_availability = merged.write;
  result_.draws = merged.read.count();
  workers_.clear();
  reports_.clear();
  slots_.release();
}

}  // namespace solarnet::services
