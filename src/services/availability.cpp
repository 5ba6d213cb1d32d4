#include "services/availability.h"

#include <algorithm>
#include <cmath>
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

}  // namespace

topo::NodeId nearest_connected_node(const topo::InfrastructureNetwork& net,
                                    const geo::GeoPoint& p) {
  // The prefilters test against a radius 1 km wider than the rule's, so
  // no rounding in the band or dot-product arithmetic can drop a node
  // whose haversine distance is within range; only nodes that pass get
  // the exact test.
  constexpr double kPrefilterRad = (kAttachmentRadiusKm + 1.0) /
                                   geo::kEarthRadiusKm;
  static const double kMinDot = std::cos(kPrefilterRad);
  constexpr double kBandDeg = geo::rad_to_deg(kPrefilterRad);

  const topo::AttachmentIndex& index = net.attachment_index();
  const geo::Vec3 u = geo::to_unit_vector(p);
  // A great-circle distance is at least the latitude difference. The band
  // is centred on the unit vector's latitude, which equals p's for every
  // valid point and is the geometric one for any other.
  const double lat = geo::rad_to_deg(std::asin(u.z));

  // Among nodes in range: highest degree, then shorter distance, then
  // lower id. The range tests are negated so that NaN fails them.
  topo::NodeId best = topo::kInvalidNode;
  std::size_t best_degree = 0;
  double best_d = std::numeric_limits<double>::infinity();
  for (const topo::AttachmentIndex::Entry& e :
       index.latitude_band(lat - kBandDeg, lat + kBandDeg)) {
    if (!(u.x * e.unit.x + u.y * e.unit.y + u.z * e.unit.z >= kMinDot)) {
      continue;
    }
    const double d = geo::haversine_km(p, e.location);
    if (!(d <= kAttachmentRadiusKm)) continue;
    const std::size_t degree = net.cables_at(e.id).size();
    if (degree > best_degree ||
        (degree == best_degree &&
         (d < best_d || (d == best_d && e.id < best)))) {
      best = e.id;
      best_degree = degree;
      best_d = d;
    }
  }
  if (best != topo::kInvalidNode) return best;

  // Nothing in range: the nearest node, lower id on ties.
  double nearest_d = std::numeric_limits<double>::infinity();
  for (const topo::AttachmentIndex::Entry& e : index.by_latitude) {
    const double d = geo::haversine_km(p, e.location);
    if (d < nearest_d || (d == nearest_d && e.id < best)) {
      best = e.id;
      nearest_d = d;
    }
  }
  return best;
}

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

Attachments attach(const topo::InfrastructureNetwork& net,
                   std::span<const geo::GeoPoint> points) {
  std::vector<topo::NodeId> point_nodes;
  point_nodes.reserve(points.size());
  for (const geo::GeoPoint& p : points) {
    point_nodes.push_back(nearest_connected_node(net, p));
  }
  std::vector<topo::NodeId> anchor_nodes;
  for (const auto& [continent, anchor] : continent_anchors()) {
    anchor_nodes.push_back(nearest_connected_node(net, anchor));
  }

  Attachments out;
  out.nodes = point_nodes;
  out.nodes.insert(out.nodes.end(), anchor_nodes.begin(), anchor_nodes.end());
  std::sort(out.nodes.begin(), out.nodes.end());
  out.nodes.erase(std::unique(out.nodes.begin(), out.nodes.end()),
                  out.nodes.end());
  const auto index_of = [&](topo::NodeId n) {
    return static_cast<std::uint32_t>(
        std::lower_bound(out.nodes.begin(), out.nodes.end(), n) -
        out.nodes.begin());
  };
  for (const topo::NodeId n : point_nodes) {
    out.point_node.push_back(index_of(n));
  }
  for (std::size_t a = 0; a < anchor_nodes.size(); ++a) {
    out.anchors.emplace_back(continent_anchors()[a].first,
                             index_of(anchor_nodes[a]));
  }
  return out;
}

ServiceEvaluator::ServiceEvaluator(const topo::InfrastructureNetwork& net,
                                   ServiceSpec spec)
    : net_(net), spec_(std::move(spec)) {
  if (spec_.replicas.empty() || spec_.write_quorum == 0 ||
      spec_.write_quorum > spec_.replicas.size()) {
    throw std::invalid_argument("ServiceEvaluator: bad service spec");
  }
  Attachments at = attach(net_, spec_.replicas);
  nodes_ = std::move(at.nodes);
  anchors_ = std::move(at.anchors);
  replicas_.assign(nodes_.size(), 0);
  for (const std::uint32_t i : at.point_node) ++replicas_[i];
}

void ServiceEvaluator::evaluate(const std::uint32_t* labels,
                                AvailabilityReport& out) const {
  out.service = spec_.name;
  out.per_continent.clear();
  out.read_availability = 0.0;
  out.write_availability = 0.0;
  for (const auto& [continent, anchor] : anchors_) {
    ContinentAvailability avail;
    avail.continent = continent;
    const std::uint32_t client = labels[anchor];
    if (client != graph::kNoLabel) {
      std::uint32_t reachable = 0;
      for (std::size_t i = 0; i < replicas_.size(); ++i) {
        reachable += labels[i] == client ? replicas_[i] : 0;
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

void ServiceEvaluator::evaluate(const util::Bitset& cable_dead,
                                AvailabilityReport& out) {
  evaluate(draw_.label(net_, cable_dead, nodes_), out);
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
    : evaluator_(net, std::move(spec)) {}

void AvailabilityObserver::begin_run(const sim::TrialPipeline& pipeline,
                                     std::size_t workers, std::size_t chunks) {
  labels_.bind(pipeline, evaluator_.nodes(), workers);
  reports_.assign(workers, {});
  slots_.assign(chunks);
  result_ = {};
  result_.service = evaluator_.spec().name;
}

void AvailabilityObserver::add(const std::uint32_t* labels,
                               std::size_t worker, std::size_t chunk) {
  AvailabilityReport& report = reports_[worker];
  evaluator_.evaluate(labels_.gather(labels, worker), report);
  Slot& slot = slots_.at(chunk);
  slot.read.add(report.read_availability);
  slot.write.add(report.write_availability);
}

void AvailabilityObserver::observe(const sim::TrialView& view,
                                   std::size_t worker, std::size_t chunk) {
  add(view.labels, worker, chunk);
}

void AvailabilityObserver::observe_batch(const sim::BatchTrialView& view,
                                         std::size_t worker,
                                         std::size_t first_chunk) {
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    add(view.labels + lane * view.label_stride, worker,
        first_chunk + lane / sim::kTrialChunk);
  }
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
  labels_.release();
  reports_.clear();
  slots_.release();
}

}  // namespace solarnet::services
