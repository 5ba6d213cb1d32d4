#include "gic/induction.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "geo/distance.h"

namespace solarnet::gic {

namespace {
// Sampling step for the path integral.
constexpr double kIntegrationStepKm = 50.0;
}  // namespace

CableInduction compute_cable_induction(const topo::InfrastructureNetwork& net,
                                       topo::CableId cable,
                                       const GeoelectricFieldModel& field,
                                       double grounding_interval_km) {
  if (grounding_interval_km <= 0.0) {
    throw std::invalid_argument(
        "compute_cable_induction: grounding_interval_km must be > 0");
  }
  const topo::Cable& c = net.cable(cable);

  CableInduction result;
  double section_potential = 0.0;
  double section_length = 0.0;

  auto close_section = [&] {
    if (section_length <= 0.0) return;
    result.max_section_potential_v =
        std::max(result.max_section_potential_v, section_potential);
    const double resistance = kFeedResistanceOhmPerKm * section_length;
    result.peak_gic_amp =
        std::max(result.peak_gic_amp, section_potential / resistance);
    section_potential = 0.0;
    section_length = 0.0;
  };

  for (const topo::CableSegment& seg : c.segments) {
    const geo::GeoPoint& a = net.node(seg.a).location;
    const geo::GeoPoint& b = net.node(seg.b).location;
    // The stated segment length can exceed the great-circle distance; the
    // integral walks the great circle but weights by the stated length so
    // meander is accounted for.
    const double gc = geo::haversine_km(a, b);
    const double stretch = gc > 0.0 ? seg.length_km / gc : 1.0;
    const auto path = geo::sample_path(a, b, kIntegrationStepKm);
    for (std::size_t i = 1; i < path.size(); ++i) {
      const double ds =
          geo::haversine_km(path[i - 1], path[i]) * std::max(1.0, stretch);
      const geo::GeoPoint mid =
          geo::interpolate(path[i - 1], path[i], 0.5);
      const double e = field.field_v_per_km(mid);
      result.total_potential_v += e * ds;
      section_potential += e * ds;
      section_length += ds;
      if (section_length >= grounding_interval_km) close_section();
    }
  }
  close_section();

  result.overload_factor = result.peak_gic_amp / kOperatingCurrentAmp;
  return result;
}

std::vector<CableInduction> compute_network_induction(
    const topo::InfrastructureNetwork& net,
    const GeoelectricFieldModel& field) {
  std::vector<CableInduction> out;
  out.reserve(net.cable_count());
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    out.push_back(compute_cable_induction(net, c, field));
  }
  return out;
}

}  // namespace solarnet::gic
