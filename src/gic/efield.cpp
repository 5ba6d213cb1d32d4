#include "gic/efield.h"

#include <cmath>

#include "geo/regions.h"

namespace solarnet::gic {

GeoelectricFieldModel::GeoelectricFieldModel(StormScenario storm,
                                             double ocean_boost)
    : storm_(std::move(storm)), ocean_boost_(ocean_boost) {}

double GeoelectricFieldModel::latitude_factor(double lat_deg) const noexcept {
  const double a = std::abs(lat_deg);
  const double w = std::max(0.5, storm_.falloff_width_deg);
  const double ramp = 1.0 / (1.0 + std::exp(-(a - storm_.boundary_deg) / w));
  const double floor = storm_.equatorial_floor;
  return floor + (1.0 - floor) * ramp;
}

double GeoelectricFieldModel::field_v_per_km_land(
    const geo::GeoPoint& p) const noexcept {
  return storm_.peak_field_v_per_km * latitude_factor(p.lat_deg);
}

double GeoelectricFieldModel::field_v_per_km(const geo::GeoPoint& p) const {
  double field = field_v_per_km_land(p);
  if (!geo::country_code_at(p).has_value()) field *= ocean_boost_;
  return field;
}

}  // namespace solarnet::gic
