// Geoelectric field model: maps a storm scenario to an induced surface
// field magnitude at any point on the earth. The latitude profile is a
// logistic ramp around the storm's auroral boundary with a small equatorial
// floor; ocean cells get a conductance boost (seawater over resistive rock
// increases total surface conductance — §3.1 cites 100-24,000 S offshore
// New Zealand vs 1-500 S on land).
#pragma once

#include "geo/coords.h"
#include "gic/storm.h"

namespace solarnet::gic {

class GeoelectricFieldModel {
 public:
  // `ocean_boost` multiplies the field over ocean (seawater conductance);
  // points with no country-box match are ocean.
  explicit GeoelectricFieldModel(StormScenario storm,
                                 double ocean_boost = 1.8);

  const StormScenario& storm() const noexcept { return storm_; }

  // Latitude attenuation factor in [equatorial_floor, 1].
  double latitude_factor(double lat_deg) const noexcept;

  // Field magnitude (V/km) at a point, including the ocean boost.
  double field_v_per_km(const geo::GeoPoint& p) const;

  // Field magnitude ignoring land/ocean classification.
  double field_v_per_km_land(const geo::GeoPoint& p) const noexcept;

 private:
  StormScenario storm_;
  double ocean_boost_;
};

}  // namespace solarnet::gic
