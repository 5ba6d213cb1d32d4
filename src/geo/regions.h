// Coarse political/continental geography: continents and a bounding-box
// country classifier used to tag synthetic infrastructure points whose
// generator does not already know a country. The paper's 40°/60° latitude
// bands live with the failure models that use them (gic/failure_model.h).
#pragma once

#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "geo/coords.h"

namespace solarnet::geo {

enum class Continent {
  kNorthAmerica,
  kSouthAmerica,
  kEurope,
  kAfrica,
  kAsia,
  kOceania,
  kAntarctica,
};

std::string_view to_string(Continent c) noexcept;

// An axis-aligned lat/lon box. Handles boxes that cross the antimeridian
// (west > east means the box wraps).
struct GeoBox {
  double south = 0.0;
  double north = 0.0;
  double west = 0.0;
  double east = 0.0;

  bool contains(const GeoPoint& p) const noexcept;
};

struct CountryInfo {
  std::string code;  // ISO 3166-1 alpha-2
  std::string name;
  Continent continent;
  std::vector<GeoBox> boxes;  // coarse footprint
};

// The registry of countries the classifier knows about (major economies and
// every country named in the paper's §4.3.4 analysis).
const std::vector<CountryInfo>& country_registry();

// Classifies a point. Boxes are checked in registry order (more specific
// countries first), so overlaps resolve deterministically. Returns
// std::nullopt for points that land in no box (open ocean, minor states).
std::optional<std::string> country_code_at(const GeoPoint& p);

// Continent lookup for a known country code; throws std::out_of_range for
// unknown codes.
Continent continent_of(std::string_view country_code);

// Continent for an arbitrary point: country box if one matches, otherwise a
// coarse continental box fallback (never fails for land-ish coordinates;
// remote ocean points snap to the nearest continental box).
Continent continent_at(const GeoPoint& p);

}  // namespace solarnet::geo
