#include "geo/regions.h"

#include <stdexcept>

namespace solarnet::geo {

std::string_view to_string(Continent c) noexcept {
  switch (c) {
    case Continent::kNorthAmerica:
      return "North America";
    case Continent::kSouthAmerica:
      return "South America";
    case Continent::kEurope:
      return "Europe";
    case Continent::kAfrica:
      return "Africa";
    case Continent::kAsia:
      return "Asia";
    case Continent::kOceania:
      return "Oceania";
    case Continent::kAntarctica:
      return "Antarctica";
  }
  return "unknown";
}

bool GeoBox::contains(const GeoPoint& p) const noexcept {
  if (p.lat_deg < south || p.lat_deg > north) return false;
  if (west <= east) return p.lon_deg >= west && p.lon_deg <= east;
  // Wrapping box (crosses the antimeridian).
  return p.lon_deg >= west || p.lon_deg <= east;
}

namespace {

std::vector<CountryInfo> build_registry() {
  // Coarse bounding boxes; order matters (first match wins), so countries
  // nested inside larger neighbours' boxes come first. Boxes are deliberately
  // approximate — the analyses only need country tags at landing-point
  // granularity.
  std::vector<CountryInfo> r;
  auto add = [&](std::string code, std::string name, Continent cont,
                 std::vector<GeoBox> boxes) {
    r.push_back({std::move(code), std::move(name), cont, std::move(boxes)});
  };

  // --- Small/nested countries first ---
  add("SG", "Singapore", Continent::kAsia, {{1.15, 1.48, 103.6, 104.1}});
  add("PT", "Portugal", Continent::kEurope,
      {{36.9, 42.2, -9.6, -6.2}, {32.4, 33.2, -17.3, -16.2}  /* Madeira */,
       {36.9, 39.8, -31.3, -25.0} /* Azores */});
  add("NL", "Netherlands", Continent::kEurope, {{50.7, 53.6, 3.3, 7.2}});
  add("BE", "Belgium", Continent::kEurope, {{49.5, 51.5, 2.5, 6.4}});
  add("CH", "Switzerland", Continent::kEurope, {{45.8, 47.8, 5.9, 10.5}});
  add("IE", "Ireland", Continent::kEurope, {{51.4, 55.4, -10.6, -5.9}});
  add("GB", "United Kingdom", Continent::kEurope, {{49.9, 59.4, -8.2, 1.8}});
  add("DK", "Denmark", Continent::kEurope, {{54.5, 57.8, 8.0, 12.7}});
  add("NO", "Norway", Continent::kEurope, {{57.9, 71.2, 4.6, 31.1}});
  add("SE", "Sweden", Continent::kEurope, {{55.3, 69.1, 11.1, 24.2}});
  add("FI", "Finland", Continent::kEurope, {{59.8, 70.1, 20.5, 31.6}});
  add("FR", "France", Continent::kEurope, {{42.3, 51.1, -4.8, 8.2}});
  add("ES", "Spain", Continent::kEurope,
      {{36.0, 43.8, -9.3, 3.3}, {27.6, 29.5, -18.2, -13.4} /* Canaries */});
  add("DE", "Germany", Continent::kEurope, {{47.3, 55.1, 5.9, 15.0}});
  add("IT", "Italy", Continent::kEurope, {{36.6, 47.1, 6.6, 18.5}});
  add("GR", "Greece", Continent::kEurope, {{34.8, 41.8, 19.4, 28.2}});
  add("PL", "Poland", Continent::kEurope, {{49.0, 54.8, 14.1, 24.2}});
  add("IS", "Iceland", Continent::kEurope, {{63.3, 66.6, -24.5, -13.5}});
  add("RU", "Russia", Continent::kAsia,
      {{41.2, 77.0, 27.3, 180.0}, {41.2, 77.0, -180.0, -169.0}});

  add("JP", "Japan", Continent::kAsia, {{24.0, 45.6, 122.9, 146.0}});
  add("KR", "South Korea", Continent::kAsia, {{33.1, 38.6, 125.9, 129.6}});
  add("TW", "Taiwan", Continent::kAsia, {{21.8, 25.3, 120.0, 122.0}});
  add("HK", "Hong Kong", Continent::kAsia, {{22.1, 22.6, 113.8, 114.5}});
  add("PH", "Philippines", Continent::kAsia, {{4.6, 21.1, 116.9, 126.6}});
  add("MY", "Malaysia", Continent::kAsia,
      {{0.8, 6.7, 99.6, 104.6}, {0.8, 7.4, 109.5, 119.3}});
  add("ID", "Indonesia", Continent::kAsia, {{-11.0, 6.1, 95.0, 141.0}});
  add("VN", "Vietnam", Continent::kAsia, {{8.4, 23.4, 102.1, 109.5}});
  add("TH", "Thailand", Continent::kAsia, {{5.6, 20.5, 97.3, 105.7}});
  add("CN", "China", Continent::kAsia, {{18.1, 53.6, 73.5, 134.8}});
  add("IN", "India", Continent::kAsia,
      {{6.5, 35.5, 68.1, 97.4}, {6.7, 13.7, 92.2, 94.3} /* Andaman */});
  add("LK", "Sri Lanka", Continent::kAsia, {{5.9, 9.9, 79.6, 81.9}});
  add("AE", "UAE", Continent::kAsia, {{22.6, 26.1, 51.5, 56.4}});
  add("SA", "Saudi Arabia", Continent::kAsia, {{16.3, 32.2, 34.5, 55.7}});
  add("OM", "Oman", Continent::kAsia, {{16.6, 26.4, 52.0, 59.9}});
  add("IL", "Israel", Continent::kAsia, {{29.4, 33.4, 34.2, 35.9}});
  add("TR", "Turkey", Continent::kAsia, {{35.8, 42.2, 25.9, 44.8}});

  add("EG", "Egypt", Continent::kAfrica, {{21.9, 31.7, 24.7, 36.9}});
  add("DJ", "Djibouti", Continent::kAfrica, {{10.9, 12.8, 41.7, 43.5}});
  add("SO", "Somalia", Continent::kAfrica, {{-1.7, 12.1, 40.9, 51.5}});
  add("KE", "Kenya", Continent::kAfrica, {{-4.8, 5.1, 33.9, 41.9}});
  add("MZ", "Mozambique", Continent::kAfrica, {{-26.9, -10.4, 30.2, 40.9}});
  add("MG", "Madagascar", Continent::kAfrica, {{-25.7, -11.9, 43.2, 50.5}});
  add("ZA", "South Africa", Continent::kAfrica, {{-34.9, -22.1, 16.4, 32.9}});
  add("NG", "Nigeria", Continent::kAfrica, {{4.2, 13.9, 2.7, 14.7}});
  add("GH", "Ghana", Continent::kAfrica, {{4.7, 11.2, -3.3, 1.2}});
  add("SN", "Senegal", Continent::kAfrica, {{12.3, 16.7, -17.6, -11.3}});
  add("MA", "Morocco", Continent::kAfrica, {{27.6, 35.9, -13.2, -1.0}});

  add("MX", "Mexico", Continent::kNorthAmerica, {{14.5, 32.7, -117.2, -86.7}});
  add("CR", "Costa Rica", Continent::kNorthAmerica,
      {{8.0, 11.2, -85.9, -82.5}});
  add("PA", "Panama", Continent::kNorthAmerica, {{7.2, 9.7, -83.1, -77.1}});
  add("CU", "Cuba", Continent::kNorthAmerica, {{19.8, 23.3, -85.0, -74.1}});
  add("BS", "Bahamas", Continent::kNorthAmerica, {{20.9, 27.3, -79.5, -72.7}});
  add("PR", "Puerto Rico", Continent::kNorthAmerica,
      {{17.9, 18.6, -67.3, -65.2}});
  add("VG", "Virgin Islands", Continent::kNorthAmerica,
      {{17.6, 18.8, -65.1, -64.2}});
  // US split into conterminous + Alaska + Hawaii so Canada doesn't swallow
  // Alaska and mid-Pacific points tag as Hawaii.
  add("US", "United States", Continent::kNorthAmerica,
      {{24.4, 49.0, -124.8, -66.9},
       {51.0, 71.5, -180.0, -129.9} /* Alaska */,
       {18.7, 22.5, -160.4, -154.5} /* Hawaii */});
  add("CA", "Canada", Continent::kNorthAmerica, {{41.7, 83.2, -141.0, -52.5}});
  add("GL", "Greenland", Continent::kNorthAmerica,
      {{59.7, 83.7, -73.3, -11.3}});

  add("CO", "Colombia", Continent::kSouthAmerica, {{-4.3, 12.6, -79.1, -66.8}});
  add("VE", "Venezuela", Continent::kSouthAmerica, {{0.6, 12.3, -73.4, -59.8}});
  add("BR", "Brazil", Continent::kSouthAmerica, {{-33.8, 5.3, -74.0, -34.7}});
  add("AR", "Argentina", Continent::kSouthAmerica,
      {{-55.1, -21.8, -73.6, -53.6}});
  add("CL", "Chile", Continent::kSouthAmerica, {{-56.0, -17.5, -75.8, -66.4}});
  add("PE", "Peru", Continent::kSouthAmerica, {{-18.4, -0.0, -81.4, -68.6}});
  add("UY", "Uruguay", Continent::kSouthAmerica,
      {{-35.0, -30.1, -58.5, -53.1}});

  add("NZ", "New Zealand", Continent::kOceania, {{-47.4, -34.3, 166.3, 178.6}});
  add("AU", "Australia", Continent::kOceania, {{-43.7, -10.6, 112.9, 153.7}});
  add("FJ", "Fiji", Continent::kOceania,
      {{-19.2, -16.1, 176.8, 180.0}, {-19.2, -16.1, -180.0, -178.2}});
  add("GU", "Guam", Continent::kOceania, {{13.2, 13.7, 144.6, 145.0}});
  add("FM", "Micronesia", Continent::kOceania, {{5.2, 10.1, 138.0, 163.1}});

  return r;
}

struct ContinentBox {
  Continent continent;
  GeoBox box;
};

const std::vector<ContinentBox>& continent_boxes() {
  static const std::vector<ContinentBox> boxes = {
      {Continent::kEurope, {36.0, 71.5, -11.0, 40.0}},
      {Continent::kAsia, {0.0, 77.0, 40.0, 180.0}},
      {Continent::kAsia, {-11.0, 0.0, 95.0, 141.0}},  // maritime SE Asia
      {Continent::kAfrica, {-35.5, 36.0, -18.0, 52.0}},
      {Continent::kNorthAmerica, {7.0, 84.0, -169.0, -52.0}},
      {Continent::kSouthAmerica, {-56.5, 13.0, -82.0, -34.0}},
      {Continent::kOceania, {-48.0, 20.0, 110.0, 180.0}},
      {Continent::kOceania, {-48.0, 20.0, -180.0, -130.0}},
      {Continent::kAntarctica, {-90.0, -60.0, -180.0, 180.0}},
  };
  return boxes;
}

}  // namespace

const std::vector<CountryInfo>& country_registry() {
  static const std::vector<CountryInfo> registry = build_registry();
  return registry;
}

std::optional<std::string> country_code_at(const GeoPoint& p) {
  for (const CountryInfo& c : country_registry()) {
    for (const GeoBox& box : c.boxes) {
      if (box.contains(p)) return c.code;
    }
  }
  return std::nullopt;
}

Continent continent_of(std::string_view country_code) {
  for (const CountryInfo& c : country_registry()) {
    if (c.code == country_code) return c.continent;
  }
  throw std::out_of_range("continent_of: unknown country code '" +
                          std::string(country_code) + "'");
}

Continent continent_at(const GeoPoint& p) {
  if (auto code = country_code_at(p)) return continent_of(*code);
  for (const ContinentBox& cb : continent_boxes()) {
    if (cb.box.contains(p)) return cb.continent;
  }
  // Remote ocean: snap by hemisphere/longitude.
  if (p.lat_deg < -60.0) return Continent::kAntarctica;
  if (p.lon_deg >= -30.0 && p.lon_deg < 60.0) {
    return p.lat_deg >= 36.0 ? Continent::kEurope : Continent::kAfrica;
  }
  if (p.lon_deg >= 60.0 && p.lon_deg <= 180.0) {
    return p.lat_deg >= 0.0 ? Continent::kAsia : Continent::kOceania;
  }
  return p.lat_deg >= 13.0 ? Continent::kNorthAmerica
                           : Continent::kSouthAmerica;
}

}  // namespace solarnet::geo
