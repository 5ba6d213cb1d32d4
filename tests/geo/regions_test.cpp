#include "geo/regions.h"

#include <gtest/gtest.h>

namespace solarnet::geo {
namespace {

TEST(GeoBox, ContainsBasics) {
  const GeoBox box{10.0, 20.0, -5.0, 5.0};
  EXPECT_TRUE(box.contains({15.0, 0.0}));
  EXPECT_TRUE(box.contains({10.0, -5.0}));  // inclusive edges
  EXPECT_FALSE(box.contains({9.9, 0.0}));
  EXPECT_FALSE(box.contains({15.0, 6.0}));
}

TEST(GeoBox, WrapsAntimeridian) {
  const GeoBox fiji{-20.0, -15.0, 175.0, -175.0};
  EXPECT_TRUE(fiji.contains({-18.0, 179.0}));
  EXPECT_TRUE(fiji.contains({-18.0, -179.0}));
  EXPECT_FALSE(fiji.contains({-18.0, 0.0}));
}

TEST(CountryLookup, MajorCities) {
  EXPECT_EQ(country_code_at({40.71, -74.01}).value_or(""), "US");   // NYC
  EXPECT_EQ(country_code_at({51.51, -0.13}).value_or(""), "GB");    // London
  EXPECT_EQ(country_code_at({1.35, 103.82}).value_or(""), "SG");    // Singapore
  EXPECT_EQ(country_code_at({35.68, 139.69}).value_or(""), "JP");   // Tokyo
  EXPECT_EQ(country_code_at({-33.87, 151.21}).value_or(""), "AU");  // Sydney
  EXPECT_EQ(country_code_at({19.08, 72.88}).value_or(""), "IN");    // Mumbai
  EXPECT_EQ(country_code_at({31.23, 121.47}).value_or(""), "CN");   // Shanghai
  EXPECT_EQ(country_code_at({-23.55, -46.63}).value_or(""), "BR");  // Sao Paulo
  EXPECT_EQ(country_code_at({-33.92, 18.42}).value_or(""), "ZA");   // Cape Town
}

TEST(CountryLookup, NestedCountriesResolveBeforeNeighbors) {
  // Singapore sits inside the Malaysia/Indonesia bounding region.
  EXPECT_EQ(country_code_at({1.3, 103.8}).value_or(""), "SG");
  // Alaska must be US, not Canada.
  EXPECT_EQ(country_code_at({61.22, -149.90}).value_or(""), "US");
  // Hawaii must be US.
  EXPECT_EQ(country_code_at({21.31, -157.86}).value_or(""), "US");
  // Portugal before Spain.
  EXPECT_EQ(country_code_at({38.72, -9.14}).value_or(""), "PT");
}

TEST(CountryLookup, OpenOceanIsNullopt) {
  EXPECT_FALSE(country_code_at({0.0, -30.0}).has_value());      // mid Atlantic
  EXPECT_FALSE(country_code_at({-40.0, -120.0}).has_value());   // S Pacific
}

TEST(ContinentOf, KnownCodes) {
  EXPECT_EQ(continent_of("US"), Continent::kNorthAmerica);
  EXPECT_EQ(continent_of("BR"), Continent::kSouthAmerica);
  EXPECT_EQ(continent_of("DE"), Continent::kEurope);
  EXPECT_EQ(continent_of("ZA"), Continent::kAfrica);
  EXPECT_EQ(continent_of("JP"), Continent::kAsia);
  EXPECT_EQ(continent_of("NZ"), Continent::kOceania);
}

TEST(ContinentOf, UnknownCodeThrows) {
  EXPECT_THROW(continent_of("XX"), std::out_of_range);
}

TEST(ContinentAt, FallsBackForNonCountryPoints) {
  EXPECT_EQ(continent_at({46.0, 14.0}), Continent::kEurope);   // Slovenia-ish
  EXPECT_EQ(continent_at({15.0, 30.0}), Continent::kAfrica);   // Sudan-ish
  EXPECT_EQ(continent_at({-75.0, 0.0}), Continent::kAntarctica);
  EXPECT_EQ(continent_at({64.18, -51.72}), Continent::kNorthAmerica);  // Nuuk
}

TEST(ContinentAt, RemoteOceanSnapsSanely) {
  EXPECT_EQ(continent_at({-30.0, -100.0}), Continent::kSouthAmerica);
  EXPECT_EQ(continent_at({-25.0, 160.0}), Continent::kOceania);
}

TEST(CountryRegistry, CoversPaperCountries) {
  // Every country named in §4.3.4 must be classifiable.
  for (const char* code : {"US", "CN", "IN", "SG", "GB", "ZA", "AU", "NZ",
                           "BR", "CA", "JP", "HK", "ID", "PH", "MX", "CR",
                           "PT", "ES", "FR", "NO", "SO", "MZ", "MG"}) {
    EXPECT_NO_THROW(continent_of(code)) << code;
  }
}

TEST(CountryRegistry, BoxesContainTheirOwnCountry) {
  for (const CountryInfo& c : country_registry()) {
    ASSERT_FALSE(c.boxes.empty()) << c.code;
    for (const GeoBox& b : c.boxes) {
      EXPECT_LE(b.south, b.north) << c.code;
    }
  }
}

}  // namespace
}  // namespace solarnet::geo
