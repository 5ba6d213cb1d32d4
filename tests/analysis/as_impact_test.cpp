#include "analysis/as_impact.h"

#include <gtest/gtest.h>

namespace solarnet::analysis {
namespace {

datasets::RouterDataset tiny_routers() {
  using datasets::RouterRecord;
  std::vector<RouterRecord> records = {
      {{65.0, 10.0}, 0},  // AS0: far north (direct under any big storm)
      {{60.0, 12.0}, 0},
      {{5.0, 100.0}, 1},  // AS1: equatorial (clear)
      {{41.0, -74.0}, 2},  // AS2: NYC — dark grid under Carrington,
                           // below the direct-field threshold for
                           // high-boundary storms
  };
  return datasets::RouterDataset(std::move(records), 3);
}

TEST(AsImpact, ClassifiesByFieldAndGrid) {
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto grid = powergrid::evaluate_grid(field);
  const auto ds = tiny_routers();
  const AsImpactSummary s = classify_as_impact(ds, field, grid);
  EXPECT_EQ(s.as_total, 3u);
  EXPECT_GE(s.direct, 1u);  // AS0 is deep in the field
  EXPECT_EQ(s.direct + s.grid_impacted + s.clear, s.as_total);
  EXPECT_NEAR(s.router_share_direct + s.router_share_grid +
                  s.router_share_clear,
              1.0, 1e-12);
}

TEST(AsImpact, EquatorialAsStaysClearUnderModerateStorm) {
  const gic::GeoelectricFieldModel field(gic::moderate_storm());
  const auto ds = tiny_routers();
  const AsImpactSummary s = classify_as_impact(ds, field, {});
  // AS1 (equator) and AS2 (NYC, below the moderate storm's 55-deg
  // boundary) are clear; AS0 (60-65N) is direct.
  EXPECT_EQ(s.direct, 1u);
  EXPECT_EQ(s.clear, 2u);
  EXPECT_EQ(s.grid_impacted, 0u);  // no grid passed
}

TEST(AsImpact, StrongerStormImpactsMore) {
  const auto ds = datasets::make_router_dataset(
      {.router_count = 20000, .as_count = 2000, .seed = 9});
  const gic::GeoelectricFieldModel weak(gic::moderate_storm());
  const gic::GeoelectricFieldModel strong(gic::carrington_1859());
  const auto sw = classify_as_impact(ds, weak, {});
  const auto ss = classify_as_impact(ds, strong, {});
  EXPECT_GT(ss.fraction_direct(), sw.fraction_direct());
  EXPECT_GT(ss.fraction_direct(), 0.3);  // most ASes live up north
}

TEST(AsImpact, GridCouplingOnlyAddsImpact) {
  const auto ds = datasets::make_router_dataset(
      {.router_count = 20000, .as_count = 2000, .seed = 9});
  const gic::GeoelectricFieldModel field(gic::carrington_1859());
  const auto without = classify_as_impact(ds, field, {});
  const auto grid = powergrid::evaluate_grid(field);
  const auto with = classify_as_impact(ds, field, grid);
  EXPECT_EQ(with.direct, without.direct);  // direct class unchanged
  EXPECT_LE(with.clear, without.clear);    // grid moves clear -> impacted
}

TEST(AsImpact, Validation) {
  const auto ds = tiny_routers();
  const gic::GeoelectricFieldModel field(gic::quebec_1989());
  std::vector<powergrid::GridOutcome> wrong_size(3);
  EXPECT_THROW(classify_as_impact(ds, field, wrong_size),
               std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::analysis
