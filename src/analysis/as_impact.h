// AS-level storm impact (§4.4.1's qualitative argument, made quantitative):
// "the impact on an AS depends on its presence in the vulnerable latitude
// region", and "with a large spread, it is likely that an AS will be
// directly impacted". We classify each AS under a storm scenario by its
// router footprint: directly impacted (routers in the high-field region),
// grid-impacted (routers in blacked-out grid regions), or clear — and
// weight by AS size to estimate the affected share of the Internet's
// router population.
#pragma once

#include <cstddef>
#include <vector>

#include "datasets/routers.h"
#include "gic/efield.h"
#include "powergrid/grid.h"

namespace solarnet::analysis {

enum class AsImpactClass {
  kClear,         // no router in a high-field or dark-grid area
  kGridImpacted,  // routers powered by a blacked-out grid, field moderate
  kDirect,        // routers inside the storm's high-field region
};

struct AsImpactSummary {
  std::size_t as_total = 0;
  std::size_t direct = 0;
  std::size_t grid_impacted = 0;
  std::size_t clear = 0;
  // Router-weighted shares (large ASes count more).
  double router_share_direct = 0.0;
  double router_share_grid = 0.0;
  double router_share_clear = 0.0;

  double fraction_direct() const noexcept {
    return as_total > 0
               ? static_cast<double>(direct) / static_cast<double>(as_total)
               : 0.0;
  }
};

// Classifies every AS. `grid` must come from powergrid::evaluate_grid for
// the same storm (pass an empty vector to skip the grid coupling).
AsImpactSummary classify_as_impact(
    const datasets::RouterDataset& routers,
    const gic::GeoelectricFieldModel& field,
    const std::vector<powergrid::GridOutcome>& grid);

}  // namespace solarnet::analysis
