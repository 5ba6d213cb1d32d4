#include "analysis/as_impact.h"

#include <stdexcept>
#include <unordered_map>

namespace solarnet::analysis {

namespace {

// A router is "in the high-field region" when the local geoelectric
// field exceeds this fraction of the storm's peak.
constexpr double kDirectFieldFraction = 0.5;

struct AsState {
  bool direct = false;
  bool grid = false;
  std::size_t routers = 0;
  double spread = 0.0;
};

std::unordered_map<datasets::AsId, AsState> classify(
    const datasets::RouterDataset& routers,
    const gic::GeoelectricFieldModel& field,
    const std::vector<powergrid::GridOutcome>& grid) {
  const bool use_grid = !grid.empty();
  if (use_grid && grid.size() != powergrid::grid_regions().size()) {
    throw std::invalid_argument("classify_as_impact: grid size mismatch");
  }
  const double threshold =
      kDirectFieldFraction * field.storm().peak_field_v_per_km;

  std::unordered_map<datasets::AsId, AsState> state;
  state.reserve(routers.as_count());
  for (const datasets::RouterRecord& r : routers.routers()) {
    AsState& s = state[r.as_id];
    ++s.routers;
    if (!s.direct && field.field_v_per_km_land(r.location) >= threshold) {
      s.direct = true;
    }
    if (use_grid && !s.grid) {
      const std::size_t region = powergrid::region_index_at(r.location);
      if (grid[region].blackout) s.grid = true;
    }
  }
  for (const datasets::AsSummary& summary : routers.as_summaries()) {
    state[summary.as_id].spread = summary.latitude_spread();
  }
  return state;
}

}  // namespace

AsImpactSummary classify_as_impact(
    const datasets::RouterDataset& routers,
    const gic::GeoelectricFieldModel& field,
    const std::vector<powergrid::GridOutcome>& grid) {
  const auto state = classify(routers, field, grid);

  AsImpactSummary out;
  out.as_total = state.size();
  std::size_t routers_direct = 0;
  std::size_t routers_grid = 0;
  std::size_t routers_clear = 0;
  for (const auto& [id, s] : state) {
    if (s.direct) {
      ++out.direct;
      routers_direct += s.routers;
    } else if (s.grid) {
      ++out.grid_impacted;
      routers_grid += s.routers;
    } else {
      ++out.clear;
      routers_clear += s.routers;
    }
  }
  const double total = static_cast<double>(routers.router_count());
  if (total > 0.0) {
    out.router_share_direct = static_cast<double>(routers_direct) / total;
    out.router_share_grid = static_cast<double>(routers_grid) / total;
    out.router_share_clear = static_cast<double>(routers_clear) / total;
  }
  return out;
}

}  // namespace solarnet::analysis
