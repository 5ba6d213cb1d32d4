// Frozen reference repeater layout: a verbatim copy of the loop every
// sim::FailureSimulator ran in its constructor before the network built one
// layout per spacing for all of them (topo::InfrastructureNetwork::
// repeater_layout), plus the per-cable death-probability product that read
// it. The layout tests check the shared layout and the death tables built
// on it against these bit for bit, and perf_engine times the frozen loop as
// the build each simulator used to pay. Do not route these through the
// network's layout cache; they are deliberately frozen.
#pragma once

#include <cstddef>
#include <vector>

#include "gic/failure_model.h"
#include "topology/network.h"
#include "topology/repeater.h"

namespace solarnet::reference {

struct RepeaterLayout {
  // Flattened repeater contexts: per cable, [offset, offset+count).
  std::vector<gic::RepeaterContext> repeaters;
  std::vector<std::size_t> cable_offset;  // size cables+1
  std::size_t total_repeaters = 0;
  std::size_t repeaterless_cables = 0;
};

inline RepeaterLayout repeater_layout(const topo::InfrastructureNetwork& net,
                                      double spacing_km) {
  RepeaterLayout layout;
  layout.cable_offset.reserve(net.cable_count() + 1);
  layout.cable_offset.push_back(0);
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const double max_abs_lat = net.cable_max_abs_latitude(c);
    const auto positions =
        topo::repeater_positions(net.cable(c), c, net.nodes(), spacing_km);
    for (const topo::Repeater& r : positions) {
      layout.repeaters.push_back({r.location, max_abs_lat});
    }
    if (positions.empty()) ++layout.repeaterless_cables;
    layout.total_repeaters += positions.size();
    layout.cable_offset.push_back(layout.repeaters.size());
  }
  return layout;
}

// Every cable's death probability under the any-failure rule,
// 1 - prod(1 - p_i) over its repeaters, in cable id order.
inline std::vector<double> death_probabilities(
    const RepeaterLayout& layout, const gic::RepeaterFailureModel& model) {
  std::vector<double> out;
  for (std::size_t cable = 0; cable + 1 < layout.cable_offset.size();
       ++cable) {
    double survive = 1.0;
    for (std::size_t i = layout.cable_offset[cable];
         i < layout.cable_offset[cable + 1]; ++i) {
      survive *= 1.0 - model.failure_probability(layout.repeaters[i]);
      if (survive == 0.0) break;
    }
    out.push_back(1.0 - survive);
  }
  return out;
}

}  // namespace solarnet::reference
