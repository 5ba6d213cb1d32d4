// Trial outcome types shared by the simulator and the analysis layer.
#pragma once

#include <cstddef>
#include <vector>

#include "util/stats.h"

namespace solarnet::sim {

// One Monte-Carlo draw of the event.
struct TrialResult {
  std::vector<bool> cable_dead;
  std::size_t cables_failed = 0;
  std::size_t nodes_unreachable = 0;  // nodes that lost every incident cable
  double cables_failed_pct = 0.0;     // over all cables
  double nodes_unreachable_pct = 0.0; // over nodes with >= 1 cable
};

// `part` as a percentage of `whole`, 0 when `whole` is 0: the one rule every
// trial engine reports its cable and node shares with, so the same counts
// give bit-identical percentages in every engine.
inline double percent_of(std::size_t part, std::size_t whole) noexcept {
  return whole > 0
             ? 100.0 * static_cast<double>(part) / static_cast<double>(whole)
             : 0.0;
}

// Mean/stddev over repeated trials — exactly what the paper's error bars
// report (10 trials per configuration).
struct AggregateResult {
  util::RunningStats cables_failed_pct;
  util::RunningStats nodes_unreachable_pct;
  std::size_t trials = 0;
};

}  // namespace solarnet::sim
