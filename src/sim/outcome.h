// Trial outcome types shared by the simulator and the analysis layer.
#pragma once

#include <cstddef>
#include <tuple>

#include "util/stats.h"

namespace solarnet::sim {

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

// The three connectivity statistics of a storm draw, over trials: the share
// of cables failed, the share of cable-bearing nodes that lost every cable
// (paper §4.3.1), and the largest surviving component as a share of
// cable-bearing nodes (isolated nodes count as singleton components). It is
// the chunk slot and the result body of ConnectivityObserver, SweepEngine
// and TimelineConnectivityObserver; kFields is the checkpoint wire order.
struct ConnectivityStats {
  util::RunningStats cables_failed_pct;
  util::RunningStats nodes_unreachable_pct;
  util::RunningStats largest_component_pct;

  static constexpr auto kFields =
      std::tuple{&ConnectivityStats::cables_failed_pct,
                 &ConnectivityStats::nodes_unreachable_pct,
                 &ConnectivityStats::largest_component_pct};

  void add(double cables_pct, double nodes_pct, double largest_pct) {
    cables_failed_pct.add(cables_pct);
    nodes_unreachable_pct.add(nodes_pct);
    largest_component_pct.add(largest_pct);
  }
};

}  // namespace solarnet::sim
