// The full "Internet apocalypse" timeline, end to end:
//   1. How likely is the event this decade?          (solar/)
//   2. The storm hits: cables, grids, satellites.    (gic/, sim/, powergrid/,
//                                                     satellite/)
//   3. What still routes, and what is overloaded?    (routing/)
//   4. Who can still use which services?             (services/)
//   5. How long until it is fixed?                   (recovery/)
// One deterministic scenario, narrated with numbers.
#include <iostream>

#include "datasets/datacenters.h"
#include "datasets/submarine.h"
#include "powergrid/grid.h"
#include "recovery/repair.h"
#include "routing/assignment.h"
#include "satellite/constellation.h"
#include "satellite/drag.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "solar/cycle.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;
  using util::format_fixed;

  // ---- 1. the odds ---------------------------------------------------------
  const solar::ExtremeEventRisk risk;
  util::print_banner(std::cout, "1. The odds");
  std::cout << "P(direct CME impact, 2026-2036):      "
            << format_fixed(
                   100.0 * risk.probability_of_event(2026.0, 10.0), 1)
            << "%\n"
            << "P(Carrington-scale event, 2026-2036): "
            << format_fixed(
                   100.0 * risk.probability_of_carrington(2026.0, 10.0), 1)
            << "%\n";

  // ---- 2-5. two storms, same pipeline ---------------------------------------
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  for (const gic::StormScenario& storm :
       {gic::quebec_1989(), gic::carrington_1859()}) {
  const gic::GeoelectricFieldModel field(storm);
  const gic::FieldDrivenFailureModel model(field);
  util::Rng rng(2038);
  const auto dead = simulator.sample_cable_failures(model, rng);
  std::size_t cables_lost = 0;
  for (bool d : dead) cables_lost += d ? 1 : 0;

  const auto grid = powergrid::evaluate_grid(field);
  std::size_t blackouts = 0;
  double worst_restoration = 0.0;
  for (const auto& g : grid) {
    if (g.blackout) ++blackouts;
    worst_restoration = std::max(worst_restoration, g.restoration_days);
  }

  const auto sat_impact = satellite::evaluate_fleet_impact(
      satellite::Constellation(340.0), storm, 14.0);

  util::print_banner(std::cout, "2. Impact: " + storm.name);
  std::cout << "submarine cables lost: " << cables_lost << "/"
            << net.cable_count() << "\n"
            << "power grids in blackout: " << blackouts << "/"
            << grid.size() << " (worst restoration "
            << format_fixed(worst_restoration, 0) << " days)\n"
            << "LEO fleet loss (340 km shell, 14-day storm): "
            << format_fixed(100.0 * sat_impact.fleet_loss_fraction, 1)
            << "%\n";

  // ---- 3. what still routes -------------------------------------------------
  const routing::TrafficEngine engine(net, routing::gravity_demands(net));
  const auto baseline = engine.assign_baseline();
  const auto after = engine.assign(dead);
  util::print_banner(std::cout, "3. Traffic");
  std::cout << "delivered traffic: "
            << format_fixed(100.0 * after.delivered_fraction(), 1)
            << "% (was " << format_fixed(100.0 * baseline.delivered_fraction(), 1)
            << "%), overloaded cables: " << after.overloaded_cables
            << " (was " << baseline.overloaded_cables << ")\n";

  // ---- 4. services ----------------------------------------------------------
  std::vector<geo::GeoPoint> google_sites;
  for (const auto& d :
       datasets::datacenters_of(datasets::DataCenterOperator::kGoogle)) {
    google_sites.push_back(d.location);
  }
  const auto svc = services::service_from_datacenters("search", google_sites,
                                                      3);
  const auto availability = services::evaluate_service(net, dead, svc);
  util::print_banner(std::cout, "4. Services (Google-like footprint)");
  std::cout << "read availability (population-weighted):  "
            << format_fixed(100.0 * availability.read_availability, 1)
            << "%\n"
            << "write availability (quorum 3):            "
            << format_fixed(100.0 * availability.write_availability, 1)
            << "%\n";

  // ---- 5. the repair campaign ------------------------------------------------
  const auto faults = recovery::sample_fault_counts(simulator, model, dead,
                                                    rng);
  const auto timeline = recovery::schedule_repairs(net, dead, faults, {});
  util::print_banner(std::cout, "5. Recovery (60 cable ships)");
  std::cout << "50% of failed cables restored by day "
            << format_fixed(timeline.days_to_restore_fraction(0.5), 0)
            << ", 90% by day "
            << format_fixed(timeline.days_to_restore_fraction(0.9), 0)
            << ", all by day "
            << format_fixed(timeline.days_to_restore_fraction(1.0), 0)
            << "\n"
            << "(grid transformer manufacturing, at "
            << format_fixed(worst_restoration, 0)
            << " days, outlasts the cable campaign — §5.5's point)\n";
  }
  return 0;
}
