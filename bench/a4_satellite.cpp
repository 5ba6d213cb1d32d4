// §3.3 extension: storm impact on LEO constellations. Coverage of a
// Starlink-class shell, storm-time drag enhancement, station-keeping
// margins, and fleet-loss fractions per storm scenario and shell altitude.
#include <iostream>

#include "satellite/constellation.h"
#include "satellite/drag.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  const satellite::Constellation shell550;  // Starlink shell 1
  util::print_banner(std::cout, "Constellation: 72x22 @550 km, 53 deg");
  std::cout << "satellites: " << shell550.size() << ", orbital period "
            << util::format_fixed(shell550.orbital_period_s() / 60.0, 1)
            << " min, coverage (|lat|<53, 25 deg min elevation): "
            << util::format_fixed(
                   100.0 * shell550.coverage_fraction(0.0, 25.0, 53.0, 4.0),
                   1)
            << "%\n";

  util::print_banner(std::cout,
                     "Storm drag: decay rates and fleet loss by scenario");
  util::TextTable t({"storm", "density x", "decay km/day @550",
                     "decay km/day @340", "fleet loss @550 (14d)",
                     "fleet loss @340 (14d)"});
  const satellite::Constellation shell340(340.0);
  for (const gic::StormScenario& storm :
       {gic::moderate_storm(), gic::quebec_1989(), gic::ny_railroad_1921(),
        gic::carrington_1859()}) {
    const double mult = satellite::storm_density_multiplier(storm);
    const auto hi = satellite::evaluate_fleet_impact(shell550, storm, 14.0);
    const auto lo = satellite::evaluate_fleet_impact(shell340, storm, 14.0);
    t.add_row({storm.name, util::format_fixed(mult, 1),
               util::format_fixed(hi.decay_rate_storm_km_day, 3),
               util::format_fixed(lo.decay_rate_storm_km_day, 3),
               util::format_fixed(100.0 * hi.fleet_loss_fraction, 1) + "%",
               util::format_fixed(100.0 * lo.fleet_loss_fraction, 1) + "%"});
  }
  t.print(std::cout);

  util::print_banner(std::cout, "Passive (no-thrust) orbit lifetimes");
  util::TextTable life({"altitude km", "quiet days", "Carrington-storm days"});
  for (double altitude : {340.0, 450.0, 550.0}) {
    const double quiet = satellite::passive_lifetime_days(altitude, 1.0);
    const double storm = satellite::passive_lifetime_days(
        altitude,
        satellite::storm_density_multiplier(gic::carrington_1859()));
    life.add_row({util::format_fixed(altitude, 0),
                  util::format_fixed(quiet, 0),
                  util::format_fixed(storm, 0)});
  }
  life.print(std::cout);
  std::cout << "\npaper §3.3: storms add drag, 'particularly in low earth "
               "orbit systems such as Starlink', risking orbital decay and "
               "uncontrolled reentry — the low shell is the fragile one\n";
  return 0;
}
