// §2 extension: solar-activity risk arithmetic. Regenerates the occurrence
// statistics the paper's motivation rests on: 2.6-5.2 direct impacts per
// century, 1.6-12% per-decade Carrington probability, the 9% Bernoulli
// footnote, cycle-25 strength scenarios, and the Gleissberg modulation of
// near-term risk.
#include <iostream>

#include "solar/cycle.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  util::print_banner(std::cout, "Solar cycle model");
  util::TextTable ssn({"year", "sunspot number", "relative CME rate"});
  for (double year : {2014.0, 2019.96, 2025.5, 2031.0, 2063.96, 2069.5}) {
    ssn.add_row({util::format_fixed(year, 1),
                 util::format_fixed(solar::sunspot_number(year), 0),
                 util::format_fixed(solar::relative_event_rate(year), 2)});
  }
  ssn.print(std::cout);
  std::cout << "paper §2.3: cycle 24 peaked at 116; cycle 25 forecasts "
               "ranged from weak to 210-260; the Gleissberg maximum in the "
               "2060s roughly doubles peak activity\n";

  util::print_banner(std::cout,
                     "Extreme-event probabilities (paper: 2.6-5.2 direct "
                     "impacts/century; Carrington 1.6-12% per decade)");
  util::TextTable risk({"events/century", "P(direct impact)/decade",
                        "P(Carrington)/decade"});
  for (double rate : {2.6, 3.9, 5.2}) {
    const solar::ExtremeEventRisk r{rate};
    risk.add_row(
        {util::format_fixed(rate, 1),
         util::format_fixed(100.0 * r.probability_of_event(2020.0, 10.0,
                                                           false),
                            1) +
             "%",
         util::format_fixed(
             100.0 * r.probability_of_carrington(2020.0, 10.0, false), 1) +
             "%"});
  }
  risk.print(std::cout);

  std::cout << "Bernoulli footnote check: once-in-100-years event per "
               "decade = "
            << util::format_fixed(
                   100.0 *
                       solar::ExtremeEventRisk::bernoulli_decade_probability(
                           100.0),
                   1)
            << "% (paper: 9%)\n";

  util::print_banner(std::cout,
                     "Gleissberg modulation of decade risk (modulated "
                     "Poisson)");
  const solar::ExtremeEventRisk risk_model;
  util::TextTable mod({"decade", "P(direct impact)"});
  for (double start : {2020.0, 2030.0, 2040.0, 2050.0, 2060.0, 2070.0}) {
    mod.add_row(
        {util::format_fixed(start, 0) + "s",
         util::format_fixed(
             100.0 * risk_model.probability_of_event(start, 10.0, true), 1) +
             "%"});
  }
  mod.print(std::cout);
  std::cout << "paper §2.3: the coming decades climb out of the Gleissberg "
               "minimum — 'the current Internet infrastructure has not "
               "been stress-tested by strong solar events'\n";
  return 0;
}
