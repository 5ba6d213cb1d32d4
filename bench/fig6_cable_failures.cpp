// Figure 6: % of cables failed under uniform repeater failure probability
// (x-axis 0.001..1, log), one panel per repeater spacing (50/100/150 km),
// three networks (submarine, Intertubes, ITU). 10 trials each, mean and sd.
#include <iostream>

#include "analysis/connectivity.h"
#include "bench_util.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "util/strings.h"
#include "util/table.h"

int main(int argc, char** argv) {
  const auto csv = solarnet::benchutil::csv_dir(argc, argv);
  using namespace solarnet;

  const auto submarine = datasets::make_submarine_network({});
  const auto intertubes = datasets::make_intertubes_network({});
  const auto itu = datasets::make_itu_network({});
  const auto probs = analysis::default_probability_grid();
  constexpr std::size_t kTrials = 10;  // the paper's trial count

  for (double spacing : {50.0, 100.0, 150.0}) {
    util::print_banner(
        std::cout, "Figure 6: cables failed % (mean+-sd over 10 trials), "
                   "repeater spacing " +
                       util::format_fixed(spacing, 0) + " km");
    sim::TrialConfig cfg;
    cfg.repeater_spacing_km = spacing;
    const sim::FailureSimulator sub_sim(submarine, cfg);
    const sim::FailureSimulator land_sim(intertubes, cfg);
    const sim::FailureSimulator itu_sim(itu, cfg);
    const auto sub = analysis::uniform_failure_sweep(sub_sim, probs, kTrials,
                                                     1859);
    const auto land = analysis::uniform_failure_sweep(land_sim, probs,
                                                      kTrials, 1921);
    const auto itu_sweep =
        analysis::uniform_failure_sweep(itu_sim, probs, kTrials, 1989);

    // The probability, then the mean and sd of the cable share on each
    // network.
    const auto row = [&](std::size_t i, int p_digits, int digits) {
      util::CsvRow cells = {util::format_fixed(probs[i], p_digits)};
      for (const auto* sweep : {&sub, &land, &itu_sweep}) {
        const util::RunningStats& s = (*sweep)[i].cables_failed_pct;
        cells.push_back(util::format_fixed(s.mean(), digits));
        cells.push_back(util::format_fixed(s.sample_stddev(), digits));
      }
      return cells;
    };

    util::TextTable t({"p(repeater)", "submarine", "sd", "intertubes", "sd",
                       "ITU", "sd"});
    std::vector<util::CsvRow> rows = {
        {"probability", "submarine_mean", "submarine_sd", "intertubes_mean",
         "intertubes_sd", "itu_mean", "itu_sd"}};
    for (std::size_t i = 0; i < probs.size(); ++i) {
      t.add_row(row(i, 3, 1));
      rows.push_back(row(i, 4, 3));
    }
    t.print(std::cout);
    benchutil::write_series(
        csv, "fig6_spacing_" + util::format_fixed(spacing, 0), rows);
  }
  std::cout << "\npaper checkpoints @150 km: p=0.01 -> 14.9% submarine / "
               "1.7% intertubes / 0.6% ITU; p=1 -> ~80% submarine / 52% "
               "intertubes\n";
  return 0;
}
