// Quantitative checkpoints from the paper's evaluation (§4), asserted on
// the default (full-size) generated world. Tolerances are deliberately
// generous — our datasets are calibrated substitutes, not the originals —
// but every *ordering* claim is asserted strictly.
#include <gtest/gtest.h>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/distribution.h"
#include "analysis/lengths.h"
#include "datasets/land.h"
#include "datasets/population.h"
#include "datasets/submarine.h"
#include "sim/monte_carlo.h"

namespace solarnet {
namespace {

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}
const topo::InfrastructureNetwork& intertubes() {
  static const auto net = datasets::make_intertubes_network({});
  return net;
}
const topo::InfrastructureNetwork& itu() {
  static const auto net = datasets::make_itu_network({});
  return net;
}

sim::FailureSimulator make_sim(const topo::InfrastructureNetwork& net,
                               double spacing) {
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = spacing;
  return sim::FailureSimulator(net, cfg);
}

// §4.3.1: average repeaters per cable at 150 km — 22.3 submarine,
// 1.7 Intertubes, 0.63 ITU.
TEST(PaperCheckpoints, AverageRepeatersPerCable) {
  EXPECT_NEAR(make_sim(submarine(), 150.0).average_repeaters_per_cable(),
              22.3, 6.0);
  EXPECT_NEAR(make_sim(intertubes(), 150.0).average_repeaters_per_cable(),
              1.7, 0.6);
  EXPECT_NEAR(make_sim(itu(), 150.0).average_repeaters_per_cable(), 0.63,
              0.2);
}

// §4.3.2 headline: at p=0.01, spacing 150 km — 14.9% submarine cables fail
// and 11.7% endpoints unreachable, vs 1.7%/0.07% (Intertubes) and
// 0.6%/0.1% (ITU).
TEST(PaperCheckpoints, UniformFailureHeadlineNumbers) {
  const gic::UniformFailureModel m(0.01);
  const auto sub = make_sim(submarine(), 150.0).run_trials(m, 10, 42);
  const auto land = make_sim(intertubes(), 150.0).run_trials(m, 10, 42);
  const auto itu_r = make_sim(itu(), 150.0).run_trials(m, 10, 42);

  EXPECT_NEAR(sub.cables_failed_pct.mean(), 14.9, 6.0);
  EXPECT_NEAR(sub.nodes_unreachable_pct.mean(), 11.7, 6.0);
  EXPECT_NEAR(land.cables_failed_pct.mean(), 1.7, 1.5);
  EXPECT_LT(land.nodes_unreachable_pct.mean(), 2.0);
  EXPECT_NEAR(itu_r.cables_failed_pct.mean(), 0.6, 0.6);
  EXPECT_LT(itu_r.nodes_unreachable_pct.mean(), 1.0);

  // Strict ordering: submarine >> US land >= ITU.
  EXPECT_GT(sub.cables_failed_pct.mean(),
            3.0 * land.cables_failed_pct.mean());
  EXPECT_GT(land.cables_failed_pct.mean(), itu_r.cables_failed_pct.mean());
}

// §4.3.2 catastrophic end: at p=1, ~80% submarine cables affected vs 52%
// cables / 17% nodes on the US land network.
TEST(PaperCheckpoints, CatastrophicUniformFailure) {
  const gic::UniformFailureModel m(1.0);
  const auto sub = make_sim(submarine(), 150.0).run_trials(m, 5, 7);
  const auto land = make_sim(intertubes(), 150.0).run_trials(m, 5, 7);
  EXPECT_NEAR(sub.cables_failed_pct.mean(), 80.0, 12.0);
  EXPECT_NEAR(land.cables_failed_pct.mean(), 52.0, 12.0);
  EXPECT_GT(sub.cables_failed_pct.mean(), land.cables_failed_pct.mean());
  EXPECT_LT(land.nodes_unreachable_pct.mean(), 40.0);
}

// §4.3.3 / Figure 8: S1 kills ~43% of submarine cables; S2 leaves ~10% of
// submarine cables/nodes vulnerable; Intertubes stays near zero under S2.
TEST(PaperCheckpoints, NonUniformStates) {
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  const auto sub_s1 = make_sim(submarine(), 150.0).run_trials(s1, 10, 3);
  const auto sub_s2 = make_sim(submarine(), 150.0).run_trials(s2, 10, 3);
  const auto land_s2 = make_sim(intertubes(), 150.0).run_trials(s2, 10, 3);

  EXPECT_NEAR(sub_s1.cables_failed_pct.mean(), 43.0, 15.0);
  EXPECT_NEAR(sub_s2.cables_failed_pct.mean(), 10.0, 7.0);
  EXPECT_LT(land_s2.cables_failed_pct.mean(), 3.0);
  // Order-of-magnitude gap between submarine and land (paper's phrasing).
  EXPECT_GT(sub_s2.cables_failed_pct.mean(),
            3.0 * land_s2.cables_failed_pct.mean());
}

// Figure 6/7 shape: failures increase monotonically with probability and
// with tighter repeater spacing.
TEST(PaperCheckpoints, SweepShape) {
  const std::vector<double> probs = {0.001, 0.01, 0.1, 1.0};
  const auto sim150 = make_sim(submarine(), 150.0);
  const auto sweep = analysis::uniform_failure_sweep(sim150, probs, 5, 11);
  for (std::size_t i = 1; i < sweep.size(); ++i) {
    EXPECT_GE(sweep[i].cables_failed_pct.mean(),
              sweep[i - 1].cables_failed_pct.mean() - 2.0);
  }
  const auto sim50 = make_sim(submarine(), 50.0);
  const std::vector<double> one_prob = {probs[1]};
  const auto sweep50 = analysis::uniform_failure_sweep(sim50, one_prob, 5, 11);
  EXPECT_GE(sweep50[0].cables_failed_pct.mean(),
            sweep[1].cables_failed_pct.mean() - 2.0);
}

// §4.2.2: infrastructure skew — 31% submarine endpoints above 40 vs 16% of
// population; one-hop closure adds roughly another 14 points.
TEST(PaperCheckpoints, InfrastructureSkew) {
  const auto lats = submarine().node_latitudes();
  std::size_t above = 0;
  for (double lat : lats) {
    if (std::abs(lat) > 40.0) ++above;
  }
  const double endpoint_frac =
      static_cast<double>(above) / static_cast<double>(lats.size());
  datasets::PopulationConfig pop_cfg;
  pop_cfg.cell_deg = 5.0;
  const auto population = datasets::make_population_grid(pop_cfg);
  const double pop_frac = population.fraction_above_abs_latitude(40.0);
  EXPECT_GT(endpoint_frac, 1.5 * pop_frac);  // the skew itself
  EXPECT_NEAR(endpoint_frac, 0.31, 0.07);
  EXPECT_NEAR(pop_frac, 0.16, 0.03);
}

// §4.3.4, US East coast: the transatlantic corridor (US/CA <-> northern
// Europe) dies with high probability under S1 and remains at risk under S2,
// while the Brazil <-> Europe corridor survives far more often.
TEST(PaperCheckpoints, CorridorOrdering) {
  const auto simulator = make_sim(submarine(), 150.0);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  // The paper's "North East (and Canada) to Europe" corridor: the northern
  // transatlantic systems (excluding the single Florida-Iberia route).
  const std::vector<std::string> north_europe = {"GB", "IE", "FR", "NL", "BE",
                                                 "DE", "DK", "NO"};
  const auto us_ne_eu = analysis::corridor_cables(submarine(), {"US", "CA"},
                                                  north_europe);
  ASSERT_GE(us_ne_eu.size(), 8u);  // a dense corridor
  const auto us_eu_all = analysis::corridor_cables(
      submarine(), {"US", "CA"}, {"GB", "IE", "FR", "NL", "BE", "DE", "DK",
                                  "NO", "ES", "PT"});
  const auto br_eu = analysis::corridor_cables(submarine(), {"BR"},
                                               {"PT", "ES", "FR"});
  ASSERT_GE(br_eu.size(), 1u);

  const double us_ne_s1 =
      analysis::all_fail_probability(simulator, s1, us_ne_eu);
  const double us_all_s1 =
      analysis::all_fail_probability(simulator, s1, us_eu_all);
  const double br_eu_s1 =
      analysis::all_fail_probability(simulator, s1, br_eu);
  EXPECT_GT(us_ne_s1, 0.5);       // the NE corridor dies w.h.p. under S1
  EXPECT_GT(us_all_s1, 0.2);      // even counting the Iberia route
  EXPECT_LT(br_eu_s1, us_ne_s1);  // Brazil keeps Europe more often
  const double us_ne_s2 =
      analysis::all_fail_probability(simulator, s2, us_ne_eu);
  EXPECT_LT(us_ne_s2, us_ne_s1);  // S2 strictly milder
}

// §4.3.4: Singapore retains many cables even under S1 (expected surviving
// international cables well above 1); Shanghai loses everything.
TEST(PaperCheckpoints, SingaporeHubVsShanghai) {
  const auto simulator = make_sim(submarine(), 150.0);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto sg = analysis::cables_at_named_node(submarine(), "Singapore");
  ASSERT_GE(sg.size(), 4u);
  EXPECT_GT(analysis::expected_survivors(simulator, s1, sg), 1.0);

  const auto shanghai =
      analysis::cables_at_named_node(submarine(), "Shanghai");
  ASSERT_GE(shanghai.size(), 1u);
  EXPECT_GT(analysis::all_fail_probability(simulator, s1, shanghai), 0.95);
}

// §4.3.4: Mumbai and Chennai keep some connectivity even under S1.
TEST(PaperCheckpoints, IndianCitiesResilient) {
  const auto simulator = make_sim(submarine(), 150.0);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  for (const char* cityname : {"Mumbai", "Chennai"}) {
    const auto cables = analysis::cables_at_named_node(submarine(), cityname);
    ASSERT_GE(cables.size(), 1u) << cityname;
    EXPECT_LT(analysis::all_fail_probability(simulator, s1, cables), 0.9)
        << cityname;
  }
}

// §4.3.4: Alaska keeps only its British Columbia link under S1 — the
// Juneau-Prince Rupert cable survives far more often than AKORN.
TEST(PaperCheckpoints, AlaskaKeepsBritishColumbiaLink) {
  const auto simulator = make_sim(submarine(), 150.0);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto all = submarine();
  topo::CableId akorn = topo::kInvalidCable;
  topo::CableId bc = topo::kInvalidCable;
  for (topo::CableId c = 0; c < all.cable_count(); ++c) {
    if (all.cable(c).name == "AKORN") akorn = c;
    if (all.cable(c).name == "Juneau-Prince Rupert") bc = c;
  }
  ASSERT_NE(akorn, topo::kInvalidCable);
  ASSERT_NE(bc, topo::kInvalidCable);
  EXPECT_GT(simulator.cable_death_probability(akorn, s1),
            simulator.cable_death_probability(bc, s1));
}

// §4.2.2: "another 14% of submarine endpoints have a direct link to these
// nodes" — the one-hop closure at 40 deg sits roughly 14 points above the
// direct share.
TEST(PaperCheckpoints, OneHopClosureGap) {
  const double direct = analysis::one_hop_fraction_above(submarine(), 90.1);
  (void)direct;  // nothing above 90: closure of empty set is empty
  std::size_t above = 0;
  const auto lats = submarine().node_latitudes();
  for (double lat : lats) {
    if (std::abs(lat) > 40.0) ++above;
  }
  const double direct_frac =
      static_cast<double>(above) / static_cast<double>(lats.size());
  const double one_hop = analysis::one_hop_fraction_above(submarine(), 40.0);
  const double gap = one_hop - direct_frac;
  EXPECT_GT(gap, 0.05);
  EXPECT_LT(gap, 0.25);
  EXPECT_NEAR(gap, 0.14, 0.08);
}

// Figure 5: submarine lengths are an order of magnitude above land lengths.
TEST(PaperCheckpoints, LengthOrderOfMagnitude) {
  const auto sub = analysis::summarize_lengths(submarine());
  const auto land = analysis::summarize_lengths(intertubes());
  const auto itu_s = analysis::summarize_lengths(itu());
  EXPECT_GT(sub.median_km, 3.0 * land.median_km);
  EXPECT_GT(sub.median_km, 3.0 * itu_s.median_km);
  EXPECT_GT(sub.max_km, 10.0 * land.max_km);
}

}  // namespace
}  // namespace solarnet
