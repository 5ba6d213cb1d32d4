// §5 capstone: the mitigation portfolio. Evaluates defense packages of
// increasing ambition against the S1 state — new low-latitude cables,
// lead-time shutdown, and a geo-distributed replica rule — reporting
// corridor risk, expected cable losses, and service availability for each.
#include <iostream>

#include "core/mitigation.h"
#include "datasets/submarine.h"
#include "util/strings.h"
#include "util/table.h"

int main() {
  using namespace solarnet;

  const auto net = datasets::make_submarine_network({});
  const auto s1 = gic::LatitudeBandFailureModel::s1();

  const services::ServiceSpec per_landmass{
      "per-landmass service",
      {{40.7, -74.0},   // N. America
       {-23.5, -46.6},  // S. America
       {50.1, 8.7},     // Europe
       {6.5, 3.4},      // Africa
       {1.35, 103.8},   // Asia
       {-33.9, 151.2}}, // Oceania
      1};

  util::print_banner(std::cout,
                     "Mitigation portfolios vs the S1 state (US<->Europe "
                     "corridor; expected failures over 470 cables)");
  util::TextTable t({"portfolio", "P(corridor cutoff)", "E[failures]",
                     "E[saved by shutdown]", "service avail %"});

  struct Case {
    const char* label;
    std::size_t cables;
    double lead_hours;
  };
  for (const Case& c :
       {Case{"do nothing", 0, 0.0}, Case{"+2 low-lat cables", 2, 0.0},
        Case{"+2 cables, 13h shutdown", 2, 13.0},
        Case{"+4 cables, 72h shutdown", 4, 72.0}}) {
    core::MitigationPlan plan;
    plan.candidate_cables =
        core::TopologyPlanner::default_low_latitude_candidates();
    plan.cables_to_build = c.cables;
    plan.shutdown.lead_time_hours = c.lead_hours;
    plan.has_service = true;
    plan.service = per_landmass;
    const auto r = core::evaluate_mitigation(net, s1, plan);
    t.add_row({c.label, util::format_fixed(r.corridor_cutoff_after, 3),
               util::format_fixed(r.expected_failures_with_plan, 1),
               util::format_fixed(r.expected_cables_saved(), 1),
               util::format_fixed(100.0 * r.service_availability_after, 1)});
  }
  t.print(std::cout);
  std::cout << "\npaper §5: low-latitude capacity, shutdown plans, and "
               "per-partition service design compose — each attacks a "
               "different loss channel\n";
  return 0;
}
