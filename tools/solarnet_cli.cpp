// The solarnet command-line tool: the library's analyses as subcommands
// (`solarnet help` lists them and their flags).
#include <filesystem>
#include <iostream>
#include <limits>
#include <optional>

#include "analysis/country.h"
#include "analysis/outage.h"
#include "cli_args.h"
#include "core/mitigation.h"
#include "core/planner.h"
#include "core/scenario.h"
#include "core/shutdown.h"
#include "core/world.h"
#include "datasets/land.h"
#include "datasets/loaders.h"
#include "datasets/space_weather.h"
#include "datasets/submarine.h"
#include "gic/timeline.h"
#include "recovery/repair.h"
#include "server/scenario_service.h"
#include "server/serve_loop.h"
#include "sim/timeline_engine.h"
#include "solar/cycle.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/table.h"

namespace solarnet::cli {
namespace {

int usage() {
  std::cout <<
      R"(solarnet — geomagnetic Internet-resilience analysis

usage: solarnet <command> [flags]

commands:
  risk       extreme-event probabilities (§2)
               --start YEAR (2026)  --years N (10)
  report     full trial-pipeline resilience report (all metrics share one
             Monte-Carlo failure draw per trial; see docs/MODULES.md)
               --s1 | --s2 | --uniform P (s1) | --storm NAME
                 (a physical storm: carrington|1921|1989|moderate)
               --spacing KM (150)  --trials N (10)  --seed N (7)
               --threads N (auto; aggregates are thread-count independent)
               --quorum N (2)  --dns-threshold PCT (10)
               --traffic (adds the post-failure traffic-routing section:
                 every trial routes a demand matrix over the survivors)
               --demand-pairs N (0 = gravity matrix; N > 0 routes N sampled
                 demand entries per trial from a fixed demand seed)
               --checkpoint PATH (crash-safe campaign: checkpoint the
                 Monte-Carlo pass to PATH and resume from it bit-identically)
               --checkpoint-every CHUNKS (64)
  countries  country connectivity table under S1/S2
               --spacing KM (150)  --threads N (auto)
  plan       rank candidate cables for US<->Europe resilience (§5.1)
               --from NODE --to NODE   (adds a custom candidate)
  repair     post-storm repair campaign (§3.2.2)
               --ships N (60)  --model s1|s2 (s1)  --seed N
  sweep      batched probability-grid sweep (Figures 6/7; §4.3.2)
               --grid P1,P2,... (paper grid 0.001..1)
               --network submarine|intertubes|itu (submarine)
               --spacing KM (150)  --trials N (10)  --seed N (1859)
               --threads N (auto)
  serve      resident scenario server: keeps the networks, repeater
             layouts and evaluators hot and answers NDJSON requests from
             a content-addressed result cache (request schema and cache
             semantics in docs/MODULES.md)
               --socket PATH (unix stream socket) | default: stdin/stdout
               --cache-mb N (64)  --threads N (auto)
  mitigate   evaluate a defense package (§5)
               --cables N (2)  --lead-hours H (13)
  timeline   Monte-Carlo storm playback: onset -> peak -> decay -> repair,
             with time-to-partition and outage-hours per country
               --donki FILE (replay a NOAA/DONKI-format JSON storm;
                 default: the synthetic 72 h phase profile)
               --quiet-kp K (5; Kp floor below which no dose accrues)
               --s1 | --s2 | --uniform P (s1)  --step H (6)
               --network submarine|intertubes|itu (submarine)
               --spacing KM (150)  --trials N (64)  --seed N (7)
               --threads N (auto)  --repair-steps N (24)
               --repair-step-days D (15)  --ships N (60)
               --partition-threshold PCT (50)
               --lead-hours H (off; gate failures through the §5.2
                 shutdown plan's powered-off probabilities)
  export     dump generated datasets to CSV
               --dir DIR (solarnet_export)
  help       this message
)";
  return 0;
}

gic::StormScenario storm_by_name(const std::string& name) {
  if (name == "carrington") return gic::carrington_1859();
  if (name == "1921") return gic::ny_railroad_1921();
  if (name == "1989") return gic::quebec_1989();
  if (name == "moderate") return gic::moderate_storm();
  throw std::invalid_argument("unknown storm '" + name +
                              "' (carrington|1921|1989|moderate)");
}

int cmd_risk(const Args& args) {
  const double start = args.get_double_or("start", 2026.0);
  const double years = args.get_double_or("years", 10.0);
  // The risk integral takes monthly steps: at most 12,000 of them.
  if (!(years > 0.0 && years <= 1000.0)) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "must be in (0, 1000], got '" +
                          args.get_or("years", "") + "'",
                      {"command line", 0, "--years"});
  }
  const solar::ExtremeEventRisk risk;
  util::TextTable t({"window", "P(direct impact)", "P(Carrington-scale)"});
  t.add_row({util::format_fixed(start, 0) + " +" +
                 util::format_fixed(years, 0) + "y",
             util::format_fixed(
                 100.0 * risk.probability_of_event(start, years), 1) +
                 "%",
             util::format_fixed(
                 100.0 * risk.probability_of_carrington(start, years), 1) +
                 "%"});
  t.print(std::cout);
  std::cout << "(paper: 1.6-12% per decade for a Carrington-scale event)\n";
  return 0;
}

// The world `report` and `serve` compute on: the three networks, IXPs and
// DNS roots, without the population grid and router dataset that no report
// section or served request reads.
core::World scenario_world() {
  core::WorldConfig config;
  config.build_population = false;
  config.build_routers = false;
  return core::World::generate(config);
}

// The full multi-metric report: connectivity, service availability, DNS
// resolution, country isolation — every metric observed on the same
// per-trial failure draws. The printed aggregates are bit-identical for
// every --threads value.
int cmd_report(const Args& args) {
  const server::ScenarioRequest req =
      scenario_request(args, server::RequestKind::kReport);
  const std::size_t threads = thread_count(args);
  const std::size_t every = args.get_count_or("checkpoint-every", 64);
  std::optional<core::ReportCheckpoint> checkpoint;
  if (const std::string path = args.get_or("checkpoint", ""); !path.empty()) {
    checkpoint = core::ReportCheckpoint{path, every};
  }
  const core::World world = scenario_world();
  const core::ScenarioRunner runner(world);
  if (args.has("storm")) {
    const auto storm = storm_by_name(args.get_or("storm", "carrington"));
    std::cout << runner.run_storm(storm, req, threads, checkpoint).render();
    return 0;
  }
  std::cout << runner.run(*core::make_model(req), req, threads, checkpoint)
                   .render();
  return 0;
}

int cmd_countries(const Args& args) {
  const auto net = datasets::make_submarine_network({});
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = args.get_double_or("spacing", 150.0);
  cfg.threads = thread_count(args);
  const sim::FailureSimulator simulator(net, cfg);
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  const auto s2 = gic::LatitudeBandFailureModel::s2();
  util::TextTable t({"country", "intl cables", "P(cutoff) S1",
                     "P(cutoff) S2", "E[survivors] S1"});
  for (const char* cc : {"US", "CA", "GB", "FR", "PT", "ES", "NO", "CN",
                         "IN", "SG", "JP", "ZA", "AU", "NZ", "BR"}) {
    const auto r1 = analysis::country_connectivity(net, simulator, s1, cc);
    const auto r2 = analysis::country_connectivity(net, simulator, s2, cc);
    t.add_row({cc, std::to_string(r1.international_cable_count),
               util::format_fixed(r1.all_fail_probability, 3),
               util::format_fixed(r2.all_fail_probability, 3),
               util::format_fixed(r1.expected_surviving_cables, 1)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_plan(const Args& args) {
  const auto net = datasets::make_submarine_network({});
  const core::TopologyPlanner planner(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  auto candidates = core::TopologyPlanner::default_low_latitude_candidates();
  if (args.has("from") && args.has("to")) {
    candidates.push_back({args.get_or("from", ""), args.get_or("to", ""),
                          0.0});
  }
  const std::vector<std::string> europe = {"GB", "IE", "FR", "NL", "BE",
                                           "DE", "DK", "NO", "PT", "ES"};
  const auto ranked = planner.rank(candidates, s1, {"US"}, europe);
  util::TextTable t({"candidate", "length km", "P(dies) S1",
                     "risk reduction"});
  for (const auto& e : ranked) {
    t.add_row({e.candidate.from_node + " - " + e.candidate.to_node,
               util::format_fixed(e.length_km, 0),
               util::format_fixed(e.death_probability, 3),
               util::format_fixed(e.risk_reduction(), 4)});
  }
  t.print(std::cout);
  return 0;
}

int cmd_repair(const Args& args) {
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto model = args.get_or("model", "s1") == "s2"
                         ? gic::LatitudeBandFailureModel::s2()
                         : gic::LatitudeBandFailureModel::s1();
  util::Rng rng(args.get_count_or("seed", 1859));
  const auto dead = simulator.sample_cable_failures(model, rng);
  const auto faults =
      recovery::sample_fault_counts(simulator, model, dead, rng);
  recovery::RepairFleetParams fleet;
  fleet.cable_ships = args.get_count_or("ships", 60);
  const auto timeline = recovery::schedule_repairs(net, dead, faults, fleet);
  std::size_t failed = 0;
  for (bool d : dead) failed += d ? 1 : 0;
  std::cout << "failed cables: " << failed << " (model " << model.name()
            << ", " << fleet.cable_ships << " ships)\n";
  util::TextTable t({"restored fraction", "day"});
  for (double frac : {0.25, 0.5, 0.75, 0.9, 1.0}) {
    t.add_row({util::format_fixed(100.0 * frac, 0) + "%",
               util::format_fixed(timeline.days_to_restore_fraction(frac),
                                  0)});
  }
  t.print(std::cout);
  return 0;
}

topo::InfrastructureNetwork network_by_name(const std::string& name) {
  if (name == "intertubes") return datasets::make_intertubes_network({});
  if (name == "itu") return datasets::make_itu_network({});
  return datasets::make_submarine_network({});
}

int cmd_sweep(const Args& args) {
  const server::ScenarioRequest req =
      scenario_request(args, server::RequestKind::kSweep);
  const auto net = network_by_name(req.network);
  const core::SweepBundle bundle(net, req, thread_count(args));
  const sim::SweepResult result = bundle.engine.run(req.trials, req.seed);
  std::cout << "batched sweep: " << net.cable_count() << " cables, "
            << req.trials << " trials, one CRN draw per cable per trial\n";
  util::TextTable t({"p(repeater)", "cables failed %", "sd",
                     "nodes unreachable %", "sd"});
  for (const sim::SweepPointAggregate& p : result.points) {
    t.add_row({util::format_fixed(p.axis, 3),
               util::format_fixed(p.cables_failed_pct.mean(), 1),
               util::format_fixed(p.cables_failed_pct.sample_stddev(), 1),
               util::format_fixed(p.nodes_unreachable_pct.mean(), 1),
               util::format_fixed(p.nodes_unreachable_pct.sample_stddev(), 1)});
  }
  t.print(std::cout);
  return 0;
}

// Long-lived scenario server. The generated World with its three networks
// is built once; each network builds its CSR and attachment index on first
// use and one repeater layout per spacing that its pooled engines share.
// Requests are newline-delimited JSON answered through the
// content-addressed result cache. Protocol notes go to stderr so stdout
// stays pure NDJSON in --stdin mode.
int cmd_serve(const Args& args) {
  // The cache budget is held in bytes: a size whose byte count does not
  // fit in size_t would wrap to a small (or zero) budget.
  constexpr std::size_t kMaxCacheMb =
      std::numeric_limits<std::size_t>::max() >> 20;
  const std::size_t cache_mb = args.get_count_or("cache-mb", 64);
  if (cache_mb > kMaxCacheMb) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "must be at most " + std::to_string(kMaxCacheMb) +
                          ", got '" + args.get_or("cache-mb", "") + "'",
                      {"command line", 0, "--cache-mb"});
  }
  server::ServiceOptions opts;
  opts.cache.byte_budget = cache_mb << 20;
  opts.threads = thread_count(args);
  const core::World world = scenario_world();

  server::ScenarioService service(server::ServiceContext::from_world(world),
                                  opts);

  if (args.has("socket")) {
    const std::string path = args.get_or("socket", "");
    std::cerr << "solarnet serve: listening on unix socket " << path
              << " (send {\"cmd\":\"shutdown\"} to stop)\n";
    server::serve_unix_socket(service, path);
  } else {
    std::cerr << "solarnet serve: reading NDJSON requests from stdin "
                 "(--socket PATH for a socket)\n";
    server::serve_stdin(service, std::cin, std::cout);
  }
  const server::ScenarioService::Stats stats = service.stats();
  std::cerr << "solarnet serve: " << stats.requests << " requests, "
            << stats.cache_hits << " cache hits, " << stats.computed
            << " computed, " << stats.coalesced << " coalesced, "
            << stats.errors << " errors\n";
  return 0;
}

int cmd_mitigate(const Args& args) {
  const auto net = datasets::make_submarine_network({});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  core::MitigationPlan plan;
  plan.candidate_cables =
      core::TopologyPlanner::default_low_latitude_candidates();
  plan.cables_to_build = args.get_count_or("cables", 2);
  plan.shutdown.lead_time_hours = args.get_double_or("lead-hours", 13.0);
  const auto r = core::evaluate_mitigation(net, s1, plan);
  std::cout << "cables built:";
  for (const std::string& name : r.cables_built) std::cout << " [" << name
                                                           << "]";
  std::cout << "\n";
  util::TextTable t({"metric", "before", "after"});
  t.add_row({"P(US<->Europe cutoff)",
             util::format_fixed(r.corridor_cutoff_before, 3),
             util::format_fixed(r.corridor_cutoff_after, 3)});
  t.add_row({"E[failed cables]",
             util::format_fixed(r.expected_failures_no_action, 1),
             util::format_fixed(r.expected_failures_with_plan, 1)});
  t.print(std::cout);
  return 0;
}

// Monte-Carlo storm playback (onset -> peak -> decay -> repair) over the
// shared incremental-connectivity core. The storm axis is either the
// synthetic phase profile (--step) or a real storm replayed from a NOAA /
// DONKI-format JSON file (--donki), whose Kp series becomes the
// proportional-hazard dose via gic::dose_share_from_kp.
int cmd_timeline(const Args& args) {
  const server::ScenarioRequest req =
      scenario_request(args, server::RequestKind::kTimeline);
  const std::size_t threads = thread_count(args);
  const auto net = network_by_name(req.network);

  std::optional<sim::TimelineConfig> storm_axis;
  if (args.has("donki")) {
    const auto storm =
        datasets::load_space_weather_json(args.get_or("donki", ""));
    std::vector<double> hours;
    std::vector<double> kp;
    for (const datasets::KpSample& s : storm.kp) {
      hours.push_back(s.hours);
      kp.push_back(s.kp);
    }
    std::vector<double> share = gic::dose_share_from_kp(
        hours, kp, args.get_double_or("quiet-kp", 5.0));
    storm_axis = sim::TimelineConfig::from_dose_schedule(std::move(hours),
                                                         std::move(share));
    std::cout << "storm: " << storm.source << " starting " << storm.start_time
              << ", " << storm.kp.size() << " Kp samples over "
              << util::format_fixed(storm.duration_hours(), 0) << " h\n";
    for (const datasets::SpaceWeatherEvent& event : storm.events) {
      std::cout << "  " << datasets::to_string(event.kind) << " " << event.id
                << " at " << util::format_fixed(event.hours, 1) << " h";
      if (!event.detail.empty()) std::cout << " (" << event.detail << ")";
      std::cout << "\n";
    }
  }
  std::optional<core::ShutdownPolicy> shutdown;
  if (args.has("lead-hours")) {
    shutdown = {.lead_time_hours = args.get_double_or("lead-hours", 13.0)};
  }

  core::TimelineBundle bundle(net, req, threads, std::move(storm_axis),
                              shutdown);
  if (shutdown) {
    std::cout << "shutdown plan: " << bundle.shutdown_cables
              << " cables powered off within "
              << util::format_fixed(shutdown->lead_time_hours, 0)
              << " h of warning\n";
  }
  const sim::TimelineEngine& engine = bundle.engine;
  engine.run(req.trials, req.seed);
  const sim::TimelineConnectivityResult& conn = bundle.connectivity.result();
  std::cout << "playback: " << engine.storm_step_count() << " storm steps + "
            << engine.repair_step_count() << " repair steps, " << req.trials
            << " trials (model " << bundle.model->name() << ")\n";
  util::TextTable t({"hour", "cables dead %", "nodes unreachable %",
                     "largest component %"});
  for (const sim::TimelineStepStats& step : conn.steps) {
    t.add_row({util::format_fixed(step.hour, 0),
               util::format_fixed(step.cables_failed_pct.mean(), 1),
               util::format_fixed(step.nodes_unreachable_pct.mean(), 1),
               util::format_fixed(step.largest_component_pct.mean(), 1)});
  }
  t.print(std::cout);

  std::cout << "partition (largest component < "
            << util::format_fixed(conn.partition_threshold_pct, 0)
            << "% of its pre-storm "
            << util::format_fixed(engine.baseline_largest_pct(), 1)
            << "%): " << conn.partitioned_trials << "/" << conn.trials
            << " trials";
  if (!conn.time_to_partition_hours.empty()) {
    std::cout << ", mean time to partition "
              << util::format_fixed(conn.time_to_partition_hours.mean(), 1)
              << " h";
  }
  std::cout << "\npeak nodes unreachable: "
            << util::format_fixed(conn.peak_nodes_unreachable_pct.mean(), 1)
            << "% mean, "
            << util::format_fixed(conn.peak_nodes_unreachable_pct.max(), 1)
            << "% worst trial\n";

  util::TextTable ot({"country", "intl cables", "cutoff trials",
                      "mean outage h", "max outage h"});
  for (const analysis::CountryOutageResult& r : bundle.outage.results()) {
    ot.add_row({r.country, util::format_fixed(r.international_cable_count, 0),
                util::format_fixed(r.cutoff_trials, 0),
                util::format_fixed(r.outage_hours.mean(), 1),
                util::format_fixed(r.outage_hours.max(), 1)});
  }
  ot.print(std::cout);
  return 0;
}

int cmd_export(const Args& args) {
  const std::string dir = args.get_or("dir", "solarnet_export");
  core::WorldConfig cfg;
  cfg.build_population = false;
  const core::World world = core::World::generate(cfg);
  std::filesystem::create_directories(dir);
  datasets::write_network_csv(world.submarine(), dir + "/submarine_nodes.csv",
                              dir + "/submarine_cables.csv");
  datasets::write_network_csv(world.intertubes(),
                              dir + "/intertubes_nodes.csv",
                              dir + "/intertubes_cables.csv");
  datasets::write_network_csv(world.itu(), dir + "/itu_nodes.csv",
                              dir + "/itu_cables.csv");
  datasets::write_router_csv(world.routers(), dir + "/routers.csv");
  datasets::write_points_csv(world.ixps(), dir + "/ixps.csv");
  datasets::write_dns_csv(world.dns_roots(), dir + "/dns_roots.csv");
  std::cout << "wrote datasets to " << dir << "/\n";
  return 0;
}

int run(int argc, char** argv) {
  const Args args = Args::parse(argc, argv);
  const std::string& cmd = args.command();
  if (cmd.empty() || cmd == "help") return usage();
  if (cmd == "risk") return cmd_risk(args);
  if (cmd == "report") return cmd_report(args);
  if (cmd == "countries") return cmd_countries(args);
  if (cmd == "plan") return cmd_plan(args);
  if (cmd == "repair") return cmd_repair(args);
  if (cmd == "sweep") return cmd_sweep(args);
  if (cmd == "serve") return cmd_serve(args);
  if (cmd == "mitigate") return cmd_mitigate(args);
  if (cmd == "timeline") return cmd_timeline(args);
  if (cmd == "export") return cmd_export(args);
  std::cerr << "unknown command '" << cmd << "'\n";
  usage();
  return 2;
}

}  // namespace
}  // namespace solarnet::cli

int main(int argc, char** argv) {
  try {
    return solarnet::cli::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
