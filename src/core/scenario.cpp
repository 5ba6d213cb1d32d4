#include "core/scenario.h"

#include <algorithm>
#include <iostream>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "datasets/datacenters.h"
#include "gic/timeline.h"
#include "routing/demand.h"
#include "sim/pipeline.h"

namespace solarnet::core {

namespace {

// `r` is a ConnectivityObserver::Result or a run_trials AggregateResult.
template <typename Stats>
analysis::BandSweepResult to_band_result(const Stats& r,
                                         const std::string& model_name,
                                         double spacing_km, const char* tag) {
  return {model_name + tag,
          spacing_km,
          r.cables_failed_pct.mean(),
          r.cables_failed_pct.sample_stddev(),
          r.nodes_unreachable_pct.mean(),
          r.nodes_unreachable_pct.sample_stddev()};
}

services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t write_quorum) {
  std::vector<geo::GeoPoint> sites;
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    sites.push_back(dc.location);
  }
  return services::service_from_datacenters(
      std::string(datasets::to_string(op)), sites,
      std::max<std::size_t>(1, std::min(write_quorum, sites.size())));
}

sim::TrialConfig trial_config(const server::ScenarioRequest& req,
                              std::size_t threads) {
  return {.repeater_spacing_km = req.spacing_km,
          .threads = threads,
          .engine = req.engine};
}

sim::TimelineConfig timeline_config(const server::ScenarioRequest& req,
                                    std::optional<sim::TimelineConfig> storm) {
  sim::TimelineConfig config =
      storm ? std::move(*storm)
            : sim::TimelineConfig::from_profile(gic::StormPhaseProfile{},
                                                req.timeline_step_hours);
  config.repair_steps = req.repair_steps;
  config.repair_step_hours = req.repair_step_days * 24.0;
  config.fleet.cable_ships = req.ships;
  return config;
}

// Progress notes go to stderr so the report on stdout stays byte-identical
// to a non-checkpointed run.
void print_campaign_notes(const sim::CampaignReport& campaign) {
  std::cerr << "campaign: " << campaign.chunks_executed << "/"
            << campaign.chunks << " chunks executed";
  if (campaign.resumed) {
    std::cerr << " (resumed " << campaign.chunks_resumed
              << " from checkpoint)";
  }
  std::cerr << "\n";
  if (!campaign.resume_status.is_ok()) {
    std::cerr << "campaign: checkpoint rejected, restarted fresh: "
              << campaign.resume_status.to_string() << "\n";
  }
  if (!campaign.checkpoint_status.is_ok()) {
    std::cerr << "campaign: checkpoint write failed: "
              << campaign.checkpoint_status.to_string() << "\n";
  }
}

}  // namespace

std::unique_ptr<gic::RepeaterFailureModel> make_model(
    const server::ScenarioRequest& req) {
  if (req.model == "uniform") return gic::make_uniform(req.uniform_p);
  if (req.model == "s2") return gic::make_s2();
  return gic::make_s1();
}

ReportBundle::ReportBundle(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& dns_roots,
    const gic::RepeaterFailureModel& model,
    const server::ScenarioRequest& req, std::size_t threads,
    const std::optional<ReportCheckpoint>& checkpoint)
    : simulator(net, trial_config(req, threads)),
      pipeline(simulator, model),
      google(net, datacenter_service(datasets::DataCenterOperator::kGoogle,
                                     req.quorum)),
      facebook(net,
               datacenter_service(datasets::DataCenterOperator::kFacebook,
                                  req.quorum)),
      dns(net, dns_roots, req.dns_threshold_pct),
      isolation(net, kReportCountries) {
  if (req.traffic) {
    traffic_engine.emplace(
        net, req.demand_pairs == 0
                 ? routing::gravity_demands(net)
                 : routing::sampled_node_demands(net, req.demand_pairs,
                                                 routing::kOfferedTbps,
                                                 kDemandSeed));
    traffic_observer.emplace(*traffic_engine);
  }
  if (checkpoint) {
    campaign_.emplace(pipeline);
    campaign_options_.threads = threads;
    campaign_options_.checkpoint_path = checkpoint->path;
    campaign_options_.checkpoint_every_chunks = checkpoint->every_chunks;
  }
  std::vector<sim::CheckpointableObserver*> observers = {
      &connectivity, &google, &facebook, &dns, &isolation};
  if (traffic_observer) observers.push_back(&*traffic_observer);
  for (sim::CheckpointableObserver* o : observers) {
    if (campaign_) {
      campaign_->add_observer(*o);
    } else {
      pipeline.add_observer(*o);
    }
  }
}

std::optional<sim::CampaignReport> ReportBundle::run(std::size_t trials,
                                                     std::uint64_t seed) {
  if (!campaign_) {
    pipeline.run(trials, seed);
    return std::nullopt;
  }
  campaign_options_.trials = trials;
  campaign_options_.seed = seed;
  return campaign_->run(campaign_options_);
}

SweepBundle::SweepBundle(const topo::InfrastructureNetwork& net,
                         const server::ScenarioRequest& req,
                         std::size_t threads)
    : simulator(net, trial_config(req, threads)),
      engine(sim::SweepEngine::uniform(
          simulator, req.grid.empty() ? analysis::default_probability_grid()
                                      : req.grid)) {}

TimelineBundle::TimelineBundle(const topo::InfrastructureNetwork& net,
                               const server::ScenarioRequest& req,
                               std::size_t threads,
                               std::optional<sim::TimelineConfig> storm,
                               const std::optional<ShutdownPolicy>& shutdown)
    : model(make_model(req)),
      simulator(net, trial_config(req, threads)),
      engine(simulator,
             [&] {
               if (!shutdown) return simulator.death_probability_table(*model);
               ShutdownPlan plan = plan_shutdown(simulator, *model, *shutdown);
               shutdown_cables = plan.cables.size();
               return std::move(plan.table);
             }(),
             timeline_config(req, std::move(storm))),
      connectivity(req.partition_threshold_pct),
      outage(net, kReportCountries) {
  engine.add_observer(connectivity);
  engine.add_observer(outage);
}

analysis::ResilienceReport ScenarioRunner::run(
    const gic::RepeaterFailureModel& model, const server::ScenarioRequest& req,
    std::size_t threads,
    const std::optional<ReportCheckpoint>& checkpoint) const {
  analysis::ResilienceReport report;
  report.title = "solarnet resilience report — model " + model.name();

  report.length_summaries.push_back(
      analysis::summarize_lengths(world_.submarine(), req.spacing_km));
  report.length_summaries.push_back(
      analysis::summarize_lengths(world_.intertubes(), req.spacing_km));
  if (world_.has_itu()) {
    report.length_summaries.push_back(
        analysis::summarize_lengths(world_.itu(), req.spacing_km));
  }

  // Submarine network: one pipeline pass carries every Monte-Carlo metric —
  // connectivity, DC service availability, DNS resolution, country
  // isolation, optional traffic — over the *same* trial draws.
  {
    ReportBundle bundle(world_.submarine(), world_.dns_roots(), model, req,
                        threads, checkpoint);
    if (const auto campaign = bundle.run(req.trials, req.seed)) {
      print_campaign_notes(*campaign);
    }
    report.failure_results.push_back(
        to_band_result(bundle.connectivity.result(), model.name(),
                       req.spacing_km, " [submarine]"));
    report.service_availability = {bundle.google.result(),
                                   bundle.facebook.result()};
    report.dns_resolution = bundle.dns.result();
    report.has_dns_resolution = true;
    report.country_isolation = bundle.isolation.results();
    if (const routing::TrafficSweep* traffic = bundle.traffic()) {
      report.traffic.push_back(*traffic);
    }

    // Analytic country connectivity (exact products, no Monte-Carlo noise)
    // from the same simulator — the observed isolation rates above converge
    // to these probabilities.
    for (const std::string& country : kReportCountries) {
      report.countries.push_back(analysis::country_connectivity(
          world_.submarine(), bundle.simulator, model, country));
    }
  }

  // Land networks: cable and node shares only (run_trials skips the
  // component build), keeping the historical per-network seed offsets.
  const auto connectivity_pass = [&](const topo::InfrastructureNetwork& net,
                                     std::uint64_t seed, const char* tag) {
    const sim::FailureSimulator simulator(net, trial_config(req, threads));
    report.failure_results.push_back(
        to_band_result(simulator.run_trials(model, req.trials, seed),
                       model.name(), req.spacing_km, tag));
  };
  connectivity_pass(world_.intertubes(), req.seed + 1, " [intertubes]");
  if (world_.has_itu()) {
    connectivity_pass(world_.itu(), req.seed + 2, " [itu]");
  }

  report.datacenter_footprints.push_back(
      analysis::summarize_datacenters(datasets::DataCenterOperator::kGoogle));
  report.datacenter_footprints.push_back(analysis::summarize_datacenters(
      datasets::DataCenterOperator::kFacebook));
  report.dns = analysis::summarize_dns(world_.dns_roots());
  report.has_dns = true;
  return report;
}

analysis::ResilienceReport ScenarioRunner::run_storm(
    const gic::StormScenario& storm, const server::ScenarioRequest& req,
    std::size_t threads,
    const std::optional<ReportCheckpoint>& checkpoint) const {
  const gic::FieldDrivenFailureModel model{gic::GeoelectricFieldModel(storm)};
  analysis::ResilienceReport report = run(model, req, threads, checkpoint);
  report.title =
      "solarnet resilience report — storm " + storm.name + " (field-driven)";
  return report;
}

}  // namespace solarnet::core
