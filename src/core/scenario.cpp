#include "core/scenario.h"

#include <algorithm>
#include <iostream>

#include "analysis/country.h"
#include "datasets/datacenters.h"
#include "routing/demand.h"
#include "sim/pipeline.h"

namespace solarnet::core {

namespace {

analysis::BandSweepResult to_band_result(
    const sim::ConnectivityObserver::Result& r, const std::string& model_name,
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

sim::TrialConfig trial_config(const ScenarioOptions& options) {
  sim::TrialConfig config;
  config.repeater_spacing_km = options.repeater_spacing_km;
  config.threads = options.threads;
  config.engine = options.engine;
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

ReportBundle::ReportBundle(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& dns_roots,
    const gic::RepeaterFailureModel& model, const ScenarioOptions& options)
    : simulator(net, trial_config(options)),
      pipeline(simulator, model),
      google(net, datacenter_service(datasets::DataCenterOperator::kGoogle,
                                     options.service_write_quorum)),
      facebook(net,
               datacenter_service(datasets::DataCenterOperator::kFacebook,
                                  options.service_write_quorum)),
      dns(net, dns_roots, options.dns_cable_loss_threshold_pct),
      isolation(net, options.countries) {
  if (options.traffic) {
    traffic_engine.emplace(
        net, options.traffic_demand_pairs == 0
                 ? routing::gravity_demands(net)
                 : routing::sampled_node_demands(
                       net, options.traffic_demand_pairs, 400.0, kDemandSeed));
    traffic_observer.emplace(*traffic_engine);
  }
  if (!options.checkpoint_path.empty()) {
    campaign_.emplace(pipeline);
    campaign_options_.threads = options.threads;
    campaign_options_.checkpoint_path = options.checkpoint_path;
    campaign_options_.checkpoint_every_chunks = options.checkpoint_every_chunks;
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

analysis::ResilienceReport ScenarioRunner::run(
    const gic::RepeaterFailureModel& model,
    const ScenarioOptions& options) const {
  analysis::ResilienceReport report;
  report.title = "solarnet resilience report — model " + model.name();

  report.length_summaries.push_back(analysis::summarize_lengths(
      world_.submarine(), options.repeater_spacing_km));
  report.length_summaries.push_back(analysis::summarize_lengths(
      world_.intertubes(), options.repeater_spacing_km));
  if (world_.has_itu()) {
    report.length_summaries.push_back(analysis::summarize_lengths(
        world_.itu(), options.repeater_spacing_km));
  }

  // Submarine network: one pipeline pass carries every Monte-Carlo metric —
  // connectivity, DC service availability, DNS resolution, country
  // isolation, optional traffic — over the *same* trial draws.
  {
    ReportBundle bundle(world_.submarine(), world_.dns_roots(), model,
                        options);
    if (const auto campaign = bundle.run(options.trials, options.seed)) {
      print_campaign_notes(*campaign);
    }
    report.failure_results.push_back(
        to_band_result(bundle.connectivity.result(), model.name(),
                       options.repeater_spacing_km, " [submarine]"));
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
    for (const std::string& country : options.countries) {
      report.countries.push_back(analysis::country_connectivity(
          world_.submarine(), bundle.simulator, model, country));
    }
  }

  // Land networks: connectivity-only pipeline passes, keeping the
  // historical per-network seed offsets.
  const auto connectivity_pass = [&](const topo::InfrastructureNetwork& net,
                                     std::uint64_t seed, const char* tag) {
    const sim::FailureSimulator simulator(net, trial_config(options));
    sim::TrialPipeline pipeline(simulator, model);
    sim::ConnectivityObserver connectivity;
    pipeline.add_observer(connectivity);
    pipeline.run(options.trials, seed);
    report.failure_results.push_back(to_band_result(
        connectivity.result(), model.name(), options.repeater_spacing_km, tag));
  };
  connectivity_pass(world_.intertubes(), options.seed + 1, " [intertubes]");
  if (world_.has_itu()) {
    connectivity_pass(world_.itu(), options.seed + 2, " [itu]");
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
    const gic::StormScenario& storm, const ScenarioOptions& options) const {
  const gic::FieldDrivenFailureModel model{gic::GeoelectricFieldModel(storm)};
  analysis::ResilienceReport report = run(model, options);
  report.title =
      "solarnet resilience report — storm " + storm.name + " (field-driven)";
  return report;
}

}  // namespace solarnet::core
