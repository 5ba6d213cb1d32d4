// ScenarioRunner: one-call evaluation of a failure model (or a physical
// storm scenario) against a World, producing the structured
// ResilienceReport. This is the "quickstart" entry point of the library.
//
// ReportBundle: the report's submarine Monte-Carlo pass, assembled in one
// place for both front ends. ScenarioRunner builds one per report;
// `solarnet serve` (server::ScenarioService) keeps them resident in its
// engine pool and reruns them per request.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "analysis/report.h"
#include "core/world.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "sim/campaign.h"
#include "sim/monte_carlo.h"

namespace solarnet::core {

struct ScenarioOptions {
  double repeater_spacing_km = 150.0;
  std::size_t trials = 10;  // the paper's trial count
  std::uint64_t seed = 7;
  // Monte-Carlo worker threads (sim::TrialConfig::threads semantics:
  // 0 = hardware concurrency, 1 = serial; results are thread-count
  // independent).
  std::size_t threads = 0;
  // Trial-loop engine (sim::TrialConfig::engine semantics): kAuto uses the
  // bit-parallel batch kernel when eligible, kScalar forces the scalar
  // loop. Results are bit-identical either way; the knob exists for
  // benchmarks and A/B verification.
  sim::TrialEngine engine = sim::TrialEngine::kAuto;
  // Countries included in the country-connectivity section.
  std::vector<std::string> countries = {"US", "GB", "CN", "IN", "SG", "ZA",
                                        "AU", "NZ", "BR"};
  // Write quorum for the data-center service availability observers
  // (clamped to the operator's site count).
  std::size_t service_write_quorum = 2;
  // Threshold for the DNS joint statistic: P(resolution degraded AND more
  // than this % of cables lost) within the same trial.
  double dns_cable_loss_threshold_pct = 10.0;
  // Add the post-failure traffic routing observer to the submarine pass
  // (report section "Post-failure traffic routing"): every trial routes a
  // demand matrix over the surviving topology via routing::TrafficEngine.
  // Off by default — routing a matrix per trial costs one SSSP tree per
  // distinct demand source.
  bool traffic = false;
  // Demand matrix for the traffic observer: 0 routes the deterministic
  // gravity matrix (routing::gravity_demands); N > 0 routes N sampled
  // demand entries (routing::sampled_node_demands with the fixed
  // kDemandSeed, never this scenario's seed) — the stress-scale knob behind
  // the CLI's --demand-pairs and the served `demand_pairs` field.
  std::size_t traffic_demand_pairs = 0;
  // Non-empty: run the submarine Monte-Carlo pass through a
  // sim::CampaignRunner that checkpoints to this path and resumes from it
  // (bit-identically) when the file already holds a compatible partial
  // campaign. The report itself is unchanged; campaign progress notes go
  // to stderr.
  std::string checkpoint_path;
  // Checkpoint cadence in trial chunks (sim::CampaignOptions semantics).
  std::size_t checkpoint_every_chunks = 64;
};

// The demand seed of every sampled traffic matrix: fixed, not the scenario
// seed, because the server reruns one bundle for any seed and the CLI must
// report the same traffic numbers as the server.
inline constexpr std::uint64_t kDemandSeed = 0x64656d616e647321ULL;

// The submarine report pass: simulator, trial pipeline, the five report
// observers (connectivity, Google and Facebook service availability, DNS
// resolution, country isolation) and, with options.traffic, the traffic
// engine and observer, all fed the same per-trial draw. Each run resets the
// observers, so one bundle serves any number of sequential runs.
class ReportBundle {
 public:
  // Reads every option except trials and seed, which are per run. `net`,
  // `dns_roots` and `model` must outlive the bundle.
  ReportBundle(const topo::InfrastructureNetwork& net,
               const std::vector<datasets::DnsRootInstance>& dns_roots,
               const gic::RepeaterFailureModel& model,
               const ScenarioOptions& options);

  ReportBundle(const ReportBundle&) = delete;
  ReportBundle& operator=(const ReportBundle&) = delete;

  // Runs `trials` draws (trial t from child stream t of `seed`) on the
  // options' thread count. With a checkpoint path the run goes through a
  // sim::CampaignRunner and its report is returned; the results are
  // bit-identical either way.
  std::optional<sim::CampaignReport> run(std::size_t trials,
                                         std::uint64_t seed);

  // Null unless the options asked for traffic.
  const routing::TrafficSweep* traffic() const noexcept {
    return traffic_observer ? &traffic_observer->result() : nullptr;
  }

  sim::FailureSimulator simulator;
  sim::TrialPipeline pipeline;
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver google;
  services::AvailabilityObserver facebook;
  analysis::DnsResolutionObserver dns;
  analysis::CountryIsolationObserver isolation;
  std::optional<routing::TrafficEngine> traffic_engine;
  std::optional<routing::TrafficObserver> traffic_observer;

 private:
  // Engaged iff the options carry a checkpoint path. The observers then
  // register through it, which forwards each to the pipeline once.
  std::optional<sim::CampaignRunner> campaign_;
  sim::CampaignOptions campaign_options_;  // trials and seed set per run
};

class ScenarioRunner {
 public:
  // The world must outlive the runner.
  explicit ScenarioRunner(const World& world) : world_(world) {}

  // Evaluates an explicit repeater-failure model.
  analysis::ResilienceReport run(const gic::RepeaterFailureModel& model,
                                 const ScenarioOptions& options = {}) const;

  // Evaluates a physical storm via the field-driven failure model.
  analysis::ResilienceReport run_storm(const gic::StormScenario& storm,
                                       const ScenarioOptions& options = {}) const;

 private:
  const World& world_;
};

}  // namespace solarnet::core
