// ScenarioRunner: one-call evaluation of a failure model (or a physical
// storm scenario) against a World, producing the structured
// ResilienceReport. This is the "quickstart" entry point of the library.
//
// ReportBundle, SweepBundle, TimelineBundle: the simulator, engine and
// observers of one scenario, built from a server::ScenarioRequest. The CLI
// verbs build one per run; `solarnet serve` pools them and reruns them per
// request, so both front ends compute the same numbers.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analysis/outage.h"
#include "analysis/report.h"
#include "core/shutdown.h"
#include "core/world.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "server/request.h"
#include "sim/campaign.h"
#include "sim/monte_carlo.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"

namespace solarnet::core {

// The countries of the report's country sections and the timeline's outages.
inline const std::vector<std::string> kReportCountries = {
    "US", "GB", "CN", "IN", "SG", "ZA", "AU", "NZ", "BR"};

// A crash-safe report: the submarine pass checkpoints to `path` every
// `every_chunks` chunks and resumes from it bit-identically (stderr notes).
struct ReportCheckpoint {
  std::string path;
  std::size_t every_chunks = 64;
};

// The request's repeater-failure model: S1, S2 or uniform(p).
std::unique_ptr<gic::RepeaterFailureModel> make_model(
    const server::ScenarioRequest& req);

// The demand seed of every sampled traffic matrix: fixed, not the scenario
// seed, because the server reruns one bundle for any seed and the CLI must
// report the same traffic numbers as the server.
inline constexpr std::uint64_t kDemandSeed = 0x64656d616e647321ULL;

// A bundle reads the request except trials and seed (per run), runs on
// `threads` workers (0 = all cores; results never depend on it) and must
// not outlive what it references. Each run resets its observers.

// The submarine report pass: simulator, trial pipeline, the five report
// observers (connectivity, Google and Facebook service availability, DNS
// resolution, country isolation) and, with req.traffic, the traffic engine
// and observer, all fed the same per-trial draw.
class ReportBundle {
 public:
  ReportBundle(const topo::InfrastructureNetwork& net,
               const std::vector<datasets::DnsRootInstance>& dns_roots,
               const gic::RepeaterFailureModel& model,
               const server::ScenarioRequest& req, std::size_t threads,
               const std::optional<ReportCheckpoint>& checkpoint = {});

  ReportBundle(const ReportBundle&) = delete;
  ReportBundle& operator=(const ReportBundle&) = delete;

  // Runs `trials` draws (trial t from child stream t of `seed`). With a
  // checkpoint the run goes through a sim::CampaignRunner and its report
  // is returned; the results are bit-identical either way.
  std::optional<sim::CampaignReport> run(std::size_t trials,
                                         std::uint64_t seed);

  // Null unless the request asked for traffic.
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
  // Engaged iff the bundle was given a checkpoint. The observers then
  // register through it, which forwards each to the pipeline once.
  std::optional<sim::CampaignRunner> campaign_;
  sim::CampaignOptions campaign_options_;  // trials and seed set per run
};

// The CRN sweep of the request's grid (empty: the paper's), ascending.
struct SweepBundle {
  SweepBundle(const topo::InfrastructureNetwork& net,
              const server::ScenarioRequest& req, std::size_t threads);
  SweepBundle(const SweepBundle&) = delete;
  SweepBundle& operator=(const SweepBundle&) = delete;

  sim::FailureSimulator simulator;
  sim::SweepEngine engine;
};

// Storm playback (onset -> peak -> decay -> repair) with the connectivity
// and per-country outage observers. The storm axis is the phase profile
// every req.timeline_step_hours, or `storm`'s observed dose schedule (its
// repair fields are ignored). With `shutdown`, failures are gated through
// the §5.2 shutdown plan's powered-off probabilities.
struct TimelineBundle {
  TimelineBundle(const topo::InfrastructureNetwork& net,
                 const server::ScenarioRequest& req, std::size_t threads,
                 std::optional<sim::TimelineConfig> storm = std::nullopt,
                 const std::optional<ShutdownPolicy>& shutdown = std::nullopt);
  TimelineBundle(const TimelineBundle&) = delete;
  TimelineBundle& operator=(const TimelineBundle&) = delete;

  std::unique_ptr<gic::RepeaterFailureModel> model;
  sim::FailureSimulator simulator;
  // Cables the shutdown plan powers off; set while `engine` is built.
  std::size_t shutdown_cables = 0;
  sim::TimelineEngine engine;
  sim::TimelineConnectivityObserver connectivity;
  analysis::CountryOutageObserver outage;
};

class ScenarioRunner {
 public:
  // The world must outlive the runner.
  explicit ScenarioRunner(const World& world) : world_(world) {}

  // Evaluates `model` on every network (req.model and network are unread).
  analysis::ResilienceReport run(
      const gic::RepeaterFailureModel& model,
      const server::ScenarioRequest& req = {}, std::size_t threads = 0,
      const std::optional<ReportCheckpoint>& checkpoint = {}) const;

  // Evaluates a physical storm via the field-driven failure model.
  analysis::ResilienceReport run_storm(
      const gic::StormScenario& storm,
      const server::ScenarioRequest& req = {}, std::size_t threads = 0,
      const std::optional<ReportCheckpoint>& checkpoint = {}) const;

 private:
  const World& world_;
};

}  // namespace solarnet::core
