// Trial-pipeline benchmark: the old-vs-new acceptance harness for the
// unified trial-observer pipeline (one failure draw, every metric).
//
// main() runs hard validation gates before any timing:
//   1. ConnectivityObserver is bit-identical to reference::run_trials, the
//      frozen pre-pipeline run_trials loop (same seed, same trial count,
//      every moment),
//   2. AvailabilityObserver is bit-identical to reference::availability_sweep,
//      the frozen pre-pipeline availability loop (both in
//      bench/reference/trial_loops.h),
//   3. DnsResolutionObserver matches a serial replay of the same split
//      streams through DnsResolutionEvaluator exactly, and the one-shot
//      evaluate_dns_resolution equals reference::evaluate_dns_resolution
//      (the frozen one-shot evaluation on the pre-index attachment scan in
//      bench/reference/attachment.h) on the replayed draws,
//   4. CountryIsolationObserver converges to the analytic
//      all_fail_probability / expected_survivors (4 SE at 512 trials) and is
//      exact at the deterministic p = 1 endpoint,
//   5. the full observer set is bit-identical across thread counts,
//   6. the steady-state trial loop performs ZERO heap allocations,
//   7. figure-checkpoint sanity: uniform p = 0.01 at 150 km spacing loses
//      ~15.8% of submarine cables / ~11.0% of nodes (paper §4.3.1).
// Any failure exits non-zero, so CI's bench smoke job doubles as an
// equivalence gate. Then it times the old multi-metric report path (one
// independent Monte-Carlo pass per metric, each redrawing failures and
// re-decomposing components) against one pipeline pass fanning the shared
// draw out to all five observers, asserts the >= 3x acceptance speedup,
// and times one warm report trial at 1 thread: the served report observer
// set (core::ReportBundle) against the same pipeline on the frozen
// observers of bench/reference/report_observers.h, after checking that
// both give identical results, and asserts the >= 4x report-trial
// speedup. Emits BENCH_pipeline.json.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "alloc_counter.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "bench_util.h"
#include "core/scenario.h"
#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/submarine.h"
#include "reference/attachment.h"
#include "reference/report_observers.h"
#include "reference/trial_loops.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "util/rng.h"

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

// Single-threaded simulator so old-vs-new timing compares equal budgets.
const sim::FailureSimulator& submarine_sim() {
  static const sim::FailureSimulator s(submarine(), [] {
    sim::TrialConfig cfg;
    cfg.threads = 1;
    return cfg;
  }());
  return s;
}

const gic::LatitudeBandFailureModel& s1_model() {
  static const auto model = gic::LatitudeBandFailureModel::s1();
  return model;
}

services::ServiceSpec datacenter_service(datasets::DataCenterOperator op) {
  services::ServiceSpec spec;
  spec.name = std::string(datasets::to_string(op));
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    spec.replicas.push_back(dc.location);
  }
  spec.write_quorum = 2;
  return spec;
}

const std::vector<datasets::DnsRootInstance>& dns_roots() {
  static const auto roots = datasets::make_dns_dataset({});
  return roots;
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_pipeline equivalence check FAILED: %s\n", what);
  std::exit(1);
}

void check_stats_identical(const util::RunningStats& a,
                           const util::RunningStats& b, const char* what) {
  if (a.count() != b.count() || a.mean() != b.mean() ||
      a.sample_stddev() != b.sample_stddev() || a.min() != b.min() ||
      a.max() != b.max()) {
    fail(what);
  }
}

// --- validation gates -------------------------------------------------------

void check_connectivity_bit_identity() {
  constexpr std::size_t kTrials = 256;
  const sim::AggregateResult frozen =
      reference::run_trials(submarine_sim(), s1_model(), kTrials, 42);
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  sim::ConnectivityObserver connectivity;
  pipeline.add_observer(connectivity);
  pipeline.run(kTrials, 42, 1);
  if (connectivity.result().trials != frozen.trials) {
    fail("connectivity trial counts diverged from the frozen run_trials");
  }
  check_stats_identical(connectivity.result().cables_failed_pct,
                        frozen.cables_failed_pct,
                        "cables-failed stats diverged from frozen run_trials");
  check_stats_identical(connectivity.result().nodes_unreachable_pct,
                        frozen.nodes_unreachable_pct,
                        "nodes-unreachable diverged from frozen run_trials");
}

void check_availability_bit_identity() {
  constexpr std::size_t kDraws = 256;
  const services::ServiceSpec spec =
      datacenter_service(datasets::DataCenterOperator::kGoogle);
  const services::AvailabilitySweep frozen = reference::availability_sweep(
      submarine_sim(), s1_model(), spec, kDraws, 77, 1);
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  services::AvailabilityObserver availability(submarine(), spec);
  pipeline.add_observer(availability);
  pipeline.run(kDraws, 77, 1);
  if (availability.result().draws != frozen.draws) {
    fail("availability draw counts diverged from frozen availability_sweep");
  }
  check_stats_identical(availability.result().read_availability,
                        frozen.read_availability,
                        "read availability diverged from frozen sweep");
  check_stats_identical(availability.result().write_availability,
                        frozen.write_availability,
                        "write availability diverged from frozen sweep");
}

// Replays the same per-trial split streams through a serial
// DnsResolutionEvaluator with the pipeline's chunked merge discipline; the
// observer must reproduce every statistic exactly.
void check_dns_exact_replay() {
  constexpr std::size_t kTrials = 128;
  constexpr std::uint64_t kSeed = 5;
  constexpr double kThresholdPct = 10.0;
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  analysis::DnsResolutionObserver observer(submarine(), dns_roots(),
                                           kThresholdPct);
  pipeline.add_observer(observer);
  pipeline.run(kTrials, kSeed, 0);

  const auto table = submarine_sim().death_probability_table(s1_model());
  analysis::DnsResolutionEvaluator evaluator(submarine(), dns_roots());
  analysis::DnsResolutionReport report;
  util::Bitset dead;
  const util::Rng base(kSeed);
  const std::size_t chunks = sim::chunk_count(kTrials);
  struct Chunk {
    util::RunningStats availability;
    util::RunningStats letters;
    std::size_t degraded = 0, heavy = 0, joint = 0;
  };
  std::vector<Chunk> per_chunk(chunks);
  const double cables = static_cast<double>(submarine().cable_count());
  for (std::size_t t = 0; t < kTrials; ++t) {
    util::Rng rng = base.split(t);
    submarine_sim().sample_cable_failures(table, rng, dead);
    evaluator.evaluate(dead, report);
    Chunk& slot = per_chunk[t / sim::kTrialChunk];
    slot.availability.add(report.resolution_availability);
    slot.letters.add(report.mean_letters_reachable);
    const double cables_pct =
        100.0 * static_cast<double>(dead.count()) / cables;
    const bool degraded =
        analysis::resolution_degraded(report.resolution_availability);
    const bool heavy = cables_pct > kThresholdPct;
    if (degraded) ++slot.degraded;
    if (heavy) ++slot.heavy;
    if (degraded && heavy) ++slot.joint;
  }
  analysis::DnsResolutionSweep replay;
  for (const Chunk& slot : per_chunk) {
    replay.resolution_availability.merge(slot.availability);
    replay.mean_letters_reachable.merge(slot.letters);
    replay.degraded_trials += slot.degraded;
    replay.heavy_loss_trials += slot.heavy;
    replay.joint_trials += slot.joint;
  }
  check_stats_identical(observer.result().resolution_availability,
                        replay.resolution_availability,
                        "DNS resolution availability diverged from replay");
  check_stats_identical(observer.result().mean_letters_reachable,
                        replay.mean_letters_reachable,
                        "DNS letters-reachable diverged from replay");
  if (observer.result().degraded_trials != replay.degraded_trials ||
      observer.result().heavy_loss_trials != replay.heavy_loss_trials ||
      observer.result().joint_trials != replay.joint_trials) {
    fail("DNS joint-statistic counters diverged from replay");
  }
  if (observer.result().joint_trials > observer.result().degraded_trials ||
      observer.result().joint_trials > observer.result().heavy_loss_trials) {
    fail("DNS joint count exceeds a marginal count");
  }

  // The timed old path below runs the frozen one-shot DNS evaluation: it
  // must answer exactly as the live one-shot API does.
  for (std::size_t t = 0; t < 4; ++t) {
    util::Rng rng = base.split(t);
    submarine_sim().sample_cable_failures(table, rng, dead);
    std::vector<bool> dead_bits(dead.size());
    for (std::size_t c = 0; c < dead_bits.size(); ++c) dead_bits[c] = dead[c];
    const analysis::DnsResolutionReport live =
        analysis::evaluate_dns_resolution(submarine(), dead_bits, dns_roots());
    const analysis::DnsResolutionReport frozen =
        reference::evaluate_dns_resolution(submarine(), dead_bits,
                                           dns_roots());
    bool same = live.resolution_availability ==
                    frozen.resolution_availability &&
                live.mean_letters_reachable == frozen.mean_letters_reachable &&
                live.per_continent.size() == frozen.per_continent.size();
    for (std::size_t i = 0; same && i < live.per_continent.size(); ++i) {
      same = live.per_continent[i].continent ==
                 frozen.per_continent[i].continent &&
             live.per_continent[i].any_root_reachable ==
                 frozen.per_continent[i].any_root_reachable &&
             live.per_continent[i].letters_reachable ==
                 frozen.per_continent[i].letters_reachable;
    }
    if (!same) {
      fail("evaluate_dns_resolution diverged from the frozen reference");
    }
  }
}

void check_country_against_analytic() {
  const std::vector<std::string> countries = {"US", "JP", "BR"};
  {
    constexpr std::size_t kTrials = 512;
    sim::TrialPipeline pipeline(submarine_sim(), s1_model());
    analysis::CountryIsolationObserver isolation(submarine(), countries);
    pipeline.add_observer(isolation);
    pipeline.run(kTrials, 99, 0);
    for (const analysis::CountryIsolationResult& r : isolation.results()) {
      const auto cables =
          analysis::international_cables(submarine(), r.country);
      if (r.international_cable_count != cables.size()) {
        fail("country cable set size diverged from international_cables");
      }
      const double p_all =
          analysis::all_fail_probability(submarine_sim(), s1_model(), cables);
      const double e_surv =
          analysis::expected_survivors(submarine_sim(), s1_model(), cables);
      const double se_iso =
          std::sqrt(p_all * (1.0 - p_all) / static_cast<double>(kTrials));
      if (std::abs(r.isolation_rate() - p_all) > 4.0 * se_iso + 1e-9) {
        fail("country isolation rate diverged from analytic probability");
      }
      const double se_surv = r.surviving_cables.sample_stddev() /
                             std::sqrt(static_cast<double>(kTrials));
      if (std::abs(r.surviving_cables.mean() - e_surv) >
          4.0 * se_surv + 1e-9) {
        fail("country survivor mean diverged from analytic expectation");
      }
    }
  }
  {
    // Deterministic endpoint: p = 1 kills every repeater-bearing cable.
    const gic::UniformFailureModel certain(1.0);
    sim::TrialPipeline pipeline(submarine_sim(), certain);
    analysis::CountryIsolationObserver isolation(submarine(), countries);
    pipeline.add_observer(isolation);
    pipeline.run(32, 7, 0);
    for (const analysis::CountryIsolationResult& r : isolation.results()) {
      const auto cables =
          analysis::international_cables(submarine(), r.country);
      const double e_surv =
          analysis::expected_survivors(submarine_sim(), certain, cables);
      if (r.surviving_cables.mean() != e_surv) {
        fail("p=1 endpoint survivor count diverged from analytic expectation");
      }
    }
  }
}

void check_thread_bit_identity() {
  constexpr std::size_t kTrials = 200;
  const services::ServiceSpec spec =
      datacenter_service(datasets::DataCenterOperator::kFacebook);
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver availability(submarine(), spec);
  analysis::DnsResolutionObserver dns(submarine(), dns_roots(), 10.0);
  analysis::CountryIsolationObserver isolation(submarine(), {"US", "SG"});
  pipeline.add_observer(connectivity);
  pipeline.add_observer(availability);
  pipeline.add_observer(dns);
  pipeline.add_observer(isolation);

  pipeline.run(kTrials, 63, 1);
  const sim::ConnectivityObserver::Result conn_ref = connectivity.result();
  const services::AvailabilitySweep avail_ref = availability.result();
  const analysis::DnsResolutionSweep dns_ref = dns.result();
  const std::vector<analysis::CountryIsolationResult> iso_ref =
      isolation.results();

  for (const std::size_t threads :
       {std::size_t{2}, std::size_t{4}, std::size_t{0}}) {
    pipeline.run(kTrials, 63, threads);
    check_stats_identical(connectivity.result().cables_failed_pct,
                          conn_ref.cables_failed_pct,
                          "cables-failed diverged across thread counts");
    check_stats_identical(connectivity.result().largest_component_pct,
                          conn_ref.largest_component_pct,
                          "largest-component diverged across thread counts");
    check_stats_identical(availability.result().read_availability,
                          avail_ref.read_availability,
                          "read availability diverged across thread counts");
    check_stats_identical(availability.result().write_availability,
                          avail_ref.write_availability,
                          "write availability diverged across thread counts");
    check_stats_identical(dns.result().resolution_availability,
                          dns_ref.resolution_availability,
                          "DNS availability diverged across thread counts");
    if (dns.result().joint_trials != dns_ref.joint_trials) {
      fail("DNS joint counter diverged across thread counts");
    }
    for (std::size_t i = 0; i < iso_ref.size(); ++i) {
      if (isolation.results()[i].isolated_trials !=
          iso_ref[i].isolated_trials) {
        fail("country isolation diverged across thread counts");
      }
      check_stats_identical(isolation.results()[i].surviving_cables,
                            iso_ref[i].surviving_cables,
                            "country survivors diverged across thread counts");
    }
  }
}

// Once per-worker scratch and the observers' slots are warm, the per-trial
// loop (draw + mask + components + all five observers) never allocates.
// The counted pass replays the warm-up's exact draw sequence.
void check_zero_steady_state_allocations() {
  constexpr std::size_t kSteadyTrials = 64;
  const services::ServiceSpec spec =
      datacenter_service(datasets::DataCenterOperator::kGoogle);
  sim::TrialPipeline pipeline(submarine_sim(), s1_model());
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver availability(submarine(), spec);
  analysis::DnsResolutionObserver dns(submarine(), dns_roots(), 10.0);
  analysis::CountryIsolationObserver isolation(submarine(), {"US", "SG"});
  std::vector<sim::TrialObserver*> observers = {&connectivity, &availability,
                                                &dns, &isolation};
  for (sim::TrialObserver* o : observers) pipeline.add_observer(*o);

  const std::size_t chunks = sim::chunk_count(kSteadyTrials);
  for (sim::TrialObserver* o : observers) o->begin_run(pipeline, 1, chunks);
  sim::PipelineScratch scratch;
  const util::Rng base(55);
  auto loop = [&] {
    for (std::size_t t = 0; t < kSteadyTrials; ++t) {
      pipeline.run_trial(t, base, scratch, 0,
                         t / sim::kTrialChunk);
    }
  };
  loop();  // warm every buffer over the same sequence
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  loop();
  const std::size_t after = g_allocations.load(std::memory_order_relaxed);
  for (sim::TrialObserver* o : observers) o->end_run();
  if (after != before) {
    std::fprintf(stderr,
                 "perf_pipeline equivalence check FAILED: steady-state trial "
                 "loop allocated %zu times over %zu trials\n",
                 after - before, kSteadyTrials);
    std::exit(1);
  }
}

// Paper §4.3.1 checkpoint: uniform p = 0.01 at the default 150 km repeater
// spacing loses ~15.8% of submarine cables and ~11.0% of nodes.
void check_figure_checkpoints() {
  const gic::UniformFailureModel model(0.01);
  const sim::AggregateResult agg =
      submarine_sim().run_trials(model, 512, 2021);
  std::printf(
      "perf_pipeline: p=0.01 checkpoint: %.1f%% cables, %.1f%% nodes "
      "(paper: 15.8%% / 11.0%%)\n",
      agg.cables_failed_pct.mean(), agg.nodes_unreachable_pct.mean());
  if (std::abs(agg.cables_failed_pct.mean() - 15.8) > 2.0 ||
      std::abs(agg.nodes_unreachable_pct.mean() - 11.0) > 2.5) {
    fail("figure checkpoint drifted from the paper's §4.3.1 values");
  }
}

// Per-trial cost of a warm report at 1 thread, on S1 over 2,048 trials:
// the served observer set of core::ReportBundle (connectivity, Google and
// Facebook availability, DNS resolution, the nine report countries) against
// the same pipeline with the frozen service, DNS and country observers,
// which decompose every trial's masked network. Both must agree exactly
// before they are timed.
struct ReportTrial {
  double live_us = 0.0;
  double frozen_us = 0.0;
};

ReportTrial time_report_trial() {
  constexpr std::size_t kTrials = 2048;
  constexpr std::uint64_t kSeed = 1921;
  const server::ScenarioRequest req;  // served defaults: S1, quorum 2
  core::ReportBundle live(submarine(), dns_roots(), s1_model(), req, 1);

  sim::TrialPipeline frozen_pipeline(live.simulator, s1_model());
  sim::ConnectivityObserver connectivity;
  services::ServiceSpec google =
      datacenter_service(datasets::DataCenterOperator::kGoogle);
  services::ServiceSpec facebook =
      datacenter_service(datasets::DataCenterOperator::kFacebook);
  google.write_quorum = facebook.write_quorum = req.quorum;
  reference::AvailabilityObserver frozen_google(submarine(), google);
  reference::AvailabilityObserver frozen_facebook(submarine(), facebook);
  reference::DnsResolutionObserver frozen_dns(submarine(), dns_roots(),
                                              req.dns_threshold_pct);
  reference::CountryIsolationObserver frozen_isolation(submarine(),
                                                       core::kReportCountries);
  reference::ReportObservers frozen;
  frozen.add(frozen_google);
  frozen.add(frozen_facebook);
  frozen.add(frozen_dns);
  frozen.add(frozen_isolation);
  frozen_pipeline.add_observer(connectivity);
  frozen_pipeline.add_observer(frozen);

  // The first runs warm both and must agree.
  live.run(kTrials, kSeed);
  frozen_pipeline.run(kTrials, kSeed, 1);
  const auto same_sweep = [](const services::AvailabilitySweep& a,
                             const services::AvailabilitySweep& b) {
    check_stats_identical(a.read_availability, b.read_availability,
                          "report trial: read availability diverged");
    check_stats_identical(a.write_availability, b.write_availability,
                          "report trial: write availability diverged");
  };
  same_sweep(live.google.result(), frozen_google.result());
  same_sweep(live.facebook.result(), frozen_facebook.result());
  check_stats_identical(live.dns.result().resolution_availability,
                        frozen_dns.result().resolution_availability,
                        "report trial: DNS availability diverged");
  check_stats_identical(live.dns.result().mean_letters_reachable,
                        frozen_dns.result().mean_letters_reachable,
                        "report trial: DNS letters diverged");
  if (live.dns.result().joint_trials != frozen_dns.result().joint_trials) {
    fail("report trial: DNS joint counter diverged");
  }
  for (std::size_t i = 0; i < core::kReportCountries.size(); ++i) {
    const analysis::CountryIsolationResult& a = live.isolation.results()[i];
    const analysis::CountryIsolationResult& b = frozen_isolation.results()[i];
    if (a.isolated_trials != b.isolated_trials) {
      fail("report trial: country isolation diverged");
    }
    check_stats_identical(a.surviving_cables, b.surviving_cables,
                          "report trial: country survivors diverged");
  }

  // Interleaved best-of runs, so drift on a shared host hits both.
  ReportTrial out{1e300, 1e300};
  for (int r = 0; r < 5; ++r) {
    out.live_us = std::min(
        out.live_us,
        benchutil::time_best_ms([&] { live.run(kTrials, kSeed); }, 1));
    out.frozen_us = std::min(
        out.frozen_us, benchutil::time_best_ms(
                           [&] { frozen_pipeline.run(kTrials, kSeed, 1); }, 1));
  }
  out.live_us *= 1000.0 / static_cast<double>(kTrials);
  out.frozen_us *= 1000.0 / static_cast<double>(kTrials);
  return out;
}

}  // namespace

int main() {
  check_connectivity_bit_identity();
  check_availability_bit_identity();
  check_dns_exact_replay();
  check_country_against_analytic();
  check_thread_bit_identity();
  check_zero_steady_state_allocations();
  check_figure_checkpoints();
  std::printf("perf_pipeline: all equivalence checks passed\n");

  // --- timing: the acceptance comparison ------------------------------------
  // Old path: the pre-pipeline report drive — one independent Monte-Carlo
  // pass per metric through the one-shot analysis entry points, the way the
  // old scenario code sequenced N analysis calls. Connectivity and two
  // availability passes through the frozen loops of
  // bench/reference/trial_loops.h, and a per-trial DNS loop through the
  // frozen one-shot reference::evaluate_dns_resolution of
  // bench/reference/attachment.h — which, like the old one-shot call,
  // re-attaches the 1076 root instances to landing stations with the
  // linear scan on each realization — plus a per-trial country isolation
  // scan. Each pass
  // redraws cable failures and (where needed) re-decomposes components.
  // New path: construct the pipeline and its observers cold (replica/root
  // resolution happens once, in observer construction), then one pass fans
  // the shared draw out to all five observers. Both single-threaded on the
  // 470-cable submarine network with the same trial count.
  constexpr std::size_t kTrials = 48;
  constexpr std::uint64_t kSeed = 1859;
  const services::ServiceSpec google =
      datacenter_service(datasets::DataCenterOperator::kGoogle);
  const services::ServiceSpec facebook =
      datacenter_service(datasets::DataCenterOperator::kFacebook);
  const std::vector<std::string> countries = {"US", "GB", "SG", "JP", "BR"};

  const double old_ms = benchutil::time_best_ms(
      [&] {
        const sim::AggregateResult agg =
            reference::run_trials(submarine_sim(), s1_model(), kTrials, kSeed);
        if (agg.trials != kTrials) std::exit(1);
        const services::AvailabilitySweep g = reference::availability_sweep(
            submarine_sim(), s1_model(), google, kTrials, kSeed, 1);
        const services::AvailabilitySweep f = reference::availability_sweep(
            submarine_sim(), s1_model(), facebook, kTrials, kSeed, 1);
        if (g.draws != kTrials || f.draws != kTrials) std::exit(1);

        // DNS through the frozen one-shot evaluation, as the old report
        // assembly had to.
        const auto table =
            submarine_sim().death_probability_table(s1_model());
        util::Bitset dead;
        util::RunningStats dns_avail;
        const util::Rng base(kSeed);
        std::vector<bool> dead_bits(submarine().cable_count(), false);
        for (std::size_t t = 0; t < kTrials; ++t) {
          util::Rng rng = base.split(t);
          submarine_sim().sample_cable_failures(table, rng, dead);
          for (std::size_t c = 0; c < dead_bits.size(); ++c) {
            dead_bits[c] = dead[c];
          }
          const analysis::DnsResolutionReport report =
              reference::evaluate_dns_resolution(submarine(), dead_bits,
                                                 dns_roots());
          dns_avail.add(report.resolution_availability);
        }
        if (dns_avail.count() != kTrials) std::exit(1);

        // Standalone country isolation sweep: one more redraw per trial.
        std::vector<std::vector<topo::CableId>> sets;
        for (const std::string& c : countries) {
          sets.push_back(analysis::international_cables(submarine(), c));
        }
        std::size_t isolated = 0;
        for (std::size_t t = 0; t < kTrials; ++t) {
          util::Rng rng = base.split(t);
          submarine_sim().sample_cable_failures(table, rng, dead);
          for (const auto& set : sets) {
            std::size_t survivors = 0;
            for (topo::CableId c : set) {
              if (!dead[c]) ++survivors;
            }
            if (survivors == 0) ++isolated;
          }
        }
        if (isolated > kTrials * countries.size()) std::exit(1);
      },
      2);

  const double new_ms = benchutil::time_best_ms([&] {
    // Pipeline + observer construction (death-table fold, replica and root
    // resolution) counts toward the new path: it is what a cold report
    // run pays.
    sim::TrialPipeline pipeline(submarine_sim(), s1_model());
    sim::ConnectivityObserver connectivity;
    services::AvailabilityObserver g(submarine(), google);
    services::AvailabilityObserver f(submarine(), facebook);
    analysis::DnsResolutionObserver dns(submarine(), dns_roots(), 10.0);
    analysis::CountryIsolationObserver isolation(submarine(), countries);
    pipeline.add_observer(connectivity);
    pipeline.add_observer(g);
    pipeline.add_observer(f);
    pipeline.add_observer(dns);
    pipeline.add_observer(isolation);
    pipeline.run(kTrials, kSeed, 1);
    if (connectivity.result().trials != kTrials ||
        g.result().draws != kTrials || dns.result().trials != kTrials) {
      std::exit(1);
    }
  });

  // Warm pipeline: observers and evaluators already built — the marginal
  // cost of one more multi-metric pass (what each extra (network, model)
  // section of a report pays after the first).
  sim::TrialPipeline warm_pipeline(submarine_sim(), s1_model());
  sim::ConnectivityObserver warm_conn;
  services::AvailabilityObserver warm_g(submarine(), google);
  services::AvailabilityObserver warm_f(submarine(), facebook);
  analysis::DnsResolutionObserver warm_dns(submarine(), dns_roots(), 10.0);
  analysis::CountryIsolationObserver warm_iso(submarine(), countries);
  warm_pipeline.add_observer(warm_conn);
  warm_pipeline.add_observer(warm_g);
  warm_pipeline.add_observer(warm_f);
  warm_pipeline.add_observer(warm_dns);
  warm_pipeline.add_observer(warm_iso);
  const double warm_ms = benchutil::time_best_ms([&] {
    warm_pipeline.run(kTrials, kSeed, 1);
    if (warm_conn.result().trials != kTrials) std::exit(1);
  });

  const double speedup = old_ms / new_ms;
  std::printf(
      "perf_pipeline: 5 metrics, %zu trials, 470-cable network, 1 thread\n",
      kTrials);
  std::printf("  old (per-metric one-shot passes): %10.3f ms\n", old_ms);
  std::printf("  new (one pipeline pass, cold):    %10.3f ms\n", new_ms);
  std::printf("  new (one pipeline pass, warm):    %10.3f ms\n", warm_ms);
  std::printf("  speedup (old/new cold):           %10.2fx\n", speedup);

  const ReportTrial report = time_report_trial();
  const double report_speedup = report.frozen_us / report.live_us;
  std::printf(
      "perf_pipeline: one report trial (S1, 2048 trials, warm, 1 thread)\n");
  std::printf("  frozen observers:                 %10.3f us/trial\n",
              report.frozen_us);
  std::printf("  live observers:                   %10.3f us/trial\n",
              report.live_us);
  std::printf("  speedup (frozen/live):            %10.2fx\n", report_speedup);

  benchutil::write_bench_json(
      "pipeline", {{"trials", static_cast<double>(kTrials), "count"},
                   {"metrics", 5.0, "count"},
                   {"old_report_path_ms", old_ms, "ms"},
                   {"new_pipeline_cold_ms", new_ms, "ms"},
                   {"new_pipeline_warm_ms", warm_ms, "ms"},
                   {"speedup_cold", speedup, "x"},
                   {"report_trial_us", report.live_us, "us"},
                   {"report_trial_frozen_us", report.frozen_us, "us"},
                   {"report_trial_speedup", report_speedup, "x"}});

  int status = 0;
  if (speedup < 3.0) {
    std::fprintf(stderr,
                 "perf_pipeline FAILED: speedup %.2fx below the 3x acceptance "
                 "threshold\n",
                 speedup);
    status = 1;
  }
  if (report_speedup < 4.0) {
    std::fprintf(stderr,
                 "perf_pipeline FAILED: report-trial speedup %.2fx below the "
                 "4x threshold\n",
                 report_speedup);
    status = 1;
  }
  return status;
}
