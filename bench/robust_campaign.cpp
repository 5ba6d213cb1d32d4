// Robustness acceptance harness for crash-safe Monte-Carlo campaigns.
//
// main() runs hard gates before any timing:
//   1. CampaignRunner without a checkpoint path is bit-identical to a plain
//      TrialPipeline run over the full submarine observer set,
//   2. kill/resume bit-identity: a campaign interrupted mid-segment (via a
//      deterministic kWorkerTask fault) resumes from its checkpoint to the
//      exact bits of an uninterrupted run, for thread counts {1, 2, 4} and
//      across thread counts (interrupt at 1, resume at 4),
//   3. fault-site sweep: for every registered FaultSite, an armed campaign
//      either completes with correct results or fails with a structured
//      util::Error — never a crash, hang, or silent wrong answer — and a
//      subsequent resume/retry still lands on the reference bits,
//   4. corrupted checkpoints (truncation, bit flip, version patch) are
//      rejected with the right error code and the campaign restarts fresh
//      to correct results.
// Then it times checkpointed vs uncheckpointed campaigns (same trials,
// single thread, warm observers) and gates the checkpoint work the runner
// measures itself (CampaignReport::checkpoint_ms: serializing plus the
// atomic write) at <= 2% of the plain campaign, emitting BENCH_robust.json.
// The end-to-end difference of the two campaigns is printed and recorded
// as a cross-check but not gated: it is one checkpoint write's worth of
// work, smaller than the run-to-run drift of a shared host, so it reads
// negative about as often as positive. Set SOLARNET_BENCH_SKIP_PERF=1 to
// run only the correctness gates (sanitizer builds distort timing).
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <limits>
#include <string>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "bench_util.h"
#include "datasets/datacenters.h"
#include "datasets/submarine.h"
#include "services/availability.h"
#include "sim/campaign.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "util/checkpoint.h"
#include "util/fault_injection.h"
#include "util/parallel.h"

namespace {

using namespace solarnet;

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

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

services::ServiceSpec google_service() {
  services::ServiceSpec spec;
  spec.name = "google";
  for (const datasets::DataCenter& dc :
       datasets::datacenters_of(datasets::DataCenterOperator::kGoogle)) {
    spec.replicas.push_back(dc.location);
  }
  spec.write_quorum = 2;
  return spec;
}

const std::vector<datasets::DnsRootInstance>& dns_roots() {
  static const auto roots = datasets::make_dns_dataset({});
  return roots;
}

std::string checkpoint_path() {
  return (std::filesystem::temp_directory_path() / "solarnet_robust_bench.ck")
      .string();
}

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "robust_campaign gate FAILED: %s\n", what);
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

// The full submarine observer set, built fresh per run so resumes always
// start from brand-new accumulators.
struct Bundle {
  sim::TrialPipeline pipeline;
  sim::ConnectivityObserver connectivity;
  services::AvailabilityObserver availability;
  analysis::DnsResolutionObserver dns;
  analysis::CountryIsolationObserver isolation;
  sim::CampaignRunner campaign;

  Bundle()
      : pipeline(submarine_sim(), s1_model()),
        availability(submarine(), google_service()),
        dns(submarine(), dns_roots(), 10.0),
        isolation(submarine(), {"US", "GB", "SG"}),
        campaign(pipeline) {
    campaign.add_observer(connectivity);
    campaign.add_observer(availability);
    campaign.add_observer(dns);
    campaign.add_observer(isolation);
  }
};

void check_bundles_identical(const Bundle& got, const Bundle& want,
                             const char* what) {
  check_stats_identical(got.connectivity.result().cables_failed_pct,
                        want.connectivity.result().cables_failed_pct, what);
  check_stats_identical(got.connectivity.result().nodes_unreachable_pct,
                        want.connectivity.result().nodes_unreachable_pct,
                        what);
  check_stats_identical(got.connectivity.result().largest_component_pct,
                        want.connectivity.result().largest_component_pct,
                        what);
  check_stats_identical(got.availability.result().read_availability,
                        want.availability.result().read_availability, what);
  check_stats_identical(got.availability.result().write_availability,
                        want.availability.result().write_availability, what);
  check_stats_identical(got.dns.result().resolution_availability,
                        want.dns.result().resolution_availability, what);
  if (got.dns.result().degraded_trials != want.dns.result().degraded_trials ||
      got.dns.result().heavy_loss_trials !=
          want.dns.result().heavy_loss_trials ||
      got.dns.result().joint_trials != want.dns.result().joint_trials) {
    fail(what);
  }
  if (got.isolation.results().size() != want.isolation.results().size()) {
    fail(what);
  }
  for (std::size_t i = 0; i < want.isolation.results().size(); ++i) {
    if (got.isolation.results()[i].isolated_trials !=
        want.isolation.results()[i].isolated_trials) {
      fail(what);
    }
    check_stats_identical(got.isolation.results()[i].surviving_cables,
                          want.isolation.results()[i].surviving_cables, what);
  }
}

constexpr std::size_t kTrials = 256;  // 8 chunks of 32
constexpr std::uint64_t kSeed = 4242;

sim::CampaignOptions campaign_options(std::size_t threads,
                                      bool with_checkpoint) {
  sim::CampaignOptions o;
  o.trials = kTrials;
  o.seed = kSeed;
  o.threads = threads;
  if (with_checkpoint) o.checkpoint_path = checkpoint_path();
  o.checkpoint_every_chunks = 2;
  return o;
}

// --- gates ------------------------------------------------------------------

void check_campaign_matches_pipeline(const Bundle& reference) {
  Bundle campaign;
  const sim::CampaignReport report =
      campaign.campaign.run(campaign_options(1, false));
  if (report.chunks_executed != report.chunks) {
    fail("uncheckpointed campaign did not execute every chunk");
  }
  check_bundles_identical(campaign, reference,
                          "campaign diverged from plain pipeline run");
}

void check_kill_resume_bit_identity(const Bundle& reference) {
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2},
                                    std::size_t{4}}) {
    std::filesystem::remove(checkpoint_path());
    // Segments are 2 chunks; fault the worker task after one full segment
    // (probes 1-2) so the campaign dies owning a 2-chunk checkpoint.
    {
      Bundle doomed;
      const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                    std::uint64_t{3});
      bool threw = false;
      try {
        doomed.campaign.run(campaign_options(threads, true));
      } catch (const util::Error&) {
        threw = true;
      }
      if (!threw) fail("armed worker-task fault did not interrupt campaign");
    }
    if (!util::file_exists(checkpoint_path())) {
      fail("interrupted campaign left no checkpoint behind");
    }
    Bundle resumed;
    const sim::CampaignReport report =
        resumed.campaign.run(campaign_options(threads, true));
    if (!report.resumed || report.chunks_resumed == 0) {
      fail("campaign did not resume from the interrupt checkpoint");
    }
    if (report.chunks_resumed + report.chunks_executed != report.chunks) {
      fail("resumed + executed chunks do not cover the campaign");
    }
    check_bundles_identical(resumed, reference,
                            "kill/resume diverged from uninterrupted run");
  }

  // Cross-thread-count resume: interrupt at 1 worker, resume at 4.
  std::filesystem::remove(checkpoint_path());
  {
    Bundle doomed;
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    try {
      doomed.campaign.run(campaign_options(1, true));
      fail("armed worker-task fault did not interrupt campaign");
    } catch (const util::Error&) {
    }
  }
  Bundle resumed;
  const sim::CampaignReport report =
      resumed.campaign.run(campaign_options(4, true));
  if (!report.resumed) fail("cross-thread resume did not pick up checkpoint");
  check_bundles_identical(
      resumed, reference,
      "resume under a different thread count diverged from reference");
}

// Every registered fault site, armed with a one-shot fault: the campaign
// either completes correctly or throws a structured util::Error, and a
// retry afterwards (resuming whatever checkpoint survived) reaches the
// reference bits. Anything else — crash, silent divergence — fails.
void check_fault_site_sweep(const Bundle& reference) {
  for (const util::FaultSite site : util::all_fault_sites()) {
    std::filesystem::remove(checkpoint_path());
    bool completed = false;
    {
      Bundle armed_run;
      const util::ScopedFault fault(site, std::uint64_t{2});
      try {
        armed_run.campaign.run(campaign_options(1, true));
        completed = true;
        // Completed despite the fault (e.g. a checkpoint-write failure
        // only degrades crash protection): results must be right.
        check_bundles_identical(
            armed_run, reference,
            "campaign completed under fault but with wrong results");
      } catch (const util::Error&) {
        // Structured failure: acceptable; retry below must recover.
      } catch (...) {
        std::fprintf(stderr,
                     "robust_campaign gate FAILED: fault site '%s' escaped "
                     "as an unstructured exception\n",
                     util::to_string(site));
        std::exit(1);
      }
    }
    if (!completed) {
      Bundle retry;
      const sim::CampaignReport report =
          retry.campaign.run(campaign_options(1, true));
      if (report.chunks_resumed + report.chunks_executed != report.chunks) {
        fail("retry after injected fault did not cover the campaign");
      }
      check_bundles_identical(
          retry, reference,
          "retry after injected fault diverged from reference");
    }
    util::FaultInjector::instance().disarm_all();
  }
}

void check_corruption_rejection(const Bundle& reference) {
  // Build a mid-campaign checkpoint by interrupting.
  std::filesystem::remove(checkpoint_path());
  {
    Bundle doomed;
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    try {
      doomed.campaign.run(campaign_options(1, true));
      fail("interrupt for corruption gate did not fire");
    } catch (const util::Error&) {
    }
  }
  const std::string clean = util::read_file(checkpoint_path());

  struct Case {
    const char* name;
    std::string contents;
    util::ErrorCode expected;
  };
  std::string truncated = clean.substr(0, clean.size() / 2);
  std::string flipped = clean;
  flipped[flipped.size() / 2] ^= 0x20;
  std::string version = clean;
  version[4] = 99;
  const Case cases[] = {
      {"truncated", truncated, util::ErrorCode::kCorrupt},
      {"bit-flipped", flipped, util::ErrorCode::kCorrupt},
      {"future version", version, util::ErrorCode::kVersionMismatch},
  };
  for (const Case& c : cases) {
    util::atomic_write_file(checkpoint_path(), c.contents);
    Bundle fresh;
    const sim::CampaignReport report =
        fresh.campaign.run(campaign_options(1, true));
    if (report.resumed) {
      std::fprintf(stderr,
                   "robust_campaign gate FAILED: %s checkpoint was resumed\n",
                   c.name);
      std::exit(1);
    }
    if (report.resume_status.code() != c.expected) {
      std::fprintf(
          stderr,
          "robust_campaign gate FAILED: %s checkpoint rejected with the "
          "wrong code (%s)\n",
          c.name, util::to_string(report.resume_status.code()));
      std::exit(1);
    }
    check_bundles_identical(
        fresh, reference,
        "fresh restart after corrupt checkpoint diverged from reference");
  }
  std::filesystem::remove(checkpoint_path());
}

}  // namespace

int main() {
  util::FaultInjector::instance().disarm_all();

  // Reference: one uninterrupted plain pipeline run.
  Bundle reference;
  reference.pipeline.run(kTrials, kSeed, 1);

  check_campaign_matches_pipeline(reference);
  check_kill_resume_bit_identity(reference);
  check_fault_site_sweep(reference);
  check_corruption_rejection(reference);
  std::printf("robust_campaign: all robustness gates passed\n");

  const bool skip_perf = [] {
    const char* v = std::getenv("SOLARNET_BENCH_SKIP_PERF");
    return v != nullptr && std::strcmp(v, "0") != 0;
  }();

  double plain_ms = 0.0;
  double checkpointed_ms = 0.0;
  double overhead_pct = 0.0;
  double write_ms = 0.0;
  double write_pct = 0.0;
  if (!skip_perf) {
    // Warm overhead: checkpointing a 16384-trial campaign every 256 chunks
    // vs the same campaign unprotected. The cadence matters: a checkpoint
    // write has a fixed serialization + fsync cost, so the gate measures a
    // sane ratio of work to writes (~1s of trials per write), not a
    // pathological checkpoint-every-few-ms loop. Bundles are rebuilt inside
    // the timed region symmetrically, so the difference is serialization +
    // atomic write + file churn only.
    constexpr std::size_t kPerfTrials = 16384;
    constexpr std::size_t kPerfEvery = 256;
    const auto run_once = [&](bool checkpoint) -> sim::CampaignReport {
      Bundle b;
      sim::CampaignOptions o;
      o.trials = kPerfTrials;
      o.seed = kSeed;
      o.threads = 1;
      if (checkpoint) {
        o.checkpoint_path = checkpoint_path();
        o.checkpoint_every_chunks = kPerfEvery;
      }
      const sim::CampaignReport report = b.campaign.run(o);
      if (b.connectivity.result().trials != kPerfTrials) std::exit(1);
      if (checkpoint && report.checkpoints_written == 0) {
        fail("timed checkpointed campaign wrote no checkpoint");
      }
      return report;
    };
    run_once(false);  // warm caches before timing
    // Interleave the repeats so a system-noise burst hits both variants
    // instead of inflating whichever happened to be timed last. The write
    // time is the least over the repeats, like the two campaign times:
    // host noise only ever adds to a measurement.
    constexpr int kRepeats = 5;
    plain_ms = std::numeric_limits<double>::infinity();
    checkpointed_ms = std::numeric_limits<double>::infinity();
    write_ms = std::numeric_limits<double>::infinity();
    for (int r = 0; r < kRepeats; ++r) {
      plain_ms =
          std::min(plain_ms, benchutil::time_best_ms([&] { run_once(false); }, 1));
      // A leftover checkpoint would be resumed, not rewritten.
      std::filesystem::remove(checkpoint_path());
      checkpointed_ms = std::min(
          checkpointed_ms, benchutil::time_best_ms([&] {
            write_ms = std::min(write_ms, run_once(true).checkpoint_ms);
          }, 1));
    }
    std::filesystem::remove(checkpoint_path());
    overhead_pct = 100.0 * (checkpointed_ms - plain_ms) / plain_ms;
    write_pct = 100.0 * write_ms / plain_ms;

    std::printf("robust_campaign: %zu trials, 1 thread, checkpoint every %zu "
                "chunks\n",
                kPerfTrials, kPerfEvery);
    std::printf("  plain campaign:        %10.3f ms\n", plain_ms);
    std::printf("  checkpointed campaign: %10.3f ms\n", checkpointed_ms);
    std::printf("  end-to-end difference: %9.2f%% (not gated)\n",
                overhead_pct);
    std::printf("  checkpoint writes:     %10.3f ms = %.2f%% of plain\n",
                write_ms, write_pct);
  } else {
    std::printf("robust_campaign: SOLARNET_BENCH_SKIP_PERF set, timing "
                "gates skipped\n");
  }

  benchutil::write_bench_json(
      "robust",
      {{"trials", static_cast<double>(kTrials), "count"},
       {"fault_sites", static_cast<double>(util::kFaultSiteCount), "count"},
       {"plain_campaign_ms", plain_ms, "ms"},
       {"checkpointed_campaign_ms", checkpointed_ms, "ms"},
       {"checkpoint_overhead_pct", overhead_pct, "pct"},
       {"checkpoint_write_ms", write_ms, "ms"},
       {"checkpoint_write_pct", write_pct, "pct"}});

  if (!skip_perf && write_pct > 2.0) {
    std::fprintf(stderr,
                 "robust_campaign FAILED: checkpoint writes take %.2f%% of a "
                 "plain campaign, above the 2%% acceptance threshold\n",
                 write_pct);
    return 1;
  }
  return 0;
}
