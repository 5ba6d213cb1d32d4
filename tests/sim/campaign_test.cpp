#include "sim/campaign.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "gic/failure_model.h"
#include "services/availability.h"
#include "util/checkpoint.h"
#include "util/fault_injection.h"
#include "util/parallel.h"

namespace solarnet::sim {
namespace {

void expect_stats_eq(const util::RunningStats& a, const util::RunningStats& b) {
  EXPECT_EQ(a.count(), b.count());
  EXPECT_EQ(a.mean(), b.mean());
  EXPECT_EQ(a.sample_stddev(), b.sample_stddev());
  EXPECT_EQ(a.min(), b.min());
  EXPECT_EQ(a.max(), b.max());
}

// The pipeline_test fixture network: NY (US) -- Bude (GB) -- Singapore (SG)
// plus a Lisbon (PT) spur.
class CampaignTest : public ::testing::Test {
 protected:
  CampaignTest() : net_("campaign"), model_(gic::LatitudeBandFailureModel::s1()) {
    add_node("NY", {40.7, -74.0}, "US");
    add_node("Bude", {50.8, -4.5}, "GB");
    add_node("Singapore", {1.35, 103.8}, "SG");
    add_node("Lisbon", {38.7, -9.1}, "PT");
    add_cable("atl", 0, 1, 6000.0);
    add_cable("asia", 1, 2, 11000.0);
    add_cable("spur", 0, 3, 5500.0);
    checkpoint_path_ =
        (std::filesystem::temp_directory_path() /
         ("solarnet_campaign_test_" +
          std::string(::testing::UnitTest::GetInstance()
                          ->current_test_info()
                          ->name()) +
          ".ck"))
            .string();
    std::filesystem::remove(checkpoint_path_);
    util::FaultInjector::instance().disarm_all();
  }

  ~CampaignTest() override {
    util::FaultInjector::instance().disarm_all();
    std::filesystem::remove(checkpoint_path_);
  }

  void add_node(const char* name, geo::GeoPoint p, const char* cc) {
    net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  void add_cable(const char* name, topo::NodeId a, topo::NodeId b, double km) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, km}};
    net_.add_cable(std::move(c));
  }

  services::ServiceSpec service_spec() const {
    services::ServiceSpec spec;
    spec.name = "svc";
    spec.replicas = {{40.7, -74.0}, {1.35, 103.8}};
    spec.write_quorum = 2;
    return spec;
  }
  std::vector<datasets::DnsRootInstance> dns_roots() const {
    return {
        {'a', {40.7, -74.0}, "US", geo::Continent::kNorthAmerica},
        {'b', {1.35, 103.8}, "SG", geo::Continent::kAsia},
    };
  }

  // The full checkpointable observer set plus a runner, built fresh for
  // each run — resuming always starts from brand-new observers.
  struct Bundle {
    TrialPipeline pipeline;
    ConnectivityObserver connectivity;
    services::AvailabilityObserver availability;
    analysis::DnsResolutionObserver dns;
    analysis::CountryIsolationObserver isolation;
    CampaignRunner campaign;

    Bundle(const FailureSimulator& simulator,
           const gic::RepeaterFailureModel& model,
           const topo::InfrastructureNetwork& net,
           const services::ServiceSpec& spec,
           const std::vector<datasets::DnsRootInstance>& roots,
           double dns_threshold_pct = 10.0)
        : pipeline(simulator, model),
          availability(net, spec),
          dns(net, roots, dns_threshold_pct),
          isolation(net, {"US", "GB"}),
          campaign(pipeline) {
      campaign.add_observer(connectivity);
      campaign.add_observer(availability);
      campaign.add_observer(dns);
      campaign.add_observer(isolation);
    }
  };

  Bundle make_bundle(const FailureSimulator& simulator) const {
    return Bundle(simulator, model_, net_, service_spec(), dns_roots());
  }

  static void expect_bundles_eq(const Bundle& got, const Bundle& want) {
    expect_stats_eq(got.connectivity.result().cables_failed_pct,
                    want.connectivity.result().cables_failed_pct);
    expect_stats_eq(got.connectivity.result().nodes_unreachable_pct,
                    want.connectivity.result().nodes_unreachable_pct);
    expect_stats_eq(got.connectivity.result().largest_component_pct,
                    want.connectivity.result().largest_component_pct);
    expect_stats_eq(got.availability.result().read_availability,
                    want.availability.result().read_availability);
    expect_stats_eq(got.availability.result().write_availability,
                    want.availability.result().write_availability);
    expect_stats_eq(got.dns.result().resolution_availability,
                    want.dns.result().resolution_availability);
    expect_stats_eq(got.dns.result().mean_letters_reachable,
                    want.dns.result().mean_letters_reachable);
    EXPECT_EQ(got.dns.result().degraded_trials,
              want.dns.result().degraded_trials);
    EXPECT_EQ(got.dns.result().heavy_loss_trials,
              want.dns.result().heavy_loss_trials);
    EXPECT_EQ(got.dns.result().joint_trials, want.dns.result().joint_trials);
    ASSERT_EQ(got.isolation.results().size(), want.isolation.results().size());
    for (std::size_t i = 0; i < want.isolation.results().size(); ++i) {
      EXPECT_EQ(got.isolation.results()[i].isolated_trials,
                want.isolation.results()[i].isolated_trials);
      expect_stats_eq(got.isolation.results()[i].surviving_cables,
                      want.isolation.results()[i].surviving_cables);
    }
  }

  CampaignOptions options(std::size_t trials, std::uint64_t seed,
                          std::size_t threads,
                          bool with_checkpoint = true) const {
    CampaignOptions o;
    o.trials = trials;
    o.seed = seed;
    o.threads = threads;
    if (with_checkpoint) o.checkpoint_path = checkpoint_path_;
    o.checkpoint_every_chunks = 2;
    return o;
  }

  topo::InfrastructureNetwork net_;
  gic::LatitudeBandFailureModel model_;
  std::string checkpoint_path_;
};

// 150 trials = 5 chunks of 32; checkpoint_every_chunks = 2 gives segment
// boundaries after chunks 2 and 4.
constexpr std::size_t kTrials = 150;
constexpr std::uint64_t kSeed = 9;

TEST_F(CampaignTest, MatchesPlainPipelineBitForBit) {
  const FailureSimulator simulator(net_, {});

  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);

  Bundle campaign = make_bundle(simulator);
  const CampaignReport report =
      campaign.campaign.run(options(kTrials, kSeed, 0, false));

  EXPECT_EQ(report.trials, kTrials);
  EXPECT_EQ(report.chunks, 5u);
  EXPECT_EQ(report.chunks_executed, 5u);
  EXPECT_EQ(report.chunks_resumed, 0u);
  EXPECT_EQ(report.checkpoints_written, 0u);
  EXPECT_FALSE(report.resumed);
  EXPECT_TRUE(report.resume_status.is_ok());
  expect_bundles_eq(campaign, reference);
}

TEST_F(CampaignTest, CheckpointedRunMatchesAndCleansUp) {
  const FailureSimulator simulator(net_, {});

  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);

  Bundle campaign = make_bundle(simulator);
  const CampaignReport report =
      campaign.campaign.run(options(kTrials, kSeed, 1));

  // Intermediate checkpoints after chunks 2 and 4; the file is removed once
  // the campaign completes.
  EXPECT_EQ(report.checkpoints_written, 2u);
  EXPECT_FALSE(util::file_exists(checkpoint_path_));
  expect_bundles_eq(campaign, reference);
}

TEST_F(CampaignTest, ValidationRejectsBadOptions) {
  const FailureSimulator simulator(net_, {});
  Bundle campaign = make_bundle(simulator);

  CampaignOptions no_trials = options(0, kSeed, 1);
  EXPECT_THROW(campaign.campaign.run(no_trials), std::invalid_argument);

  CampaignOptions zero_segment = options(kTrials, kSeed, 1);
  zero_segment.checkpoint_every_chunks = 0;
  EXPECT_THROW(campaign.campaign.run(zero_segment), std::invalid_argument);

  CampaignOptions silly_threads = options(kTrials, kSeed, 1);
  silly_threads.threads = kMaxReasonableThreads + 1;
  EXPECT_THROW(campaign.campaign.run(silly_threads), std::invalid_argument);

  TrialPipeline bare(simulator, model_);
  CampaignRunner no_observers(bare);
  EXPECT_THROW(no_observers.run(options(kTrials, kSeed, 1)),
               std::invalid_argument);
}

TEST_F(CampaignTest, InterruptedCampaignResumesBitIdentically) {
  const FailureSimulator simulator(net_, {});

  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);

  // Fault the first chunk of the second segment (probes 1-2 are segment
  // one): the campaign dies owning a checkpoint for exactly chunks [0, 2) —
  // whole segments only, never a partial chunk.
  {
    Bundle doomed = make_bundle(simulator);
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    try {
      doomed.campaign.run(options(kTrials, kSeed, 1));
      FAIL() << "expected injected fault";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kFaultInjected);
    }
  }
  ASSERT_TRUE(util::file_exists(checkpoint_path_));

  Bundle resumed = make_bundle(simulator);
  const CampaignReport report =
      resumed.campaign.run(options(kTrials, kSeed, 1));
  EXPECT_TRUE(report.resumed);
  EXPECT_EQ(report.chunks_resumed, 2u);
  EXPECT_EQ(report.chunks_executed, 3u);
  EXPECT_TRUE(report.resume_status.is_ok());
  expect_bundles_eq(resumed, reference);
  // Successful completion removes the checkpoint.
  EXPECT_FALSE(util::file_exists(checkpoint_path_));
}

TEST_F(CampaignTest, MultiWorkerInterruptIsAParallelError) {
  const FailureSimulator simulator(net_, {});
  Bundle doomed = make_bundle(simulator);
  const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                std::uint64_t{1});
  try {
    doomed.campaign.run(options(kTrials, kSeed, 4));
    FAIL() << "expected ParallelError";
  } catch (const util::ParallelError& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kAborted);
    EXPECT_LE(e.tasks_completed(), e.tasks_total());
    try {
      e.rethrow_cause();
      FAIL() << "cause must rethrow";
    } catch (const util::Error& cause) {
      EXPECT_EQ(cause.code(), util::ErrorCode::kFaultInjected);
    }
  }
}

TEST_F(CampaignTest, ResumeIsThreadCountIndependent) {
  const FailureSimulator simulator(net_, {});

  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);

  // Interrupt a single-threaded run, then resume the saved prefix under
  // several thread counts — every one must land on the same bits.
  {
    Bundle doomed = make_bundle(simulator);
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    EXPECT_THROW(doomed.campaign.run(options(kTrials, kSeed, 1)),
                 util::Error);
  }
  ASSERT_TRUE(util::file_exists(checkpoint_path_));
  const std::string saved = util::read_file(checkpoint_path_);

  for (const std::size_t threads : {1u, 2u, 4u}) {
    util::atomic_write_file(checkpoint_path_, saved);
    Bundle resumed = make_bundle(simulator);
    const CampaignReport report =
        resumed.campaign.run(options(kTrials, kSeed, threads));
    EXPECT_TRUE(report.resumed) << "threads=" << threads;
    EXPECT_EQ(report.chunks_resumed, 2u);
    expect_bundles_eq(resumed, reference);
  }
}

TEST_F(CampaignTest, EmptyCountryListStillCheckpointsAndResumes) {
  // A country observer with no countries keeps zero slots per chunk, but
  // its chunks still exist: every segment must checkpoint, and a resume
  // from the saved prefix must land on the uninterrupted bits.
  struct EmptyBundle {
    TrialPipeline pipeline;
    ConnectivityObserver connectivity;
    analysis::CountryIsolationObserver isolation;
    CampaignRunner campaign;

    EmptyBundle(const FailureSimulator& simulator,
                const gic::RepeaterFailureModel& model,
                const topo::InfrastructureNetwork& net)
        : pipeline(simulator, model), isolation(net, {}), campaign(pipeline) {
      campaign.add_observer(connectivity);
      campaign.add_observer(isolation);
    }
  };
  constexpr std::size_t kEmptyTrials = 200;  // 7 chunks, 4 segments
  const FailureSimulator simulator(net_, {});
  EmptyBundle reference(simulator, model_, net_);
  reference.pipeline.run(kEmptyTrials, kSeed);

  EmptyBundle full(simulator, model_, net_);
  const CampaignReport report =
      full.campaign.run(options(kEmptyTrials, kSeed, 1));
  EXPECT_EQ(report.checkpoints_written, 3u);
  EXPECT_TRUE(report.checkpoint_status.is_ok())
      << report.checkpoint_status.to_string();

  {
    EmptyBundle doomed(simulator, model_, net_);
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    EXPECT_THROW(doomed.campaign.run(options(kEmptyTrials, kSeed, 1)),
                 util::Error);
  }
  ASSERT_TRUE(util::file_exists(checkpoint_path_));
  EmptyBundle resumed(simulator, model_, net_);
  const CampaignReport resumed_report =
      resumed.campaign.run(options(kEmptyTrials, kSeed, 2));
  EXPECT_TRUE(resumed_report.resumed);
  EXPECT_EQ(resumed_report.chunks_resumed, 2u);
  EXPECT_TRUE(resumed_report.resume_status.is_ok())
      << resumed_report.resume_status.to_string();
  expect_stats_eq(resumed.connectivity.result().cables_failed_pct,
                  reference.connectivity.result().cables_failed_pct);
  expect_stats_eq(resumed.connectivity.result().nodes_unreachable_pct,
                  reference.connectivity.result().nodes_unreachable_pct);
  expect_stats_eq(resumed.connectivity.result().largest_component_pct,
                  reference.connectivity.result().largest_component_pct);
  EXPECT_TRUE(resumed.isolation.results().empty());
}

// Aborts a campaign with a kWorkerTask fault in its second segment and
// returns the bytes of the checkpoint it leaves (chunks [0, 2)).
class CampaignCorruptionTest : public CampaignTest {
 protected:
  std::string write_checkpoint(const FailureSimulator& simulator) {
    Bundle doomed = make_bundle(simulator);
    const util::ScopedFault fault(util::FaultSite::kWorkerTask,
                                  std::uint64_t{3});
    EXPECT_THROW(doomed.campaign.run(options(kTrials, kSeed, 1)),
                 util::Error);
    return util::read_file(checkpoint_path_);
  }
};

TEST_F(CampaignCorruptionTest, CorruptCheckpointsRestartFreshWithRightCode) {
  const FailureSimulator simulator(net_, {});
  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);
  const std::string clean = write_checkpoint(simulator);

  struct Case {
    const char* name;
    std::string contents;
    util::ErrorCode expected;
  };
  std::string bad_magic = clean;
  bad_magic[0] = 'X';
  std::string bad_version = clean;
  bad_version[4] = 2;  // u32 version, little-endian low byte
  std::string truncated = clean.substr(0, clean.size() - 6);
  std::string flipped = clean;
  flipped[24] ^= 0x01;  // inside the payload -> CRC mismatch
  const Case cases[] = {
      {"bad magic", bad_magic, util::ErrorCode::kCorrupt},
      {"bad version", bad_version, util::ErrorCode::kVersionMismatch},
      {"truncated", truncated, util::ErrorCode::kCorrupt},
      {"bit flip", flipped, util::ErrorCode::kCorrupt},
      {"tiny file", std::string("SN"), util::ErrorCode::kCorrupt},
  };

  for (const Case& c : cases) {
    util::atomic_write_file(checkpoint_path_, c.contents);
    Bundle campaign = make_bundle(simulator);
    const CampaignReport report =
        campaign.campaign.run(options(kTrials, kSeed, 1));
    // Rejected checkpoint -> fresh restart, never a wrong answer.
    EXPECT_FALSE(report.resumed) << c.name;
    EXPECT_EQ(report.chunks_executed, 5u) << c.name;
    EXPECT_EQ(report.resume_status.code(), c.expected) << c.name;
    EXPECT_NE(report.resume_status.to_string().find(checkpoint_path_),
              std::string::npos)
        << c.name;
    expect_bundles_eq(campaign, reference);
  }
}

// A checkpoint from another campaign on the same network is rejected and
// the run restarts fresh under the new configuration: a different seed, or
// at the same seed a different draw law (model, repeater spacing) or
// observer setting (write quorum, DNS threshold).
TEST_F(CampaignCorruptionTest, MismatchedCampaignRejectsCheckpoint) {
  struct Case {
    const char* name;
    std::uint64_t seed;
    double spacing_km;
    bool s2;
    std::size_t write_quorum;
    double dns_threshold_pct;
  };
  const Case cases[] = {
      {"seed", kSeed + 1, 150.0, false, 2, 10.0},
      {"model", kSeed, 150.0, true, 2, 10.0},
      {"spacing", kSeed, 100.0, false, 2, 10.0},
      {"quorum", kSeed, 150.0, false, 1, 10.0},
      {"threshold", kSeed, 150.0, false, 2, 1.0},
  };
  const FailureSimulator written_by(net_, {});
  for (const Case& c : cases) {
    write_checkpoint(written_by);
    TrialConfig config;
    config.repeater_spacing_km = c.spacing_km;
    const FailureSimulator simulator(net_, config);
    const gic::LatitudeBandFailureModel model =
        c.s2 ? gic::LatitudeBandFailureModel::s2() : model_;
    services::ServiceSpec spec = service_spec();
    spec.write_quorum = c.write_quorum;

    Bundle reference(simulator, model, net_, spec, dns_roots(),
                     c.dns_threshold_pct);
    reference.pipeline.run(kTrials, c.seed);
    Bundle campaign(simulator, model, net_, spec, dns_roots(),
                    c.dns_threshold_pct);
    const CampaignReport report =
        campaign.campaign.run(options(kTrials, c.seed, 1));
    EXPECT_FALSE(report.resumed) << c.name;
    EXPECT_EQ(report.chunks_executed, 5u) << c.name;
    EXPECT_EQ(report.resume_status.code(), util::ErrorCode::kMismatch)
        << c.name;
    expect_bundles_eq(campaign, reference);
  }
}

TEST_F(CampaignTest, CheckpointWriteFailureDegradesGracefully) {
  const FailureSimulator simulator(net_, {});

  Bundle reference = make_bundle(simulator);
  reference.pipeline.run(kTrials, kSeed);

  // First checkpoint write faults; the campaign must finish with correct
  // results anyway (only crash protection degrades).
  Bundle campaign = make_bundle(simulator);
  const util::ScopedFault fault(util::FaultSite::kCheckpointWrite,
                                std::uint64_t{1});
  const CampaignReport report =
      campaign.campaign.run(options(kTrials, kSeed, 1));
  EXPECT_EQ(report.chunks_executed, 5u);
  EXPECT_EQ(report.checkpoints_written, 1u);  // second write succeeded
  EXPECT_EQ(report.checkpoint_status.code(),
            util::ErrorCode::kFaultInjected);
  expect_bundles_eq(campaign, reference);
}

}  // namespace
}  // namespace solarnet::sim
