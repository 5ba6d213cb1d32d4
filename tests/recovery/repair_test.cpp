#include "recovery/repair.h"

#include <gtest/gtest.h>

#include "datasets/submarine.h"
#include "reference/repair.h"

namespace solarnet::recovery {
namespace {

// Two submarine cables (10 repeaters each) and one land cable.
class RepairTest : public ::testing::Test {
 protected:
  RepairTest() : net_("repair") {
    for (int i = 0; i < 4; ++i) {
      net_.add_node({"N" + std::to_string(i),
                     {50.0, static_cast<double>(i) * 15.0},
                     "",
                     topo::NodeKind::kLandingPoint,
                     true});
    }
    sub1_ = add_cable("sub1", 0, 1, topo::CableKind::kSubmarine, 1500.0);
    sub2_ = add_cable("sub2", 1, 2, topo::CableKind::kSubmarine, 1500.0);
    land_ = add_cable("land", 2, 3, topo::CableKind::kLandLongHaul, 1500.0);
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b,
                          topo::CableKind kind, double len) {
    topo::Cable c;
    c.name = name;
    c.kind = kind;
    c.segments = {{a, b, len}};
    return net_.add_cable(std::move(c));
  }
  topo::InfrastructureNetwork net_;
  topo::CableId sub1_{}, sub2_{}, land_{};
};

TEST_F(RepairTest, FaultCountsOnlyOnDeadCables) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel m(0.3);
  util::Rng rng(3);
  std::vector<bool> dead = {true, false, true};
  const auto faults = sample_fault_counts(simulator, m, dead, rng);
  EXPECT_GE(faults[sub1_], 1u);
  EXPECT_EQ(faults[sub2_], 0u);
  EXPECT_GE(faults[land_], 1u);
  EXPECT_LE(faults[sub1_], 10u);
}

TEST_F(RepairTest, HigherModelProbabilityMeansMoreFaults) {
  const sim::FailureSimulator simulator(net_, {});
  util::Rng rng(11);
  std::vector<bool> dead = {true, true, true};
  double low_total = 0.0;
  double high_total = 0.0;
  for (int i = 0; i < 300; ++i) {
    const gic::UniformFailureModel low(0.05);
    const gic::UniformFailureModel high(0.8);
    for (auto f : sample_fault_counts(simulator, low, dead, rng)) {
      low_total += static_cast<double>(f);
    }
    for (auto f : sample_fault_counts(simulator, high, dead, rng)) {
      high_total += static_cast<double>(f);
    }
  }
  EXPECT_GT(high_total, 2.0 * low_total);
}

TEST_F(RepairTest, ScheduleCompletesAllJobs) {
  std::vector<bool> dead = {true, true, true};
  const std::vector<std::size_t> faults = {2, 3, 1};
  const RecoveryTimeline timeline = schedule_repairs(net_, dead, faults, {});
  EXPECT_EQ(timeline.jobs.size(), 3u);
  for (const CableRepairJob& j : timeline.jobs) {
    EXPECT_GT(j.completion_day, 0.0);
  }
  EXPECT_GT(timeline.restore_day[sub1_], 0.0);
  EXPECT_DOUBLE_EQ(timeline.days_to_restore_fraction(0.0), 0.0);
  EXPECT_GE(timeline.days_to_restore_fraction(1.0),
            timeline.days_to_restore_fraction(0.5));
}

TEST_F(RepairTest, LandRepairsAreFaster) {
  std::vector<bool> dead = {true, false, true};
  const std::vector<std::size_t> faults = {1, 0, 1};
  const RecoveryTimeline timeline = schedule_repairs(net_, dead, faults, {});
  EXPECT_LT(timeline.restore_day[land_], timeline.restore_day[sub1_]);
}

TEST_F(RepairTest, SingleShipSerializesSubmarineWork) {
  RepairFleetParams fleet;
  fleet.cable_ships = 1;
  std::vector<bool> dead = {true, true, false};
  const std::vector<std::size_t> faults = {1, 1, 0};
  const RecoveryTimeline one = schedule_repairs(net_, dead, faults, fleet);
  fleet.cable_ships = 2;
  const RecoveryTimeline two = schedule_repairs(net_, dead, faults, fleet);
  EXPECT_GT(one.days_to_restore_fraction(1.0),
            two.days_to_restore_fraction(1.0));
}

TEST_F(RepairTest, MoreFaultsMeansLongerRepair) {
  std::vector<bool> dead = {true, false, false};
  const RecoveryTimeline few =
      schedule_repairs(net_, dead, {1, 0, 0}, {});
  const RecoveryTimeline many =
      schedule_repairs(net_, dead, {8, 0, 0}, {});
  EXPECT_GT(many.restore_day[sub1_], few.restore_day[sub1_]);
}

TEST_F(RepairTest, RestorationCurveMonotone) {
  std::vector<bool> dead = {true, true, true};
  const RecoveryTimeline timeline =
      schedule_repairs(net_, dead, {2, 3, 1}, {});
  const auto curve = timeline.restoration_curve(5.0);
  ASSERT_FALSE(curve.empty());
  double prev = -1.0;
  for (const auto& [day, frac] : curve) {
    EXPECT_GE(frac, prev);
    prev = frac;
  }
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST_F(RepairTest, NodeRestorationReachesFull) {
  std::vector<bool> dead = {true, true, true};
  const RecoveryTimeline timeline =
      schedule_repairs(net_, dead, {2, 3, 1}, {});
  const auto curve = node_restoration_curve(net_, dead, timeline, 5.0);
  ASSERT_FALSE(curve.empty());
  EXPECT_LT(curve.front().second, 1.0);  // nodes dark at day 0
  EXPECT_DOUBLE_EQ(curve.back().second, 1.0);
}

TEST_F(RepairTest, Validation) {
  EXPECT_THROW(schedule_repairs(net_, {true}, {1, 0, 0}, {}),
               std::invalid_argument);
  RepairFleetParams fleet;
  fleet.cable_ships = 0;
  EXPECT_THROW(
      schedule_repairs(net_, {true, false, false}, {1, 0, 0}, fleet),
      std::invalid_argument);
  // Fault counts must fit the scheduler's 32-bit per-cable counts.
  EXPECT_THROW(schedule_repairs(net_, {true, false, false},
                                {std::size_t{1} << 40, 0, 0}, {}),
               std::invalid_argument);
  std::vector<bool> dead = {true, false, false};
  const RecoveryTimeline t = schedule_repairs(net_, dead, {1, 0, 0}, {});
  EXPECT_THROW(t.days_to_restore_fraction(1.5), std::invalid_argument);
  EXPECT_THROW(t.restoration_curve(0.0), std::invalid_argument);
}

// Same schedule, job for job: completion days, and the job list in
// schedule order.
void expect_same_timeline(const RecoveryTimeline& got,
                          const RecoveryTimeline& want) {
  EXPECT_EQ(got.restore_day, want.restore_day);
  ASSERT_EQ(got.jobs.size(), want.jobs.size());
  for (std::size_t i = 0; i < want.jobs.size(); ++i) {
    EXPECT_EQ(got.jobs[i].cable, want.jobs[i].cable) << "job " << i;
    EXPECT_EQ(got.jobs[i].faults, want.jobs[i].faults) << "job " << i;
    EXPECT_EQ(got.jobs[i].work_days, want.jobs[i].work_days) << "job " << i;
    EXPECT_EQ(got.jobs[i].completion_day, want.jobs[i].completion_day)
        << "job " << i;
  }
}

// The allocation-free kernels, and the one-shot forms that forward to
// them, must replay the frozen original one-shot implementations'
// (bench/reference/repair.h) exact draw sequences and schedules —
// sim::TimelineEngine leans on this parity for its determinism contract.
TEST_F(RepairTest, FaultSamplerMatchesSampleFaultCounts) {
  const sim::FailureSimulator simulator(net_, {});
  const gic::UniformFailureModel model(0.35);
  const FaultSampler sampler(simulator,
                             simulator.death_probability_table(model));
  const std::vector<std::vector<bool>> dead_sets = {
      {true, false, true}, {true, true, true}, {false, false, false}};
  for (const std::vector<bool>& dead : dead_sets) {
    util::Rng reference_rng(97);
    const auto expected =
        reference::sample_fault_counts(simulator, model, dead, reference_rng);
    std::vector<std::uint8_t> dead_u8(dead.size());
    for (std::size_t c = 0; c < dead.size(); ++c) dead_u8[c] = dead[c];
    std::vector<std::uint32_t> faults(dead.size(), 777);
    util::Rng loop_rng(97);
    sampler.sample(dead_u8, loop_rng, faults);
    ASSERT_EQ(expected.size(), faults.size());
    for (std::size_t c = 0; c < faults.size(); ++c) {
      EXPECT_EQ(faults[c], expected[c]) << "cable " << c;
    }
    util::Rng one_shot_rng(97);
    EXPECT_EQ(sample_fault_counts(simulator, model, dead, one_shot_rng),
              expected);
    // Identical rng consumption: the next draw from every stream agrees.
    const double next = reference_rng.uniform();
    EXPECT_EQ(loop_rng.uniform(), next);
    EXPECT_EQ(one_shot_rng.uniform(), next);
  }
}

TEST_F(RepairTest, RepairSchedulerMatchesScheduleRepairs) {
  RepairFleetParams fleets[3];
  fleets[1].cable_ships = 1;
  fleets[2].cable_ships = 2;
  fleets[2].land_crews = 1;
  const std::vector<std::vector<bool>> dead_sets = {
      {true, true, true}, {true, false, true}, {false, true, false}};
  const std::vector<std::size_t> faults = {2, 3, 1};
  for (const RepairFleetParams& fleet : fleets) {
    const RepairScheduler scheduler(net_, fleet);
    RepairScheduler::Scratch scratch;
    for (const std::vector<bool>& dead : dead_sets) {
      const RecoveryTimeline expected =
          reference::schedule_repairs(net_, dead, faults, fleet);
      expect_same_timeline(schedule_repairs(net_, dead, faults, fleet),
                           expected);
      std::vector<std::uint8_t> dead_u8(dead.size());
      std::vector<std::uint32_t> faults_u32(dead.size());
      for (std::size_t c = 0; c < dead.size(); ++c) {
        dead_u8[c] = dead[c];
        faults_u32[c] = static_cast<std::uint32_t>(faults[c]);
      }
      std::vector<double> restore(dead.size(), -1.0);
      scheduler.schedule(dead_u8, faults_u32, scratch, restore);
      for (std::size_t c = 0; c < restore.size(); ++c) {
        EXPECT_EQ(restore[c], expected.restore_day[c])
            << "cable " << c << " ships " << fleet.cable_ships;
      }
    }
  }
}

TEST(RepairFullScale, SchedulerParityOnFullNetwork) {
  // Bit-parity at scale: a storm-sized dead set over the full generated
  // network, fault counts drawn through both paths, completion days
  // compared exactly.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(77);
  const auto dead = simulator.sample_cable_failures(s1, rng);

  util::Rng fault_rng_a(5);
  const auto faults =
      reference::sample_fault_counts(simulator, s1, dead, fault_rng_a);
  const FaultSampler sampler(simulator, simulator.death_probability_table(s1));
  std::vector<std::uint8_t> dead_u8(dead.size());
  for (std::size_t c = 0; c < dead.size(); ++c) dead_u8[c] = dead[c];
  std::vector<std::uint32_t> faults_u32(dead.size());
  util::Rng fault_rng_b(5);
  sampler.sample(dead_u8, fault_rng_b, faults_u32);
  std::size_t dead_count = 0;
  for (std::size_t c = 0; c < dead.size(); ++c) {
    EXPECT_EQ(faults_u32[c], faults[c]) << "cable " << c;
    dead_count += dead[c] ? 1 : 0;
  }
  ASSERT_GT(dead_count, 50u);

  const RecoveryTimeline expected =
      reference::schedule_repairs(net, dead, faults, {});
  expect_same_timeline(schedule_repairs(net, dead, faults, {}), expected);
  const RepairScheduler scheduler(net, {});
  RepairScheduler::Scratch scratch;
  std::vector<double> restore(dead.size());
  scheduler.schedule(dead_u8, faults_u32, scratch, restore);
  for (std::size_t c = 0; c < restore.size(); ++c) {
    EXPECT_EQ(restore[c], expected.restore_day[c]) << "cable " << c;
  }
}

TEST(RepairFullScale, StormRecoveryTakesMonths) {
  // §3.2.2's punchline: the global fleet is sized for isolated faults, so
  // a storm that kills a third of all submarine cables queues repairs for
  // months.
  const auto net = datasets::make_submarine_network({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(1859);
  const auto dead = simulator.sample_cable_failures(s1, rng);
  const auto faults = sample_fault_counts(simulator, s1, dead, rng);
  const RecoveryTimeline timeline = schedule_repairs(net, dead, faults, {});
  ASSERT_GT(timeline.jobs.size(), 50u);
  EXPECT_GT(timeline.days_to_restore_fraction(0.9), 60.0);
  // And a bigger fleet helps.
  RepairFleetParams big;
  big.cable_ships = 200;
  const RecoveryTimeline fast = schedule_repairs(net, dead, faults, big);
  EXPECT_LT(fast.days_to_restore_fraction(0.9),
            timeline.days_to_restore_fraction(0.9));
}

}  // namespace
}  // namespace solarnet::recovery
