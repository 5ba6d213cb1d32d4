// The chunked reduction: ChunkedRun's task layout, the slot store's
// merge/save/load and guard, and thread-count bit-identity of every engine
// that runs through them at the trial counts where a two-chunk batch task
// stops partway through a batch.
#include "sim/chunked.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <filesystem>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/country.h"
#include "analysis/outage.h"
#include "gic/failure_model.h"
#include "reference/trial_loops.h"
#include "sim/campaign.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "util/checkpoint.h"
#include "util/rng.h"
#include "util/status.h"

namespace solarnet::sim {
namespace {

void expect_bits_eq(const util::RunningStats& a, const util::RunningStats& b) {
  const util::RunningStats::State x = a.state();
  const util::RunningStats::State y = b.state();
  EXPECT_EQ(x.n, y.n);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.mean),
            std::bit_cast<std::uint64_t>(y.mean));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.m2),
            std::bit_cast<std::uint64_t>(y.m2));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.min),
            std::bit_cast<std::uint64_t>(y.min));
  EXPECT_EQ(std::bit_cast<std::uint64_t>(x.max),
            std::bit_cast<std::uint64_t>(y.max));
}

// --- ChunkedRun -------------------------------------------------------------

TEST(ChunkedRun, VisitsEveryTrialOnceInChunkOrderOnOneWorker) {
  for (const std::size_t trials :
       {0u, 1u, 31u, 32u, 33u, 63u, 64u, 65u, 97u}) {
    for (const std::size_t per_task : {1u, 2u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("trials=" + std::to_string(trials) + " per_task=" +
                     std::to_string(per_task) +
                     " threads=" + std::to_string(threads));
        const ChunkedRun run(trials, threads, per_task);
        ASSERT_EQ(run.chunks(), chunk_count(trials));
        EXPECT_LE(run.workers(), threads);
        struct Visit {
          std::size_t trial;
          std::size_t worker;
        };
        std::vector<std::vector<Visit>> per_chunk(run.chunks());
        std::mutex mutex;
        run.run([&](const ChunkTask& task) {
          EXPECT_EQ(task.begin, task.first_chunk * kTrialChunk);
          EXPECT_LE(task.end - task.begin, per_task * kTrialChunk);
          EXPECT_LT(task.worker, run.workers());
          const std::lock_guard<std::mutex> lock(mutex);
          for (std::size_t t = task.begin; t < task.end; ++t) {
            per_chunk[t / kTrialChunk].push_back({t, task.worker});
          }
        });
        for (std::size_t c = 0; c < run.chunks(); ++c) {
          const std::size_t begin = c * kTrialChunk;
          const std::size_t end = std::min(begin + kTrialChunk, trials);
          ASSERT_EQ(per_chunk[c].size(), end - begin) << "chunk " << c;
          for (std::size_t i = 0; i < per_chunk[c].size(); ++i) {
            EXPECT_EQ(per_chunk[c][i].trial, begin + i);
            EXPECT_EQ(per_chunk[c][i].worker, per_chunk[c][0].worker);
          }
        }
      }
    }
  }
}

TEST(ChunkedRun, RunsAChunkRangeOnly) {
  const ChunkedRun run(97, 2);
  std::vector<int> visits(97, 0);
  std::mutex mutex;
  run.run(1, 3, [&](const ChunkTask& task) {
    const std::lock_guard<std::mutex> lock(mutex);
    for (std::size_t t = task.begin; t < task.end; ++t) ++visits[t];
  });
  for (std::size_t t = 0; t < 97; ++t) {
    EXPECT_EQ(visits[t], t >= 32 && t < 96 ? 1 : 0) << "trial " << t;
  }
  EXPECT_THROW(run.run(2, 5, [](const ChunkTask&) {}), std::out_of_range);
  EXPECT_THROW(ChunkedRun(10, 1, 0), std::invalid_argument);
}

// --- slot store -------------------------------------------------------------

struct TestSlot {
  util::RunningStats stats;
  std::size_t count = 0;
  static constexpr auto kFields =
      std::tuple{&TestSlot::stats, &TestSlot::count};
};

TEST(ChunkSlots, SaveThenLoadReproducesMergedBitForBit) {
  constexpr std::size_t kChunks = 4;
  for (const std::size_t width : {0u, 1u, 3u}) {
    SCOPED_TRACE("width=" + std::to_string(width));
    ChunkSlots<TestSlot> original("TestObserver");
    original.assign(kChunks, width);
    util::Rng rng(width + 7);
    for (std::size_t c = 0; c < kChunks; ++c) {
      for (std::size_t i = 0; i < width; ++i) {
        for (std::size_t k = 0; k < 5 + c + i; ++k) {
          original.at(c, i).stats.add(rng.uniform(-50.0, 50.0));
        }
        original.at(c, i).count = 3 * c + i;
      }
    }

    ChunkSlots<TestSlot> restored("TestObserver");
    restored.assign(kChunks, width);
    for (std::size_t c = 0; c < kChunks; ++c) {
      util::ByteWriter out;
      original.save(c, out);
      if (width == 0) {
        EXPECT_EQ(out.size(), 0u);
      }
      util::ByteReader in(out.data());
      restored.load(c, in);
      EXPECT_TRUE(in.at_end());
    }
    EXPECT_EQ(restored.chunks(), kChunks);
    for (std::size_t i = 0; i < width; ++i) {
      const TestSlot want = original.merged(i);
      const TestSlot got = restored.merged(i);
      expect_bits_eq(got.stats, want.stats);
      EXPECT_EQ(got.count, want.count);
    }
  }
}

TEST(ChunkSlots, MergedFoldsChunksInAscendingOrder) {
  ChunkSlots<TestSlot> slots("TestObserver");
  slots.assign(3, 2);
  util::RunningStats expected[2];
  util::RunningStats per_chunk[3][2];
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 2; ++i) {
      const double x =
          1.5 * static_cast<double>(c) + 0.1 * static_cast<double>(i);
      slots.at(c, i).stats.add(x);
      slots.at(c, i).stats.add(x * x);
      per_chunk[c][i] = slots.at(c, i).stats;
      ++slots.at(c, i).count;
    }
  }
  for (std::size_t c = 0; c < 3; ++c) {
    for (std::size_t i = 0; i < 2; ++i) expected[i].merge(per_chunk[c][i]);
  }
  for (std::size_t i = 0; i < 2; ++i) {
    expect_bits_eq(slots.merged(i).stats, expected[i]);
    EXPECT_EQ(slots.merged(i).count, 3u);
  }
}

TEST(ChunkSlots, GuardNamesOwnerAndOperation) {
  ChunkSlots<TestSlot> slots("GuardedObserver");
  slots.assign(2, 1);
  const auto expect_guard = [](const auto& call, const char* operation,
                               const char* chunk) {
    try {
      call();
      FAIL() << operation << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("GuardedObserver::") + operation),
                std::string::npos)
          << what;
      EXPECT_NE(what.find(chunk), std::string::npos) << what;
    }
  };
  util::ByteWriter out;
  util::ByteReader in("");
  expect_guard([&] { slots.save(2, out); }, "save_chunk", "chunk 2");
  expect_guard([&] { slots.load(7, in); }, "load_chunk", "chunk 7");
  EXPECT_NO_THROW(slots.save(1, out));

  slots.release();
  EXPECT_EQ(slots.chunks(), 0u);
  expect_guard([&] { slots.save(0, out); }, "save_chunk", "chunk 0");
  expect_guard([&] { slots.load(0, in); }, "load_chunk", "chunk 0");
}

// --- engines ----------------------------------------------------------------

// Random multi-cable network with country codes cycled over a small set, so
// the country observers have international cables to watch.
topo::InfrastructureNetwork random_network(std::uint64_t seed) {
  static const char* kCountries[] = {"US", "GB", "SG", "BR"};
  util::Rng rng(seed);
  constexpr std::size_t kNodes = 14;
  topo::InfrastructureNetwork net("random");
  for (std::size_t i = 0; i < kNodes; ++i) {
    net.add_node({"n" + std::to_string(i),
                  {rng.uniform(-70.0, 70.0), rng.uniform(-180.0, 180.0)},
                  kCountries[i % 4],
                  topo::NodeKind::kLandingPoint,
                  true});
  }
  for (std::size_t i = 0; i < 26; ++i) {
    const auto a = static_cast<topo::NodeId>(rng.uniform_below(kNodes));
    auto b = static_cast<topo::NodeId>(rng.uniform_below(kNodes));
    if (b == a) b = (b + 1) % kNodes;
    topo::Cable cable;
    cable.name = "c" + std::to_string(i);
    cable.segments = {{a, b, rng.uniform(40.0, 4000.0)}};
    net.add_cable(std::move(cable));
  }
  return net;
}

// 63, 64 and 65 trials: a two-chunk batch task ends one lane short of,
// exactly at, and one lane past a full 64-lane batch.
constexpr std::size_t kTrialCounts[] = {63, 64, 65};
constexpr std::size_t kThreadCounts[] = {2, 4};
constexpr std::uint64_t kSeed = 2021;

class ChunkedEngineTest : public ::testing::Test {
 protected:
  ChunkedEngineTest() : net_(random_network(77)), model_(0.05) {}

  TrialConfig config(TrialEngine engine, std::size_t threads) const {
    TrialConfig cfg;
    cfg.engine = engine;
    cfg.threads = threads;
    return cfg;
  }

  topo::InfrastructureNetwork net_;
  gic::UniformFailureModel model_;
};

TEST_F(ChunkedEngineTest, PipelineIsThreadCountInvariant) {
  for (const TrialEngine engine : {TrialEngine::kAuto, TrialEngine::kScalar}) {
    const FailureSimulator simulator(net_, config(engine, 1));
    TrialPipeline pipeline(simulator, model_);
    ConnectivityObserver connectivity;
    analysis::CountryIsolationObserver isolation(net_, {"US", "BR"});
    pipeline.add_observer(connectivity);
    pipeline.add_observer(isolation);
    for (const std::size_t trials : kTrialCounts) {
      pipeline.run(trials, kSeed, 1);
      const ConnectivityObserver::Result want = connectivity.result();
      const std::vector<analysis::CountryIsolationResult> want_iso =
          isolation.results();
      ASSERT_EQ(want.trials, trials);
      for (const std::size_t threads : kThreadCounts) {
        SCOPED_TRACE("trials=" + std::to_string(trials) +
                     " threads=" + std::to_string(threads));
        pipeline.run(trials, kSeed, threads);
        expect_bits_eq(connectivity.result().cables_failed_pct,
                       want.cables_failed_pct);
        expect_bits_eq(connectivity.result().nodes_unreachable_pct,
                       want.nodes_unreachable_pct);
        expect_bits_eq(connectivity.result().largest_component_pct,
                       want.largest_component_pct);
        for (std::size_t i = 0; i < want_iso.size(); ++i) {
          EXPECT_EQ(isolation.results()[i].isolated_trials,
                    want_iso[i].isolated_trials);
          expect_bits_eq(isolation.results()[i].surviving_cables,
                         want_iso[i].surviving_cables);
        }
      }
    }
  }
}

TEST_F(ChunkedEngineTest, RunTrialsMatchesFrozenLoopUnderBothRules) {
  for (const CableDeathRule rule :
       {CableDeathRule::kAnyRepeaterFails, CableDeathRule::kFractionFails}) {
    for (const std::size_t trials : kTrialCounts) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("trials=" + std::to_string(trials) +
                     " threads=" + std::to_string(threads));
        TrialConfig cfg = config(TrialEngine::kAuto, threads);
        cfg.rule = rule;
        const FailureSimulator simulator(net_, cfg);
        const AggregateResult got = simulator.run_trials(model_, trials, kSeed);
        const AggregateResult want =
            reference::run_trials(simulator, model_, trials, kSeed);
        EXPECT_EQ(got.trials, trials);
        expect_bits_eq(got.cables_failed_pct, want.cables_failed_pct);
        expect_bits_eq(got.nodes_unreachable_pct, want.nodes_unreachable_pct);
      }
    }
  }
}

TEST_F(ChunkedEngineTest, SweepIsThreadCountInvariant) {
  const FailureSimulator simulator(net_, config(TrialEngine::kAuto, 1));
  const std::vector<double> grid = {0.001, 0.05, 0.3};
  const SweepEngine engine = SweepEngine::uniform(simulator, grid);
  for (const std::size_t trials : kTrialCounts) {
    const SweepResult want = engine.run(trials, kSeed, 1);
    for (const std::size_t threads : kThreadCounts) {
      const SweepResult got = engine.run(trials, kSeed, threads);
      ASSERT_EQ(got.points.size(), grid.size());
      for (std::size_t g = 0; g < grid.size(); ++g) {
        EXPECT_EQ(got.points[g].axis, grid[g]);
        expect_bits_eq(got.points[g].cables_failed_pct,
                       want.points[g].cables_failed_pct);
        expect_bits_eq(got.points[g].nodes_unreachable_pct,
                       want.points[g].nodes_unreachable_pct);
        expect_bits_eq(got.points[g].largest_component_pct,
                       want.points[g].largest_component_pct);
      }
    }
  }
}

TEST_F(ChunkedEngineTest, TimelineIsThreadCountInvariant) {
  const FailureSimulator simulator(net_, config(TrialEngine::kAuto, 1));
  TimelineConfig axis = TimelineConfig::from_profile({}, 12.0);
  axis.repair_steps = 4;
  TimelineEngine observed(simulator, simulator.death_probability_table(model_),
                          axis);
  TimelineConnectivityObserver connectivity;
  analysis::CountryOutageObserver outage(net_, {"US", "SG"});
  observed.add_observer(connectivity);
  observed.add_observer(outage);
  for (const std::size_t trials : kTrialCounts) {
    observed.run(trials, kSeed, 1);
    const TimelineConnectivityResult want = connectivity.result();
    const std::vector<analysis::CountryOutageResult> want_outage =
        outage.results();
    ASSERT_EQ(want.trials, trials);
    for (const std::size_t threads : kThreadCounts) {
      observed.run(trials, kSeed, threads);
      const TimelineConnectivityResult& got = connectivity.result();
      EXPECT_EQ(got.partitioned_trials, want.partitioned_trials);
      expect_bits_eq(got.time_to_partition_hours,
                     want.time_to_partition_hours);
      expect_bits_eq(got.peak_nodes_unreachable_pct,
                     want.peak_nodes_unreachable_pct);
      ASSERT_EQ(got.steps.size(), want.steps.size());
      for (std::size_t i = 0; i < want.steps.size(); ++i) {
        EXPECT_EQ(got.steps[i].hour, want.steps[i].hour);
        expect_bits_eq(got.steps[i].cables_dead_pct,
                       want.steps[i].cables_dead_pct);
        expect_bits_eq(got.steps[i].nodes_unreachable_pct,
                       want.steps[i].nodes_unreachable_pct);
        expect_bits_eq(got.steps[i].largest_component_pct,
                       want.steps[i].largest_component_pct);
      }
      for (std::size_t i = 0; i < want_outage.size(); ++i) {
        EXPECT_EQ(outage.results()[i].cutoff_trials,
                  want_outage[i].cutoff_trials);
        expect_bits_eq(outage.results()[i].outage_hours,
                       want_outage[i].outage_hours);
        expect_bits_eq(outage.results()[i].cutoff_start_hour,
                       want_outage[i].cutoff_start_hour);
      }
    }
  }
}

// Campaign segments run through TrialPipeline::run_chunks with one chunk
// per task, so on the batch path each task samples a 32-lane batch, and a
// segment of 3 chunks starts at odd chunks. The scalar
// CountryIsolationObserver is fed per-lane views reconstructed inside
// those sub-range segments. Both must match a plain run bit for bit.
TEST_F(ChunkedEngineTest, CampaignIsThreadCountInvariant) {
  const FailureSimulator simulator(net_, config(TrialEngine::kAuto, 1));
  const std::vector<std::string> countries = {"US", "BR"};
  const std::string path =
      (std::filesystem::temp_directory_path() / "solarnet_chunked_test.ck")
          .string();
  for (const std::size_t trials : kTrialCounts) {
    // The plain pipeline (batched) is the reference for every campaign.
    TrialPipeline plain(simulator, model_);
    ConnectivityObserver want;
    analysis::CountryIsolationObserver want_iso(net_, countries);
    plain.add_observer(want);
    plain.add_observer(want_iso);
    plain.run(trials, kSeed, 1);
    for (const std::size_t every : {1u, 3u}) {
      for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE("trials=" + std::to_string(trials) +
                     " every=" + std::to_string(every) +
                     " threads=" + std::to_string(threads));
        TrialPipeline pipeline(simulator, model_);
        ConnectivityObserver got;
        analysis::CountryIsolationObserver got_iso(net_, countries);
        CampaignRunner campaign(pipeline);
        campaign.add_observer(got);
        campaign.add_observer(got_iso);
        CampaignOptions options;
        options.trials = trials;
        options.seed = kSeed;
        options.threads = threads;
        options.checkpoint_path = path;
        options.checkpoint_every_chunks = every;
        std::filesystem::remove(path);
        const CampaignReport report = campaign.run(options);
        const std::size_t chunks = chunk_count(trials);
        EXPECT_EQ(report.chunks_executed, chunks);
        EXPECT_EQ(report.checkpoints_written, (chunks + every - 1) / every - 1);
        expect_bits_eq(got.result().cables_failed_pct,
                       want.result().cables_failed_pct);
        expect_bits_eq(got.result().nodes_unreachable_pct,
                       want.result().nodes_unreachable_pct);
        expect_bits_eq(got.result().largest_component_pct,
                       want.result().largest_component_pct);
        ASSERT_EQ(got_iso.results().size(), want_iso.results().size());
        for (std::size_t i = 0; i < want_iso.results().size(); ++i) {
          EXPECT_EQ(got_iso.results()[i].isolated_trials,
                    want_iso.results()[i].isolated_trials);
          expect_bits_eq(got_iso.results()[i].surviving_cables,
                         want_iso.results()[i].surviving_cables);
        }
      }
    }
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace solarnet::sim
