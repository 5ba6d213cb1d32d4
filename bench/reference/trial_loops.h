// Frozen reference trial loops: verbatim copies of the hand-written
// Monte-Carlo loops that FailureSimulator::run_trials and
// services::availability_sweep ran before both became single TrialPipeline
// passes. They keep their own fixed 32-trial chunking, util::parallel_for
// loop and ascending RunningStats merge, so tests and bench gates that
// compare the pipeline against them compare against an independent
// implementation — and speedup gates time a fixed old path that later
// engine work cannot speed up. Do not route these through sim/chunked.h or
// any engine; they are deliberately frozen.
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "gic/failure_model.h"
#include "report_observers.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/outcome.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/parallel.h"
#include "util/rng.h"
#include "util/stats.h"

namespace solarnet::reference {

// The scalar branch of the old FailureSimulator::run_trials with its
// trial_percentages step inlined, for both death rules: under
// kAnyRepeaterFails the death table is folded once per call, under
// kFractionFails every repeater is drawn through the model. Fixed 32-trial
// chunks, trial t from base.split(t), per-chunk RunningStats merged in
// ascending chunk order, config().threads workers.
inline sim::AggregateResult run_trials(const sim::FailureSimulator& simulator,
                                       const gic::RepeaterFailureModel& model,
                                       std::size_t trials,
                                       std::uint64_t seed) {
  const topo::InfrastructureNetwork& net = simulator.network();
  sim::AggregateResult agg;
  agg.trials = trials;
  if (trials == 0) return agg;

  sim::DeathProbabilityTable table;
  const sim::DeathProbabilityTable* table_ptr = nullptr;
  if (simulator.config().rule == sim::CableDeathRule::kAnyRepeaterFails) {
    table = simulator.death_probability_table(model);
    table_ptr = &table;
  }
  const std::size_t connected_nodes = net.connected_node_count();

  constexpr std::size_t kTrialChunk = 32;
  const std::size_t chunks = (trials + kTrialChunk - 1) / kTrialChunk;
  struct ChunkStats {
    util::RunningStats cables;
    util::RunningStats nodes;
  };
  std::vector<ChunkStats> per_chunk(chunks);
  const util::Rng base(seed);

  struct TrialScratch {
    util::Bitset cable_dead;
    std::vector<topo::NodeId> unreachable;
  };
  const std::size_t workers = std::min(
      util::resolve_thread_count(simulator.config().threads), chunks);
  std::vector<TrialScratch> scratch(workers);
  util::parallel_for(
      chunks, workers, [&](std::size_t chunk, std::size_t worker) {
        TrialScratch& s = scratch[worker];
        ChunkStats& out = per_chunk[chunk];
        const std::size_t begin = chunk * kTrialChunk;
        const std::size_t end = std::min(begin + kTrialChunk, trials);
        for (std::size_t t = begin; t < end; ++t) {
          util::Rng rng = base.split(t);
          if (table_ptr != nullptr) {
            simulator.sample_cable_failures(*table_ptr, rng, s.cable_dead);
          } else {
            simulator.sample_cable_failures(model, rng, s.cable_dead);
          }
          const std::size_t failed = s.cable_dead.count();
          net.unreachable_nodes(s.cable_dead, s.unreachable);
          const double cables_pct =
              net.cable_count() > 0
                  ? 100.0 * static_cast<double>(failed) /
                        static_cast<double>(net.cable_count())
                  : 0.0;
          const double nodes_pct =
              connected_nodes > 0
                  ? 100.0 * static_cast<double>(s.unreachable.size()) /
                        static_cast<double>(connected_nodes)
                  : 0.0;
          out.cables.add(cables_pct);
          out.nodes.add(nodes_pct);
        }
      });

  for (const ChunkStats& c : per_chunk) {
    agg.cables_failed_pct.merge(c.cables);
    agg.nodes_unreachable_pct.merge(c.nodes);
  }
  return agg;
}

// The old services::availability_sweep: each draw sampled into a
// per-worker Bitset and evaluated through a copy of one pre-resolved
// ServiceEvaluator (its own mask and component build; the frozen one of
// report_observers.h), fixed 32-draw chunks merged in ascending order.
inline services::AvailabilitySweep availability_sweep(
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model,
    const services::ServiceSpec& service, std::size_t draws,
    std::uint64_t seed, std::size_t threads = 0) {
  services::AvailabilitySweep sweep;
  sweep.service = service.name;
  sweep.draws = draws;
  if (draws == 0) {
    // Still validate the spec so a bad sweep fails loudly.
    ServiceEvaluator(simulator.network(), service);
    return sweep;
  }

  sim::DeathProbabilityTable table;
  const bool use_table =
      simulator.config().rule == sim::CableDeathRule::kAnyRepeaterFails;
  if (use_table) table = simulator.death_probability_table(model);

  constexpr std::size_t kDrawChunk = 32;
  const std::size_t chunks = (draws + kDrawChunk - 1) / kDrawChunk;
  struct ChunkStats {
    util::RunningStats read;
    util::RunningStats write;
  };
  std::vector<ChunkStats> per_chunk(chunks);

  const std::size_t workers =
      std::min(util::resolve_thread_count(threads), chunks);
  struct WorkerState {
    ServiceEvaluator evaluator;
    util::Bitset dead;
    services::AvailabilityReport report;
  };
  const ServiceEvaluator prototype(simulator.network(), service);
  std::vector<WorkerState> state(workers, {prototype, {}, {}});

  const util::Rng base(seed);
  util::parallel_for(
      chunks, workers, [&](std::size_t chunk, std::size_t worker) {
        WorkerState& s = state[worker];
        ChunkStats& out = per_chunk[chunk];
        const std::size_t begin = chunk * kDrawChunk;
        const std::size_t end = std::min(begin + kDrawChunk, draws);
        for (std::size_t d = begin; d < end; ++d) {
          util::Rng rng = base.split(d);
          if (use_table) {
            simulator.sample_cable_failures(table, rng, s.dead);
          } else {
            simulator.sample_cable_failures(model, rng, s.dead);
          }
          s.evaluator.evaluate(s.dead, s.report);
          out.read.add(s.report.read_availability);
          out.write.add(s.report.write_availability);
        }
      });

  for (const ChunkStats& c : per_chunk) {
    sweep.read_availability.merge(c.read);
    sweep.write_availability.merge(c.write);
  }
  return sweep;
}

}  // namespace solarnet::reference
