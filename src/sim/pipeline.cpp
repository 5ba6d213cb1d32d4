#include "sim/pipeline.h"

#include <algorithm>

namespace solarnet::sim {

TrialPipeline::TrialPipeline(const FailureSimulator& simulator,
                             const gic::RepeaterFailureModel& model)
    : sim_(simulator),
      model_(model),
      csr_(&simulator.network().csr()),
      connected_nodes_(simulator.network().connected_node_count()) {
  use_table_ = sim_.config().rule == CableDeathRule::kAnyRepeaterFails;
  if (use_table_) {
    table_ = sim_.death_probability_table(model_);
    if (sim_.config().engine != TrialEngine::kScalar) {
      batch_kernel_ = std::make_unique<const TrialBatchKernel>(sim_, table_);
    }
  }
}

void TrialPipeline::add_observer(TrialObserver& observer) {
  observers_.push_back(&observer);
  needs_components_ = needs_components_ || observer.needs_components();
  if (observer.supports_batch()) {
    batch_observers_.push_back(&observer);
    batch_needs_components_ =
        batch_needs_components_ || observer.needs_components();
  } else {
    scalar_observers_.push_back(&observer);
    scalar_needs_components_ =
        scalar_needs_components_ || observer.needs_components();
  }
}

void TrialPipeline::run_trial(std::size_t trial, const util::Rng& base,
                              PipelineScratch& scratch, std::size_t worker,
                              std::size_t chunk) const {
  util::Rng rng = base.split(trial);
  if (use_table_) {
    sim_.sample_cable_failures(table_, rng, scratch.cable_dead);
  } else {
    sim_.sample_cable_failures(model_, rng, scratch.cable_dead);
  }
  const std::size_t failed = scratch.cable_dead.count();
  const std::size_t cables = network().cable_count();
  network().unreachable_nodes(scratch.cable_dead, scratch.unreachable);
  if (needs_components_) {
    network().mask_for_failures(scratch.cable_dead, scratch.mask);
    graph::connected_components(*csr_, scratch.mask, scratch.component_scratch,
                                scratch.components);
  }

  TrialView view;
  view.trial = trial;
  view.cable_dead = &scratch.cable_dead;
  view.cables_failed = failed;
  view.cables_failed_pct =
      cables > 0
          ? 100.0 * static_cast<double>(failed) / static_cast<double>(cables)
          : 0.0;
  view.unreachable = &scratch.unreachable;
  view.nodes_unreachable_pct =
      connected_nodes_ > 0
          ? 100.0 * static_cast<double>(scratch.unreachable.size()) /
                static_cast<double>(connected_nodes_)
          : 0.0;
  view.components = needs_components_ ? &scratch.components : nullptr;
  view.mask = needs_components_ ? &scratch.mask : nullptr;
  view.rng = &rng;
  for (TrialObserver* observer : observers_) {
    observer->observe(view, worker, chunk);
  }
}

void TrialPipeline::run(std::size_t trials, std::uint64_t seed) const {
  run(trials, seed, sim_.config().threads);
}

void TrialPipeline::run(std::size_t trials, std::uint64_t seed,
                        std::size_t threads) const {
  // One 64-lane batch covers exactly two chunks, so a batch task still owns
  // whole chunks.
  static_assert(TrialBatchKernel::kLanes == 2 * kTrialChunk);
  const ChunkedRun chunked(trials, threads, batch_kernel_ != nullptr ? 2 : 1);
  for (TrialObserver* observer : observers_) {
    observer->begin_run(*this, chunked.workers(), chunked.chunks());
  }
  run_chunks(chunked, util::Rng(seed), 0, chunked.chunks());
  for (TrialObserver* observer : observers_) {
    observer->end_run();
  }
}

void TrialPipeline::run_chunks(const ChunkedRun& chunked,
                               const util::Rng& base, std::size_t chunk_begin,
                               std::size_t chunk_end) const {
  if (batch_kernel_ == nullptr) {
    std::vector<PipelineScratch> scratch(chunked.workers());
    chunked.run(chunk_begin, chunk_end, [&](const ChunkTask& task) {
      for (std::size_t t = task.begin; t < task.end; ++t) {
        run_trial(t, base, scratch[task.worker], task.worker, task.first_chunk);
      }
    });
    return;
  }

  constexpr std::size_t kLanes = TrialBatchKernel::kLanes;
  const TrialBatchKernel& kernel = *batch_kernel_;

  struct BatchScratch {
    TrialBatch batch;
    std::uint32_t cables[kLanes];
    std::uint32_t nodes[kLanes];
    std::uint32_t largest[kLanes];
    double cables_pct[kLanes];
    double nodes_pct[kLanes];
    BatchConnectivityScratch components;
    // Scalar reconstruction for observers without a batch path.
    PipelineScratch scalar;
  };
  std::vector<BatchScratch> scratch(chunked.workers());
  const std::size_t cables = network().cable_count();

  chunked.run(chunk_begin, chunk_end, [&](const ChunkTask& task) {
    const std::size_t worker = task.worker;
    BatchScratch& s = scratch[worker];
    const std::size_t first = task.begin;
    const auto lanes = static_cast<unsigned>(task.end - task.begin);
    const std::size_t first_chunk = task.first_chunk;

    kernel.sample(base, first, lanes, s.batch);
    kernel.count_cables_failed(s.batch, s.cables);
    kernel.count_unreachable_nodes(s.batch, s.nodes);
    if (batch_needs_components_) {
      kernel.largest_components(s.batch, s.components, s.largest);
    }
    for (unsigned lane = 0; lane < lanes; ++lane) {
      s.cables_pct[lane] =
          cables > 0 ? 100.0 * static_cast<double>(s.cables[lane]) /
                           static_cast<double>(cables)
                     : 0.0;
      s.nodes_pct[lane] =
          connected_nodes_ > 0
              ? 100.0 * static_cast<double>(s.nodes[lane]) /
                    static_cast<double>(connected_nodes_)
              : 0.0;
    }

    if (!batch_observers_.empty()) {
      BatchTrialView bview;
      bview.first_trial = first;
      bview.lanes = lanes;
      bview.batch = &s.batch;
      bview.cables_failed = s.cables;
      bview.cables_failed_pct = s.cables_pct;
      bview.nodes_unreachable = s.nodes;
      bview.nodes_unreachable_pct = s.nodes_pct;
      bview.largest_component = batch_needs_components_ ? s.largest : nullptr;
      for (TrialObserver* observer : batch_observers_) {
        observer->observe_batch(bview, worker, first_chunk);
      }
    }

    if (!scalar_observers_.empty()) {
      // Reconstruct each lane as a scalar TrialView: same dead bits, same
      // unreachable list, same component decomposition, and the lane's
      // post-draw rng state — everything a scalar observer would have seen.
      for (unsigned lane = 0; lane < lanes; ++lane) {
        kernel.extract_lane(s.batch, lane, s.scalar.cable_dead);
        network().unreachable_nodes(s.scalar.cable_dead, s.scalar.unreachable);
        if (scalar_needs_components_) {
          network().mask_for_failures(s.scalar.cable_dead, s.scalar.mask);
          graph::connected_components(*csr_, s.scalar.mask,
                                      s.scalar.component_scratch,
                                      s.scalar.components);
        }
        TrialView view;
        view.trial = first + lane;
        view.cable_dead = &s.scalar.cable_dead;
        view.cables_failed = s.cables[lane];
        view.cables_failed_pct = s.cables_pct[lane];
        view.unreachable = &s.scalar.unreachable;
        view.nodes_unreachable_pct = s.nodes_pct[lane];
        view.components =
            scalar_needs_components_ ? &s.scalar.components : nullptr;
        view.mask = scalar_needs_components_ ? &s.scalar.mask : nullptr;
        view.rng = &s.batch.lane_rng[lane];
        const std::size_t chunk = first_chunk + lane / kTrialChunk;
        for (TrialObserver* observer : scalar_observers_) {
          observer->observe(view, worker, chunk);
        }
      }
    }
  });
}

void ConnectivityObserver::begin_run(const TrialPipeline& pipeline,
                                     std::size_t /*workers*/,
                                     std::size_t chunks) {
  slots_.assign(chunks);
  connected_nodes_ = pipeline.network().connected_node_count();
  result_ = {};
}

void ConnectivityObserver::add(std::size_t chunk, double cables_pct,
                               double nodes_pct, std::size_t largest) {
  Slot& slot = slots_.at(chunk);
  slot.cables.add(cables_pct);
  slot.nodes.add(nodes_pct);
  slot.largest.add(connected_nodes_ > 0
                       ? 100.0 * static_cast<double>(largest) /
                             static_cast<double>(connected_nodes_)
                       : 0.0);
}

void ConnectivityObserver::observe(const TrialView& view, std::size_t /*worker*/,
                                   std::size_t chunk) {
  add(chunk, view.cables_failed_pct, view.nodes_unreachable_pct,
      view.components->largest_component_size());
}

void ConnectivityObserver::observe_batch(const BatchTrialView& view,
                                         std::size_t /*worker*/,
                                         std::size_t first_chunk) {
  // Same accumulation order and arithmetic as 64 scalar observe() calls:
  // lanes ascending, each into its own chunk slot.
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    add(first_chunk + lane / kTrialChunk, view.cables_failed_pct[lane],
        view.nodes_unreachable_pct[lane], view.largest_component[lane]);
  }
}

void ConnectivityObserver::save_chunk(std::size_t chunk,
                                      util::ByteWriter& out) const {
  slots_.save(chunk, out);
}

void ConnectivityObserver::load_chunk(std::size_t chunk, util::ByteReader& in) {
  slots_.load(chunk, in);
}

void ConnectivityObserver::end_run() {
  const Slot merged = slots_.merged();
  result_.cables_failed_pct = merged.cables;
  result_.nodes_unreachable_pct = merged.nodes;
  result_.largest_component_pct = merged.largest;
  result_.trials = merged.cables.count();
  slots_.release();
}

}  // namespace solarnet::sim
