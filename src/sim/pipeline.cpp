#include "sim/pipeline.h"

#include <algorithm>
#include <stdexcept>

namespace solarnet::sim {

void component_labels(const topo::InfrastructureNetwork& net,
                      const util::Bitset& cable_dead,
                      const graph::ComponentResult& components,
                      std::span<const topo::NodeId> nodes,
                      std::uint32_t* labels) {
  for (std::size_t i = 0; i < nodes.size(); ++i) {
    const topo::NodeId n = nodes[i];
    if (n == topo::kInvalidNode) {
      labels[i] = graph::kNoLabel;
    } else if (net.node_unreachable(n, cable_dead)) {
      labels[i] = graph::kIslandBase + n;
    } else {
      labels[i] = components.component[n];
    }
  }
}

const std::uint32_t* DrawLabels::label(const topo::InfrastructureNetwork& net,
                                       const util::Bitset& cable_dead,
                                       std::span<const topo::NodeId> nodes) {
  net.mask_for_failures(cable_dead, mask);
  graph::connected_components(net.csr(), mask, scratch, components);
  labels.resize(nodes.size());
  component_labels(net, cable_dead, components, nodes, labels.data());
  return labels.data();
}

void LabelGather::bind(const TrialPipeline& pipeline,
                       std::span<const topo::NodeId> nodes,
                       std::size_t workers) {
  slots_.clear();
  for (const topo::NodeId n : nodes) slots_.push_back(pipeline.label_slot(n));
  per_worker_.assign(workers, std::vector<std::uint32_t>(nodes.size()));
}

const std::uint32_t* LabelGather::gather(const std::uint32_t* labels,
                                         std::size_t worker) {
  std::vector<std::uint32_t>& out = per_worker_[worker];
  for (std::size_t i = 0; i < slots_.size(); ++i) out[i] = labels[slots_[i]];
  return out.data();
}

void LabelGather::release() { per_worker_.clear(); }

TrialPipeline::TrialPipeline(const FailureSimulator& simulator,
                             const gic::RepeaterFailureModel& model)
    : sim_(simulator),
      model_(model),
      csr_(&simulator.network().csr()),
      table_(simulator.death_probability_table(model)),
      use_table_(simulator.config().rule ==
                 CableDeathRule::kAnyRepeaterFails),
      connected_nodes_(simulator.network().connected_node_count()) {
  if (use_table_ && sim_.config().engine != TrialEngine::kScalar) {
    batch_kernel_ = std::make_unique<const TrialBatchKernel>(sim_, table_);
  }
}

void TrialPipeline::add_observer(TrialObserver& observer) {
  observers_.push_back(&observer);
  needs_components_ = needs_components_ || observer.needs_components();
  if (observer.supports_batch()) {
    batch_observers_.push_back(&observer);
  } else {
    scalar_observers_.push_back(&observer);
    scalar_needs_mask_ = scalar_needs_mask_ || observer.needs_components();
  }
  const std::span<const topo::NodeId> nodes = observer.query_nodes();
  query_nodes_.insert(query_nodes_.end(), nodes.begin(), nodes.end());
  std::sort(query_nodes_.begin(), query_nodes_.end());
  query_nodes_.erase(std::unique(query_nodes_.begin(), query_nodes_.end()),
                     query_nodes_.end());
}

std::uint32_t TrialPipeline::label_slot(topo::NodeId node) const {
  const auto it =
      std::lower_bound(query_nodes_.begin(), query_nodes_.end(), node);
  if (it == query_nodes_.end() || *it != node) {
    throw std::invalid_argument(
        "TrialPipeline::label_slot: node is not a query vertex");
  }
  return static_cast<std::uint32_t>(it - query_nodes_.begin());
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
  network().unreachable_nodes(scratch.cable_dead, scratch.unreachable);

  TrialView view;
  view.trial = trial;
  view.cable_dead = &scratch.cable_dead;
  view.cables_failed_pct =
      percent_of(scratch.cable_dead.count(), network().cable_count());
  view.nodes_unreachable_pct =
      percent_of(scratch.unreachable.size(), connected_nodes_);
  if (needs_components_) {
    network().mask_for_failures(scratch.cable_dead, scratch.mask);
    graph::connected_components(*csr_, scratch.mask, scratch.component_scratch,
                                scratch.components);
    scratch.labels.resize(query_nodes_.size());
    component_labels(network(), scratch.cable_dead, scratch.components,
                     query_nodes_, scratch.labels.data());
    view.largest_component = scratch.components.largest_component_size();
    view.mask = &scratch.mask;
    view.labels = query_nodes_.empty() ? nullptr : scratch.labels.data();
  }
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
  const std::size_t queries = query_nodes_.size();

  struct BatchScratch {
    TrialBatch batch;
    std::uint32_t cables[kLanes];
    std::uint32_t nodes[kLanes];
    std::uint32_t largest[kLanes];
    double cables_pct[kLanes];
    double nodes_pct[kLanes];
    BatchConnectivityScratch components;
    std::vector<std::uint32_t> labels;  // lane-major, `queries` per lane
    // Lane reconstruction for observers without a batch path.
    util::Bitset cable_dead;
    graph::AliveMask mask;
  };
  std::vector<BatchScratch> scratch(chunked.workers());
  for (BatchScratch& s : scratch) s.labels.resize(kLanes * queries);
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
    if (needs_components_) {
      kernel.largest_components(s.batch, s.components, s.largest,
                                query_nodes_, s.labels.data());
    }
    for (unsigned lane = 0; lane < lanes; ++lane) {
      s.cables_pct[lane] = percent_of(s.cables[lane], cables);
      s.nodes_pct[lane] = percent_of(s.nodes[lane], connected_nodes_);
    }
    const std::uint32_t* labels =
        needs_components_ && queries > 0 ? s.labels.data() : nullptr;

    if (!batch_observers_.empty()) {
      BatchTrialView bview;
      bview.lanes = lanes;
      bview.cable_dead = s.batch.cable_dead.data();
      bview.cables_failed_pct = s.cables_pct;
      bview.nodes_unreachable_pct = s.nodes_pct;
      bview.largest_component = needs_components_ ? s.largest : nullptr;
      bview.labels = labels;
      bview.label_stride = queries;
      for (TrialObserver* observer : batch_observers_) {
        observer->observe_batch(bview, worker, first_chunk);
      }
    }

    if (!scalar_observers_.empty()) {
      // Reconstruct each lane as a scalar TrialView: same dead bits, same
      // percentages, the lane's largest component and labels, and the
      // alive mask when a scalar observer walks the masked graph.
      for (unsigned lane = 0; lane < lanes; ++lane) {
        kernel.extract_lane(s.batch, lane, s.cable_dead);
        TrialView view;
        view.trial = first + lane;
        view.cable_dead = &s.cable_dead;
        view.cables_failed_pct = s.cables_pct[lane];
        view.nodes_unreachable_pct = s.nodes_pct[lane];
        if (needs_components_) {
          view.largest_component = s.largest[lane];
          view.labels = labels != nullptr ? labels + lane * queries : nullptr;
        }
        if (scalar_needs_mask_) {
          network().mask_for_failures(s.cable_dead, s.mask);
          view.mask = &s.mask;
        }
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
  slots_.at(chunk).add(cables_pct, nodes_pct,
                       percent_of(largest, connected_nodes_));
}

void ConnectivityObserver::observe(const TrialView& view, std::size_t /*worker*/,
                                   std::size_t chunk) {
  add(chunk, view.cables_failed_pct, view.nodes_unreachable_pct,
      view.largest_component);
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
  const ConnectivityStats merged = slots_.merged();
  result_ = {merged, merged.cables_failed_pct.count()};
  slots_.release();
}

}  // namespace solarnet::sim
