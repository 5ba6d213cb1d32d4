#include "routing/traffic_observer.h"

namespace solarnet::routing {

TrafficObserver::TrafficObserver(const TrafficEngine& engine)
    : engine_(engine) {}

void TrafficObserver::begin_run(const sim::TrialPipeline& pipeline,
                                std::size_t workers, std::size_t chunks) {
  scratch_.resize(workers);
  results_.resize(workers);
  slots_of_endpoints_.clear();
  for (const topo::NodeId n : engine_.endpoints()) {
    slots_of_endpoints_.push_back(pipeline.label_slot(n));
  }
  labels_.assign(workers,
                 std::vector<std::uint32_t>(pipeline.network().node_count()));
  slots_.assign(chunks);
  result_ = {};
  result_.network = pipeline.network().name();
  result_.demand_pairs = engine_.demands().size();
  result_.offered_gbps = engine_.offered_gbps();
}

void TrafficObserver::observe(const sim::TrialView& view, std::size_t worker,
                              std::size_t chunk) {
  AssignmentResult& r = results_[worker];
  std::vector<std::uint32_t>& labels = labels_[worker];
  const std::span<const topo::NodeId> endpoints = engine_.endpoints();
  for (std::size_t i = 0; i < endpoints.size(); ++i) {
    labels[endpoints[i]] = view.labels[slots_of_endpoints_[i]];
  }
  engine_.assign(*view.cable_dead, view.mask, labels.data(), scratch_[worker],
                 r);
  Slot& slot = slots_.at(chunk);
  slot.delivered.add(r.delivered_fraction());
  slot.stranded.add(r.undeliverable_gbps);
  slot.max_util.add(r.max_utilization);
  slot.overloaded.add(static_cast<double>(r.overloaded_cables));
  slot.path_km.add(r.mean_path_km);
}

std::string TrafficObserver::checkpoint_id() const {
  // Carries the network name and the demand-matrix shape: a checkpoint
  // written under one traffic configuration is rejected under another.
  return "traffic/v1/" + engine_.network().name() + "/" +
         std::to_string(engine_.demands().size()) + "x" +
         std::to_string(engine_.source_count());
}

void TrafficObserver::save_chunk(std::size_t chunk,
                                 util::ByteWriter& out) const {
  slots_.save(chunk, out);
}

void TrafficObserver::load_chunk(std::size_t chunk, util::ByteReader& in) {
  slots_.load(chunk, in);
}

void TrafficObserver::end_run() {
  const Slot merged = slots_.merged();
  result_.delivered_fraction = merged.delivered;
  result_.stranded_gbps = merged.stranded;
  result_.max_utilization = merged.max_util;
  result_.overloaded_cables = merged.overloaded;
  result_.mean_path_km = merged.path_km;
  result_.trials = merged.delivered.count();
  scratch_.clear();
  results_.clear();
  labels_.clear();
  slots_.release();
}

}  // namespace solarnet::routing
