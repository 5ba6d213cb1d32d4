#include "sim/trial_batch.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <stdexcept>

namespace solarnet::sim {

namespace {

// ceil(p * 2^53) for p in (0, 1). Both the product (a power-of-two scale of
// a double) and the ceil are exact, so the integer test
// (next_u64() >> 11) < threshold decides exactly like uniform() < p.
std::uint64_t bernoulli_threshold(double p) {
  return static_cast<std::uint64_t>(std::ceil(p * 0x1.0p53));
}

}  // namespace

TrialBatchKernel::TrialBatchKernel(const FailureSimulator& simulator,
                                   const DeathProbabilityTable& table)
    : sim_(simulator) {
  if (simulator.config().rule != CableDeathRule::kAnyRepeaterFails) {
    throw std::invalid_argument(
        "TrialBatchKernel: only the any-repeater-fails rule has a batched "
        "form (kFractionFails draws per repeater)");
  }
  const topo::InfrastructureNetwork& net = simulator.network();
  cables_ = net.cable_count();
  if (table.probability.size() != cables_) {
    throw std::invalid_argument("TrialBatchKernel: table size mismatch");
  }

  // Mirror the scalar sampler's stream discipline exactly: cables ascending;
  // repeaterless cables and p <= 0 never draw and never die; p >= 1 dies
  // without drawing; only 0 < p < 1 consumes one uniform per trial.
  for (topo::CableId c = 0; c < cables_; ++c) {
    if (simulator.cable_repeater_count(c) == 0) continue;
    const double p = table.probability[c];
    if (p <= 0.0) continue;
    if (p >= 1.0) {
      certain_dead_.push_back(static_cast<std::uint32_t>(c));
      continue;
    }
    consumer_cable_.push_back(static_cast<std::uint32_t>(c));
    consumer_threshold_.push_back(bernoulli_threshold(p));
  }

  // Node -> cable incidence over cable-bearing nodes only (the universe of
  // the paper's unreachability count; node identity is irrelevant here).
  node_offset_.push_back(0);
  for (topo::NodeId v = 0; v < net.node_count(); ++v) {
    const auto& at = net.cables_at(v);
    if (at.empty()) continue;
    for (const topo::CableId c : at) {
      node_cables_.push_back(static_cast<std::uint32_t>(c));
    }
    node_offset_.push_back(static_cast<std::uint32_t>(node_cables_.size()));
  }

  csr_ = &net.csr();
  edge_cable_.reserve(csr_->edge_count());
  for (graph::EdgeId e = 0; e < csr_->edge_count(); ++e) {
    edge_cable_.push_back(static_cast<std::uint32_t>(net.cable_of_edge(e)));
  }
}

void TrialBatchKernel::sample(const util::Rng& base, std::size_t first_trial,
                              unsigned lanes, TrialBatch& out) const {
  if (lanes == 0 || lanes > kLanes) {
    throw std::invalid_argument("TrialBatchKernel::sample: lanes not in [1, 64]");
  }
  out.first_trial = first_trial;
  out.lanes = lanes;
  out.lane_mask = lanes == kLanes ? ~std::uint64_t{0}
                                  : (std::uint64_t{1} << lanes) - 1;
  out.cable_dead.assign(cables_, 0);
  for (const std::uint32_t c : certain_dead_) {
    out.cable_dead[c] = out.lane_mask;
  }

  const std::size_t n = consumer_cable_.size();
  const std::uint32_t* cable = consumer_cable_.data();
  const std::uint64_t* threshold = consumer_threshold_.data();
  std::uint64_t* dead = out.cable_dead.data();

  // Four lanes per pass: the xoshiro update is a serial dependency chain,
  // so interleaving four independent streams keeps the ALUs busy. Each
  // stream still sees exactly its scalar draw sequence.
  unsigned lane = 0;
  for (; lane + 4 <= lanes; lane += 4) {
    util::Rng r0 = base.split(first_trial + lane + 0);
    util::Rng r1 = base.split(first_trial + lane + 1);
    util::Rng r2 = base.split(first_trial + lane + 2);
    util::Rng r3 = base.split(first_trial + lane + 3);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = threshold[i];
      const std::uint64_t b0 = (r0.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b1 = (r1.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b2 = (r2.next_u64() >> 11) < k ? 1u : 0u;
      const std::uint64_t b3 = (r3.next_u64() >> 11) < k ? 1u : 0u;
      dead[cable[i]] |= (b0 | (b1 << 1) | (b2 << 2) | (b3 << 3)) << lane;
    }
  }
  for (; lane < lanes; ++lane) {
    util::Rng r = base.split(first_trial + lane);
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t bit = (r.next_u64() >> 11) < threshold[i] ? 1u : 0u;
      dead[cable[i]] |= bit << lane;
    }
  }
}

void TrialBatchKernel::count_cables_failed(const TrialBatch& batch,
                                           std::uint32_t* out) const {
  std::fill(out, out + batch.lanes, 0u);
  const std::uint64_t* dead = batch.cable_dead.data();
  std::uint64_t m[kLanes];
  for (std::size_t base = 0; base < cables_; base += kLanes) {
    const std::size_t block = std::min<std::size_t>(kLanes, cables_ - base);
    for (std::size_t j = 0; j < block; ++j) m[j] = dead[base + j];
    for (std::size_t j = block; j < kLanes; ++j) m[j] = 0;
    util::transpose_64x64(m);
    for (unsigned t = 0; t < batch.lanes; ++t) {
      out[t] += static_cast<std::uint32_t>(std::popcount(m[t]));
    }
  }
}

void TrialBatchKernel::count_unreachable_nodes(const TrialBatch& batch,
                                               std::uint32_t* out) const {
  std::fill(out, out + batch.lanes, 0u);
  const std::uint64_t* dead = batch.cable_dead.data();
  const std::size_t nodes = node_offset_.size() - 1;
  std::uint64_t m[kLanes];
  for (std::size_t base = 0; base < nodes; base += kLanes) {
    const std::size_t block = std::min<std::size_t>(kLanes, nodes - base);
    for (std::size_t j = 0; j < block; ++j) {
      // Unreachable in lane t iff every incident cable is dead in lane t:
      // one AND chain answers all 64 trials at once.
      std::uint64_t w = batch.lane_mask;
      const std::uint32_t begin = node_offset_[base + j];
      const std::uint32_t end = node_offset_[base + j + 1];
      for (std::uint32_t i = begin; i != end; ++i) w &= dead[node_cables_[i]];
      m[j] = w;
    }
    for (std::size_t j = block; j < kLanes; ++j) m[j] = 0;
    util::transpose_64x64(m);
    for (unsigned t = 0; t < batch.lanes; ++t) {
      out[t] += static_cast<std::uint32_t>(std::popcount(m[t]));
    }
  }
}

void TrialBatchKernel::largest_components(
    const TrialBatch& batch, BatchConnectivityScratch& scratch,
    std::uint32_t* out, std::span<const topo::NodeId> queries,
    std::uint32_t* labels) const {
  static_assert(topo::kInvalidNode == graph::kNoVertex);
  scratch.edge_dead.resize(edge_cable_.size());
  for (std::size_t e = 0; e < edge_cable_.size(); ++e) {
    scratch.edge_dead[e] = batch.cable_dead[edge_cable_[e]];
  }
  // A query node is dark in lane t when it has cables and all of them are
  // dead there (InfrastructureNetwork::node_unreachable, 64 lanes at once).
  const topo::InfrastructureNetwork& net = sim_.network();
  scratch.query_dark.resize(queries.size());
  for (std::size_t i = 0; i < queries.size(); ++i) {
    const topo::NodeId n = queries[i];
    std::uint64_t dark = 0;
    if (n != topo::kInvalidNode && !net.cables_at(n).empty()) {
      dark = batch.lane_mask;
      for (const topo::CableId c : net.cables_at(n)) {
        dark &= batch.cable_dead[c];
      }
    }
    scratch.query_dark[i] = dark;
  }
  graph::batch_largest_components(*csr_, scratch.edge_dead, batch.lanes,
                                  scratch.components, out,
                                  {queries, scratch.query_dark, labels});
}

void TrialBatchKernel::extract_lane(const TrialBatch& batch, unsigned lane,
                                    util::Bitset& dead) const {
  dead.assign(cables_, false);
  const std::uint64_t* words = batch.cable_dead.data();
  const std::size_t word_count = (cables_ + kLanes - 1) / kLanes;
  for (std::size_t wi = 0; wi < word_count; ++wi) {
    const std::size_t base = wi * kLanes;
    const std::size_t block = std::min<std::size_t>(kLanes, cables_ - base);
    std::uint64_t w = 0;
    for (std::size_t j = 0; j < block; ++j) {
      w |= ((words[base + j] >> lane) & 1u) << j;
    }
    dead.set_word(wi, w);
  }
}

}  // namespace solarnet::sim
