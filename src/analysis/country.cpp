#include "analysis/country.h"

#include <algorithm>
#include <bit>

namespace solarnet::analysis {

namespace {

bool cable_touches_country(const topo::InfrastructureNetwork& net,
                           const topo::Cable& cable,
                           const std::vector<std::string>& countries) {
  for (topo::NodeId n : cable.endpoints()) {
    const std::string& cc = net.node(n).country_code;
    if (std::find(countries.begin(), countries.end(), cc) !=
        countries.end()) {
      return true;
    }
  }
  return false;
}

}  // namespace

std::vector<topo::CableId> international_cables(
    const topo::InfrastructureNetwork& net, const std::string& country) {
  std::vector<topo::CableId> out;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    bool touches = false;
    bool leaves = false;
    for (topo::NodeId n : net.cable(c).endpoints()) {
      const std::string& cc = net.node(n).country_code;
      if (cc == country) {
        touches = true;
      } else if (!cc.empty()) {
        leaves = true;
      }
    }
    if (touches && leaves) out.push_back(c);
  }
  return out;
}

std::vector<topo::CableId> corridor_cables(
    const topo::InfrastructureNetwork& net,
    const std::vector<std::string>& countries_a,
    const std::vector<std::string>& countries_b) {
  std::vector<topo::CableId> out;
  for (topo::CableId c = 0; c < net.cable_count(); ++c) {
    const topo::Cable& cable = net.cable(c);
    if (cable_touches_country(net, cable, countries_a) &&
        cable_touches_country(net, cable, countries_b)) {
      out.push_back(c);
    }
  }
  return out;
}

std::vector<topo::CableId> cables_at_named_node(
    const topo::InfrastructureNetwork& net, const std::string& node_name) {
  const auto id = net.find_node(node_name);
  if (!id) return {};
  return net.cables_at(*id);
}

double all_fail_probability(const sim::FailureSimulator& simulator,
                            const gic::RepeaterFailureModel& model,
                            const std::vector<topo::CableId>& cables) {
  double p = 1.0;
  for (topo::CableId c : cables) {
    p *= simulator.cable_death_probability(c, model);
    if (p == 0.0) break;
  }
  return p;
}

double expected_survivors(const sim::FailureSimulator& simulator,
                          const gic::RepeaterFailureModel& model,
                          const std::vector<topo::CableId>& cables) {
  double expected = 0.0;
  for (topo::CableId c : cables) {
    expected += 1.0 - simulator.cable_death_probability(c, model);
  }
  return expected;
}

CountryConnectivity country_connectivity(
    const topo::InfrastructureNetwork& net,
    const sim::FailureSimulator& simulator,
    const gic::RepeaterFailureModel& model, const std::string& country) {
  CountryConnectivity result;
  result.country = country;
  const auto cables = international_cables(net, country);
  result.international_cable_count = cables.size();
  result.all_fail_probability = all_fail_probability(simulator, model, cables);
  result.expected_surviving_cables =
      expected_survivors(simulator, model, cables);
  return result;
}

CountryIsolationObserver::CountryIsolationObserver(
    const topo::InfrastructureNetwork& net,
    std::vector<std::string> countries)
    : countries_(std::move(countries)) {
  cables_.reserve(countries_.size());
  for (const std::string& country : countries_) {
    cables_.push_back(international_cables(net, country));
  }
}

void CountryIsolationObserver::begin_run(
    const sim::TrialPipeline& /*pipeline*/, std::size_t /*workers*/,
    std::size_t chunks) {
  slots_.assign(chunks, countries_.size());
  results_.clear();
}

void CountryIsolationObserver::add(std::size_t chunk, std::size_t country,
                                   std::size_t survivors) {
  Slot& slot = slots_.at(chunk, country);
  slot.survivors.add(static_cast<double>(survivors));
  // A country with no international cables is vacuously "all failed"
  // (matching all_fail_probability's empty-set convention of 1.0).
  if (survivors == 0) ++slot.isolated;
}

void CountryIsolationObserver::observe(const sim::TrialView& view,
                                       std::size_t /*worker*/,
                                       std::size_t chunk) {
  const util::Bitset& dead = *view.cable_dead;
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    std::size_t survivors = 0;
    for (topo::CableId c : cables_[i]) {
      if (!dead[c]) ++survivors;
    }
    add(chunk, i, survivors);
  }
}

void CountryIsolationObserver::observe_batch(const sim::BatchTrialView& view,
                                             std::size_t /*worker*/,
                                             std::size_t first_chunk) {
  const std::uint64_t lane_mask =
      view.lanes == 64 ? ~std::uint64_t{0}
                       : (std::uint64_t{1} << view.lanes) - 1;
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    // Bit-sliced counter: plane j holds bit j of every lane's survivor
    // count; each cable's alive word is added with a ripple carry.
    std::uint64_t plane[64] = {};
    for (const topo::CableId c : cables_[i]) {
      std::uint64_t carry = ~view.cable_dead[c] & lane_mask;
      for (unsigned j = 0; carry != 0; ++j) {
        const std::uint64_t next = plane[j] & carry;
        plane[j] ^= carry;
        carry = next;
      }
    }
    const auto planes =
        static_cast<unsigned>(std::bit_width(cables_[i].size()));
    // Lanes in ascending order, as 64 observe() calls would add them.
    for (unsigned lane = 0; lane < view.lanes; ++lane) {
      std::size_t survivors = 0;
      for (unsigned j = 0; j < planes; ++j) {
        survivors |= static_cast<std::size_t>((plane[j] >> lane) & 1) << j;
      }
      add(first_chunk + lane / sim::kTrialChunk, i, survivors);
    }
  }
}

std::string CountryIsolationObserver::checkpoint_id() const {
  std::string id = "country-isolation/v1";
  for (const std::string& country : countries_) {
    id += '/';
    id += country;
  }
  return id;
}

void CountryIsolationObserver::save_chunk(std::size_t chunk,
                                          util::ByteWriter& out) const {
  slots_.save(chunk, out);
}

void CountryIsolationObserver::load_chunk(std::size_t chunk,
                                          util::ByteReader& in) {
  slots_.load(chunk, in);
}

void CountryIsolationObserver::end_run() {
  results_.assign(countries_.size(), {});
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    const Slot merged = slots_.merged(i);
    results_[i].country = countries_[i];
    results_[i].international_cable_count = cables_[i].size();
    results_[i].trials = merged.survivors.count();
    results_[i].isolated_trials = merged.isolated;
    results_[i].surviving_cables = merged.survivors;
  }
  slots_.release();
}

}  // namespace solarnet::analysis
