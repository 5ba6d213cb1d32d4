#include "analysis/dns_resolution.h"

#include <bit>
#include <cctype>
#include <charconv>
#include <string>

#include "util/status.h"

namespace solarnet::analysis {

DnsResolutionEvaluator::DnsResolutionEvaluator(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots)
    : net_(net), has_roots_(!roots.empty()) {
  std::vector<geo::GeoPoint> points;
  points.reserve(roots.size());
  for (std::size_t i = 0; i < roots.size(); ++i) {
    const char letter = roots[i].root_letter;
    if (letter < 'a' || letter > 'm') {
      const auto code = static_cast<unsigned char>(letter);
      const std::string shown = std::isprint(code)
                                    ? std::string{'\'', letter, '\''}
                                    : "code " + std::to_string(code);
      throw util::Error(util::ErrorCode::kInvalidArgument,
                        "DnsResolutionEvaluator: root letter " + shown +
                            " of instance " + std::to_string(i) +
                            " is not in a-m",
                        {"dns-roots", 0, "root_letter"});
    }
    points.push_back(roots[i].location);
  }
  services::Attachments at = services::attach(net_, points);
  nodes_ = std::move(at.nodes);
  anchors_ = std::move(at.anchors);
  letters_.assign(nodes_.size(), 0);
  for (std::size_t i = 0; i < roots.size(); ++i) {
    letters_[at.point_node[i]] |= 1u << (roots[i].root_letter - 'a');
  }
}

void DnsResolutionEvaluator::evaluate(const std::uint32_t* labels,
                                      DnsResolutionReport& out) const {
  out.per_continent.clear();
  out.resolution_availability = 0.0;
  out.mean_letters_reachable = 0.0;
  // With no root instance at all there is no letter to report per
  // continent.
  if (!has_roots_) return;

  for (const auto& [continent, anchor] : anchors_) {
    DnsResolutionReport::PerContinent pc;
    pc.continent = continent;
    const std::uint32_t client = labels[anchor];
    if (client != graph::kNoLabel) {
      std::uint32_t reachable = 0;
      for (std::size_t i = 0; i < letters_.size(); ++i) {
        reachable |= labels[i] == client ? letters_[i] : 0;
      }
      pc.any_root_reachable = reachable != 0;
      pc.letters_reachable = static_cast<std::size_t>(std::popcount(reachable));
    }
    out.per_continent.push_back(pc);
  }

  for (const auto& [cont, share] : services::continent_population_shares()) {
    for (const auto& pc : out.per_continent) {
      if (pc.continent != cont) continue;
      if (pc.any_root_reachable) out.resolution_availability += share;
      out.mean_letters_reachable +=
          share * static_cast<double>(pc.letters_reachable);
    }
  }
}

void DnsResolutionEvaluator::evaluate(const util::Bitset& cable_dead,
                                      DnsResolutionReport& out) {
  evaluate(draw_.label(net_, cable_dead, nodes_), out);
}

DnsResolutionReport evaluate_dns_resolution(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead,
    const std::vector<datasets::DnsRootInstance>& roots) {
  DnsResolutionEvaluator evaluator(net, roots);
  DnsResolutionReport report;
  evaluator.evaluate(util::Bitset::from_bools(cable_dead), report);
  return report;
}

DnsResolutionObserver::DnsResolutionObserver(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots,
    double cable_loss_threshold_pct)
    : evaluator_(net, roots), threshold_pct_(cable_loss_threshold_pct) {}

void DnsResolutionObserver::begin_run(const sim::TrialPipeline& pipeline,
                                      std::size_t workers,
                                      std::size_t chunks) {
  labels_.bind(pipeline, evaluator_.nodes(), workers);
  reports_.assign(workers, {});
  slots_.assign(chunks);
  result_ = {};
  result_.cable_loss_threshold_pct = threshold_pct_;
}

void DnsResolutionObserver::add(const std::uint32_t* labels,
                                double cables_failed_pct, std::size_t worker,
                                std::size_t chunk) {
  DnsResolutionReport& report = reports_[worker];
  evaluator_.evaluate(labels_.gather(labels, worker), report);
  Slot& slot = slots_.at(chunk);
  slot.availability.add(report.resolution_availability);
  slot.letters.add(report.mean_letters_reachable);
  const bool degraded = resolution_degraded(report.resolution_availability);
  const bool heavy = cables_failed_pct > threshold_pct_;
  if (degraded) ++slot.degraded;
  if (heavy) ++slot.heavy;
  if (degraded && heavy) ++slot.joint;
}

void DnsResolutionObserver::observe(const sim::TrialView& view,
                                    std::size_t worker, std::size_t chunk) {
  add(view.labels, view.cables_failed_pct, worker, chunk);
}

void DnsResolutionObserver::observe_batch(const sim::BatchTrialView& view,
                                          std::size_t worker,
                                          std::size_t first_chunk) {
  for (unsigned lane = 0; lane < view.lanes; ++lane) {
    add(view.labels + lane * view.label_stride, view.cables_failed_pct[lane],
        worker, first_chunk + lane / sim::kTrialChunk);
  }
}

std::string DnsResolutionObserver::checkpoint_id() const {
  // Shortest round-trip form: distinct thresholds give distinct ids.
  char buf[32];
  const auto [end, ec] = std::to_chars(buf, buf + sizeof(buf), threshold_pct_);
  return "dns-resolution/v2/threshold=" + std::string(buf, end);
}

void DnsResolutionObserver::save_chunk(std::size_t chunk,
                                       util::ByteWriter& out) const {
  slots_.save(chunk, out);
}

void DnsResolutionObserver::load_chunk(std::size_t chunk,
                                       util::ByteReader& in) {
  slots_.load(chunk, in);
}

void DnsResolutionObserver::end_run() {
  const Slot merged = slots_.merged();
  result_.resolution_availability = merged.availability;
  result_.mean_letters_reachable = merged.letters;
  result_.degraded_trials = merged.degraded;
  result_.heavy_loss_trials = merged.heavy;
  result_.joint_trials = merged.joint;
  result_.trials = merged.availability.count();
  labels_.release();
  reports_.clear();
  slots_.release();
}

}  // namespace solarnet::analysis
