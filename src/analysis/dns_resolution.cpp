#include "analysis/dns_resolution.h"

#include <cctype>
#include <charconv>
#include <string>

#include "graph/components.h"
#include "util/status.h"

namespace solarnet::analysis {

DnsResolutionEvaluator::DnsResolutionEvaluator(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots) {
  // Treat each root letter as a service with quorum 1 (anycast: any
  // reachable instance serves the zone); letters with no instances are
  // skipped.
  std::array<services::ServiceSpec, 13> specs;
  for (int l = 0; l < 13; ++l) {
    specs[l].name = std::string(1, static_cast<char>('a' + l));
    specs[l].write_quorum = 1;
  }
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
    specs[letter - 'a'].replicas.push_back(roots[i].location);
  }
  for (services::ServiceSpec& spec : specs) {
    if (spec.replicas.empty()) continue;
    letters_.emplace_back(net, std::move(spec));
  }
}

void DnsResolutionEvaluator::evaluate(const util::Bitset& cable_dead,
                                      const graph::ComponentResult& components,
                                      DnsResolutionReport& out) {
  out.per_continent.clear();
  out.resolution_availability = 0.0;
  out.mean_letters_reachable = 0.0;

  // Collate per continent across letters. Every letter reports the same
  // fixed set of continent anchors, so the first letter seeds the rows and
  // the rest fold into them by position.
  bool first = true;
  for (services::ServiceEvaluator& letter : letters_) {
    letter.evaluate_with_components(cable_dead, components, letter_report_);
    if (first) {
      for (const services::ContinentAvailability& c :
           letter_report_.per_continent) {
        DnsResolutionReport::PerContinent pc;
        pc.continent = c.continent;
        pc.any_root_reachable = c.read_available;
        pc.letters_reachable = c.read_available ? 1 : 0;
        out.per_continent.push_back(pc);
      }
      first = false;
      continue;
    }
    for (std::size_t i = 0; i < letter_report_.per_continent.size(); ++i) {
      if (!letter_report_.per_continent[i].read_available) continue;
      out.per_continent[i].any_root_reachable = true;
      ++out.per_continent[i].letters_reachable;
    }
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

DnsResolutionReport evaluate_dns_resolution(
    const topo::InfrastructureNetwork& net,
    const std::vector<bool>& cable_dead,
    const std::vector<datasets::DnsRootInstance>& roots) {
  DnsResolutionEvaluator evaluator(net, roots);
  const util::Bitset dead = util::Bitset::from_bools(cable_dead);
  graph::AliveMask mask;
  net.mask_for_failures(dead, mask);
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  graph::connected_components(net.csr(), mask, scratch, components);
  DnsResolutionReport report;
  evaluator.evaluate(dead, components, report);
  return report;
}

DnsResolutionObserver::DnsResolutionObserver(
    const topo::InfrastructureNetwork& net,
    const std::vector<datasets::DnsRootInstance>& roots,
    double cable_loss_threshold_pct)
    : prototype_(net, roots), threshold_pct_(cable_loss_threshold_pct) {}

void DnsResolutionObserver::begin_run(const sim::TrialPipeline& /*pipeline*/,
                                      std::size_t workers,
                                      std::size_t chunks) {
  // Fill-construct (the evaluator is copyable but not assignable).
  workers_ = std::vector<DnsResolutionEvaluator>(workers, prototype_);
  reports_.assign(workers, {});
  slots_.assign(chunks);
  result_ = {};
  result_.cable_loss_threshold_pct = threshold_pct_;
}

void DnsResolutionObserver::observe(const sim::TrialView& view,
                                    std::size_t worker, std::size_t chunk) {
  DnsResolutionReport& report = reports_[worker];
  workers_[worker].evaluate(*view.cable_dead, *view.components, report);
  Slot& slot = slots_.at(chunk);
  slot.availability.add(report.resolution_availability);
  slot.letters.add(report.mean_letters_reachable);
  const bool degraded = resolution_degraded(report.resolution_availability);
  const bool heavy = view.cables_failed_pct > threshold_pct_;
  if (degraded) ++slot.degraded;
  if (heavy) ++slot.heavy;
  if (degraded && heavy) ++slot.joint;
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
  workers_.clear();
  reports_.clear();
  slots_.release();
}

}  // namespace solarnet::analysis
