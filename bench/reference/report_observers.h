// Frozen report observers: verbatim copies of the service-availability,
// DNS-resolution and country-isolation observers, and of the per-service
// and per-letter evaluators behind them, as they ran before the trial
// pipeline labelled query vertices. Every trial they read a full masked
// component decomposition: a service looks up the component of each
// replica and continent anchor, and DNS runs one quorum-1 service per
// populated root letter (13 on the default root set) over all 1,076
// instances. Attachments still come from services::nearest_connected_node,
// which this layer never changed.
//
// ReportObservers runs them on a live sim::TrialPipeline the way the old
// pipeline fed its scalar observers: one scalar observer that needs
// components, decomposing each trial's masked network once per worker and
// fanning the result out. The parity tests compare the live observers with
// these bit for bit, and perf_pipeline times a report trial on them. Only
// the interfaces are adapted (no batch path, no checkpointing); do not
// route the evaluation through the live observers, it is deliberately
// frozen.
#pragma once

#include <array>
#include <cctype>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "attachment.h"
#include "datasets/infra_points.h"
#include "geo/regions.h"
#include "graph/components.h"
#include "services/availability.h"
#include "sim/chunked.h"
#include "sim/pipeline.h"
#include "topology/network.h"
#include "util/bitset.h"
#include "util/stats.h"
#include "util/status.h"

namespace solarnet::reference {

// The fields of the old sim::TrialView the frozen observers read.
struct TrialView {
  std::size_t trial = 0;
  const util::Bitset* cable_dead = nullptr;
  double cables_failed_pct = 0.0;
  double nodes_unreachable_pct = 0.0;
  const graph::ComponentResult* components = nullptr;
};

// The old sim::TrialObserver without the batch path and checkpointing.
class ReportObserver {
 public:
  virtual ~ReportObserver() = default;
  virtual void begin_run(std::size_t workers, std::size_t chunks) = 0;
  virtual void observe(const TrialView& view, std::size_t worker,
                       std::size_t chunk) = 0;
  virtual void end_run() = 0;
};

// The old services::ServiceEvaluator.
class ServiceEvaluator {
 public:
  ServiceEvaluator(const topo::InfrastructureNetwork& net,
                   services::ServiceSpec spec)
      : net_(net), csr_(&net.csr()), spec_(std::move(spec)) {
    if (spec_.replicas.empty() || spec_.write_quorum == 0 ||
        spec_.write_quorum > spec_.replicas.size()) {
      throw std::invalid_argument("ServiceEvaluator: bad service spec");
    }
    replica_nodes_.reserve(spec_.replicas.size());
    for (const geo::GeoPoint& r : spec_.replicas) {
      replica_nodes_.push_back(services::nearest_connected_node(net_, r));
    }
    anchor_nodes_.reserve(continent_anchors().size());
    for (const auto& [continent, anchor] : continent_anchors()) {
      anchor_nodes_.emplace_back(
          continent, services::nearest_connected_node(net_, anchor));
    }
  }

  const services::ServiceSpec& spec() const noexcept { return spec_; }

  void evaluate(const util::Bitset& cable_dead,
                services::AvailabilityReport& out) {
    net_.mask_for_failures(cable_dead, mask_);
    graph::connected_components(*csr_, mask_, comp_scratch_, cc_);
    evaluate_with_components(cable_dead, cc_, out);
  }

  void evaluate_with_components(const util::Bitset& cable_dead,
                                const graph::ComponentResult& components,
                                services::AvailabilityReport& out) {
    replica_components_.clear();
    for (topo::NodeId n : replica_nodes_) {
      replica_components_.push_back(component_of(n, cable_dead, components));
    }

    out.service = spec_.name;
    out.per_continent.clear();
    out.read_availability = 0.0;
    out.write_availability = 0.0;
    for (const auto& [continent, anchor_node] : anchor_nodes_) {
      services::ContinentAvailability avail;
      avail.continent = continent;
      const std::uint32_t client =
          component_of(anchor_node, cable_dead, components);
      if (client != graph::ComponentResult::kNoComponent) {
        std::size_t reachable = 0;
        for (std::uint32_t rc : replica_components_) {
          if (rc == client) ++reachable;
        }
        avail.read_available = reachable >= 1;
        avail.write_available = reachable >= spec_.write_quorum;
      }
      out.per_continent.push_back(avail);
    }

    for (const auto& [continent, share] :
         services::continent_population_shares()) {
      for (const services::ContinentAvailability& avail : out.per_continent) {
        if (avail.continent != continent) continue;
        if (avail.read_available) out.read_availability += share;
        if (avail.write_available) out.write_availability += share;
      }
    }
  }

 private:
  // A node that lost every cable is its own island partition.
  static constexpr std::uint32_t kIslandBase = 0x80000000u;

  std::uint32_t component_of(topo::NodeId n, const util::Bitset& cable_dead,
                             const graph::ComponentResult& components) const {
    if (n == topo::kInvalidNode) return graph::ComponentResult::kNoComponent;
    if (net_.node_unreachable(n, cable_dead)) return kIslandBase + n;
    return components.component[n];
  }

  const topo::InfrastructureNetwork& net_;
  const graph::Csr* csr_;
  services::ServiceSpec spec_;
  std::vector<topo::NodeId> replica_nodes_;
  std::vector<std::pair<geo::Continent, topo::NodeId>> anchor_nodes_;
  graph::AliveMask mask_;
  graph::ComponentScratch comp_scratch_;
  graph::ComponentResult cc_;
  std::vector<std::uint32_t> replica_components_;
};

// The old services::AvailabilityObserver.
class AvailabilityObserver final : public ReportObserver {
 public:
  AvailabilityObserver(const topo::InfrastructureNetwork& net,
                       services::ServiceSpec spec)
      : prototype_(net, std::move(spec)) {}

  const services::AvailabilitySweep& result() const noexcept {
    return result_;
  }

  void begin_run(std::size_t workers, std::size_t chunks) override {
    workers_ = std::vector<ServiceEvaluator>(workers, prototype_);
    reports_.assign(workers, {});
    slots_.assign(chunks);
    result_ = {};
    result_.service = prototype_.spec().name;
  }

  void observe(const TrialView& view, std::size_t worker,
               std::size_t chunk) override {
    services::AvailabilityReport& report = reports_[worker];
    workers_[worker].evaluate_with_components(*view.cable_dead,
                                              *view.components, report);
    Slot& slot = slots_.at(chunk);
    slot.read.add(report.read_availability);
    slot.write.add(report.write_availability);
  }

  void end_run() override {
    const Slot merged = slots_.merged();
    result_.read_availability = merged.read;
    result_.write_availability = merged.write;
    result_.draws = merged.read.count();
    workers_.clear();
    reports_.clear();
    slots_.release();
  }

 private:
  struct Slot {
    util::RunningStats read;
    util::RunningStats write;
    static constexpr auto kFields = std::tuple{&Slot::read, &Slot::write};
  };
  ServiceEvaluator prototype_;
  std::vector<ServiceEvaluator> workers_;
  std::vector<services::AvailabilityReport> reports_;
  sim::ChunkSlots<Slot> slots_{"reference::AvailabilityObserver"};
  services::AvailabilitySweep result_;
};

// The old analysis::DnsResolutionEvaluator: one quorum-1 ServiceEvaluator
// per populated root letter.
class DnsResolutionEvaluator {
 public:
  DnsResolutionEvaluator(const topo::InfrastructureNetwork& net,
                         const std::vector<datasets::DnsRootInstance>& roots) {
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

  void evaluate(const util::Bitset& cable_dead,
                const graph::ComponentResult& components,
                analysis::DnsResolutionReport& out) {
    out.per_continent.clear();
    out.resolution_availability = 0.0;
    out.mean_letters_reachable = 0.0;

    bool first = true;
    for (ServiceEvaluator& letter : letters_) {
      letter.evaluate_with_components(cable_dead, components, letter_report_);
      if (first) {
        for (const services::ContinentAvailability& c :
             letter_report_.per_continent) {
          analysis::DnsResolutionReport::PerContinent pc;
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

    for (const auto& [cont, share] :
         services::continent_population_shares()) {
      for (const auto& pc : out.per_continent) {
        if (pc.continent != cont) continue;
        if (pc.any_root_reachable) out.resolution_availability += share;
        out.mean_letters_reachable +=
            share * static_cast<double>(pc.letters_reachable);
      }
    }
  }

 private:
  std::vector<ServiceEvaluator> letters_;
  services::AvailabilityReport letter_report_;
};

// The old analysis::DnsResolutionObserver.
class DnsResolutionObserver final : public ReportObserver {
 public:
  DnsResolutionObserver(const topo::InfrastructureNetwork& net,
                        const std::vector<datasets::DnsRootInstance>& roots,
                        double cable_loss_threshold_pct = 10.0)
      : prototype_(net, roots), threshold_pct_(cable_loss_threshold_pct) {}

  const analysis::DnsResolutionSweep& result() const noexcept {
    return result_;
  }

  void begin_run(std::size_t workers, std::size_t chunks) override {
    workers_ = std::vector<DnsResolutionEvaluator>(workers, prototype_);
    reports_.assign(workers, {});
    slots_.assign(chunks);
    result_ = {};
    result_.cable_loss_threshold_pct = threshold_pct_;
  }

  void observe(const TrialView& view, std::size_t worker,
               std::size_t chunk) override {
    analysis::DnsResolutionReport& report = reports_[worker];
    workers_[worker].evaluate(*view.cable_dead, *view.components, report);
    Slot& slot = slots_.at(chunk);
    slot.availability.add(report.resolution_availability);
    slot.letters.add(report.mean_letters_reachable);
    const bool degraded =
        analysis::resolution_degraded(report.resolution_availability);
    const bool heavy = view.cables_failed_pct > threshold_pct_;
    if (degraded) ++slot.degraded;
    if (heavy) ++slot.heavy;
    if (degraded && heavy) ++slot.joint;
  }

  void end_run() override {
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

 private:
  struct Slot {
    util::RunningStats availability;
    util::RunningStats letters;
    std::size_t degraded = 0;
    std::size_t heavy = 0;
    std::size_t joint = 0;
    static constexpr auto kFields =
        std::tuple{&Slot::availability, &Slot::letters, &Slot::degraded,
                   &Slot::heavy, &Slot::joint};
  };
  DnsResolutionEvaluator prototype_;
  std::vector<DnsResolutionEvaluator> workers_;
  std::vector<analysis::DnsResolutionReport> reports_;
  sim::ChunkSlots<Slot> slots_{"reference::DnsResolutionObserver"};
  double threshold_pct_;
  analysis::DnsResolutionSweep result_;
};

// The old analysis::CountryIsolationObserver.
class CountryIsolationObserver final : public ReportObserver {
 public:
  CountryIsolationObserver(const topo::InfrastructureNetwork& net,
                           std::vector<std::string> countries)
      : countries_(std::move(countries)) {
    cables_.reserve(countries_.size());
    for (const std::string& country : countries_) {
      cables_.push_back(analysis::international_cables(net, country));
    }
  }

  const std::vector<analysis::CountryIsolationResult>& results()
      const noexcept {
    return results_;
  }

  void begin_run(std::size_t /*workers*/, std::size_t chunks) override {
    slots_.assign(chunks, countries_.size());
    results_.clear();
  }

  void observe(const TrialView& view, std::size_t /*worker*/,
               std::size_t chunk) override {
    const util::Bitset& dead = *view.cable_dead;
    for (std::size_t i = 0; i < countries_.size(); ++i) {
      const std::vector<topo::CableId>& cables = cables_[i];
      std::size_t survivors = 0;
      for (topo::CableId c : cables) {
        if (!dead[c]) ++survivors;
      }
      Slot& slot = slots_.at(chunk, i);
      slot.survivors.add(static_cast<double>(survivors));
      if (survivors == 0) ++slot.isolated;
    }
  }

  void end_run() override {
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

 private:
  struct Slot {
    std::size_t isolated = 0;
    util::RunningStats survivors;
    static constexpr auto kFields =
        std::tuple{&Slot::isolated, &Slot::survivors};
  };
  std::vector<std::string> countries_;
  std::vector<std::vector<topo::CableId>> cables_;
  sim::ChunkSlots<Slot> slots_{"reference::CountryIsolationObserver"};
  std::vector<analysis::CountryIsolationResult> results_;
};

// Feeds frozen observers from a live pipeline: registered as one scalar
// observer that needs components, it decomposes every trial's masked
// network (the view's alive mask) once per worker, the old pipeline's
// per-trial connected_components, and hands each frozen observer, in the
// order added, a TrialView carrying the decomposition.
class ReportObservers final : public sim::TrialObserver {
 public:
  // Non-owning; each observer must outlive the pipeline runs.
  void add(ReportObserver& observer) { observers_.push_back(&observer); }

  bool needs_components() const override { return true; }

  void begin_run(const sim::TrialPipeline& pipeline, std::size_t workers,
                 std::size_t chunks) override {
    csr_ = &pipeline.network().csr();
    scratch_.resize(workers);
    for (ReportObserver* o : observers_) o->begin_run(workers, chunks);
  }

  void observe(const sim::TrialView& view, std::size_t worker,
               std::size_t chunk) override {
    Scratch& s = scratch_[worker];
    graph::connected_components(*csr_, *view.mask, s.scratch, s.components);
    TrialView frozen;
    frozen.trial = view.trial;
    frozen.cable_dead = view.cable_dead;
    frozen.cables_failed_pct = view.cables_failed_pct;
    frozen.nodes_unreachable_pct = view.nodes_unreachable_pct;
    frozen.components = &s.components;
    for (ReportObserver* o : observers_) o->observe(frozen, worker, chunk);
  }

  void end_run() override {
    for (ReportObserver* o : observers_) o->end_run();
  }

 private:
  struct Scratch {
    graph::ComponentScratch scratch;
    graph::ComponentResult components;
  };
  const graph::Csr* csr_ = nullptr;
  std::vector<ReportObserver*> observers_;
  std::vector<Scratch> scratch_;
};

}  // namespace solarnet::reference
