#include "analysis/outage.h"

#include <algorithm>
#include <utility>

#include "analysis/country.h"

namespace solarnet::analysis {

CountryOutageObserver::CountryOutageObserver(
    const topo::InfrastructureNetwork& net, std::vector<std::string> countries)
    : countries_(std::move(countries)) {
  cables_.reserve(countries_.size());
  for (const std::string& country : countries_) {
    cables_.push_back(international_cables(net, country));
  }
}

void CountryOutageObserver::begin_run(const sim::TimelineEngine& engine,
                                      std::size_t /*workers*/,
                                      std::size_t chunks) {
  engine_ = &engine;
  slots_.assign(chunks, countries_.size());
  results_.clear();
}

void CountryOutageObserver::observe(const sim::TimelineView& view,
                                    std::size_t /*worker*/,
                                    std::size_t chunk) {
  const std::size_t storm_steps = engine_->storm_step_count();
  const std::vector<double>& storm_hours = engine_->config().storm_hours;
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    Slot& slot = slots_.at(chunk, i);
    const std::vector<topo::CableId>& cables = cables_[i];
    // The cutoff interval: opens when the LAST international cable fails,
    // closes when the FIRST one is restored. Empty cable set => never cut.
    bool cut_off = !cables.empty();
    double start = 0.0;
    double end = 0.0;
    bool first = true;
    for (topo::CableId c : cables) {
      const std::uint32_t fail = view.fail_step[c];
      if (fail >= storm_steps) {
        cut_off = false;
        break;
      }
      const double fail_hour = storm_hours[fail];
      const double back_hour = view.restore_hour[c];
      if (first) {
        start = fail_hour;
        end = back_hour;
        first = false;
      } else {
        start = std::max(start, fail_hour);
        end = std::min(end, back_hour);
      }
    }
    if (cut_off) {
      ++slot.cutoff;
      slot.outage_hours.add(std::max(0.0, end - start));
      slot.start_hour.add(start);
    } else {
      slot.outage_hours.add(0.0);
    }
  }
}

void CountryOutageObserver::end_run() {
  results_.clear();
  results_.reserve(countries_.size());
  for (std::size_t i = 0; i < countries_.size(); ++i) {
    const Slot merged = slots_.merged(i);
    CountryOutageResult r;
    r.country = countries_[i];
    r.international_cable_count = cables_[i].size();
    r.trials = merged.outage_hours.count();
    r.cutoff_trials = merged.cutoff;
    r.outage_hours = merged.outage_hours;
    r.cutoff_start_hour = merged.start_hour;
    results_.push_back(std::move(r));
  }
  slots_.release();
}

}  // namespace solarnet::analysis
