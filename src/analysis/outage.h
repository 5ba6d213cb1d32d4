// Temporal country-outage statistics over a storm playback (§4.3.4 made
// dynamic). A country is cut off from the global internet while ALL of its
// international cables are down; with a storm timeline + repair schedule
// per trial, the outage becomes an *interval* — it opens when the last
// international cable fails (failures accumulate monotonically, so that is
// max over the set of the cables' fail hours) and closes when the first
// repair reopens a route (min over the set of restoration hours). The
// observer turns sim::TimelineEngine trials into outage-hours and
// cutoff-rate distributions per country — the "how long is COUNTRY dark"
// question the single-shot isolation probability cannot answer.
#pragma once

#include <string>
#include <vector>

#include "sim/timeline_engine.h"
#include "topology/network.h"
#include "util/stats.h"

namespace solarnet::analysis {

struct CountryOutageResult {
  std::string country;
  std::size_t international_cable_count = 0;
  std::size_t trials = 0;
  // Trials in which every international cable was down at once.
  std::size_t cutoff_trials = 0;
  // Outage duration in hours, over ALL trials (0 when never cut off) — the
  // mean is the expected outage-hours per storm.
  util::RunningStats outage_hours;
  // Hour the cutoff began — over cutoff trials only.
  util::RunningStats cutoff_start_hour;
};

// TimelineObserver: per-country outage intervals from the per-trial event
// times (fail_step / restore_hour in the TimelineView). Countries with no
// international cables in the network never register a cutoff.
class CountryOutageObserver final : public sim::TimelineObserver {
 public:
  CountryOutageObserver(const topo::InfrastructureNetwork& net,
                        std::vector<std::string> countries);

  // Valid after end_run(); one entry per requested country, same order.
  const std::vector<CountryOutageResult>& results() const noexcept {
    return results_;
  }

  void begin_run(const sim::TimelineEngine& engine, std::size_t workers,
                 std::size_t chunks) override;
  void observe(const sim::TimelineView& view, std::size_t worker,
               std::size_t chunk) override;
  void end_run() override;

 private:
  struct Slot {
    std::size_t cutoff = 0;
    util::RunningStats outage_hours;
    util::RunningStats start_hour;
    static constexpr auto kFields =
        std::tuple{&Slot::cutoff, &Slot::outage_hours, &Slot::start_hour};
  };

  std::vector<std::string> countries_;
  std::vector<std::vector<topo::CableId>> cables_;  // per country
  const sim::TimelineEngine* engine_ = nullptr;
  sim::ChunkSlots<Slot> slots_{"CountryOutageObserver"};  // one per country
  std::vector<CountryOutageResult> results_;
};

}  // namespace solarnet::analysis
