// Deterministic fault-injection harness.
//
// Crash-safety code is only as good as its least-exercised recovery path.
// FaultInjector lets tests and the bench/robust_campaign gate schedule
// failures at the library's registered fault sites and prove that every
// recovery path actually recovers — campaigns either complete with correct
// results or fail with a structured, actionable error.
//
// Site registry (each site is probed at exactly the points documented):
//   kAllocation      — campaign-scale buffer allocation: probed once in
//                      sim::CampaignRunner::run before the first segment,
//                      for the per-worker trial scratch each segment's
//                      TrialPipeline::run_chunks call allocates
//   kWorkerTask      — entry of every util::parallel_for task
//   kFileRead        — util::read_file (dataset CSV loads, checkpoint loads)
//   kCheckpointWrite — util::atomic_write_file (checkpoint persistence)
//
// Determinism: schedules are counter-based. arm_nth(site, n) fires on the
// n-th probe of that site (1-based) and then disarms itself;
// arm_probability(site, p, seed) fires on every probe whose SplitMix64 hash
// of (seed, probe index) falls below p. Probe indices are assigned by an
// atomic counter, so in serial code the schedule is exactly reproducible;
// across parallel_for workers the *set* of fired probes is reproducible in
// distribution while the claiming order is not — recovery tests must (and
// do) tolerate a fault on any task.
//
// Disarmed — the default, and the only state production code ever sees —
// a probe costs one relaxed atomic load of a global flag. The injector is
// process-global and NOT synchronized against concurrent arm/disarm: arm
// and disarm only while no probed code is running (tests do this
// naturally).
#pragma once

#include <atomic>
#include <cstdint>
#include <span>

#include "util/status.h"

namespace solarnet::util {

enum class FaultSite : std::size_t {
  kAllocation = 0,
  kWorkerTask,
  kFileRead,
  kCheckpointWrite,
  kSiteCount,  // sentinel, not a site
};

constexpr std::size_t kFaultSiteCount =
    static_cast<std::size_t>(FaultSite::kSiteCount);

const char* to_string(FaultSite site) noexcept;

// Every registered site, for "schedule a fault everywhere" sweeps.
std::span<const FaultSite> all_fault_sites() noexcept;

class FaultInjector {
 public:
  static FaultInjector& instance() noexcept;

  // The probe production code calls at a registered site. Throws
  // Error(ErrorCode::kFaultInjected) when the site's schedule selects this
  // probe; near-free when nothing is armed anywhere.
  static void probe(FaultSite site) {
    if (instance().any_armed_.load(std::memory_order_relaxed)) {
      instance().probe_slow(site);
    }
  }

  // Fail the nth future probe of `site` (1-based), once.
  void arm_nth(FaultSite site, std::uint64_t nth);
  // Fail each future probe of `site` independently with probability `p`
  // (deterministic in (seed, probe index)). Throws std::invalid_argument
  // for p outside [0, 1].
  void arm_probability(FaultSite site, double p, std::uint64_t seed);
  void disarm(FaultSite site);
  void disarm_all();

  bool armed(FaultSite site) const noexcept;
  // Lifetime counters (survive disarm; reset via reset_counters).
  std::uint64_t probe_count(FaultSite site) const noexcept;
  std::uint64_t injected_count(FaultSite site) const noexcept;
  void reset_counters() noexcept;

 private:
  // Per-site schedule + counters. Mode transitions happen only between
  // probed regions (see the contract above), so relaxed atomics suffice
  // for the counters the probes bump concurrently.
  struct Site {
    enum class Mode : int { kDisarmed = 0, kNth, kProbability };
    Mode mode = Mode::kDisarmed;
    std::uint64_t nth = 0;     // 1-based target probe for kNth
    double probability = 0.0;  // per-probe chance for kProbability
    std::uint64_t seed = 0;    // hash seed for kProbability
    std::atomic<std::uint64_t> probes{0};    // lifetime probe count
    std::atomic<std::uint64_t> armed_at{0};  // probe count when armed
    std::atomic<std::uint64_t> injected{0};  // lifetime fault count
  };

  FaultInjector() = default;
  void probe_slow(FaultSite site);
  void refresh_any_armed() noexcept;

  Site& site(FaultSite s) noexcept {
    return sites_[static_cast<std::size_t>(s)];
  }
  const Site& site(FaultSite s) const noexcept {
    return sites_[static_cast<std::size_t>(s)];
  }

  std::atomic<bool> any_armed_{false};
  Site sites_[kFaultSiteCount];
};

// RAII arming for tests: arms in the constructor, disarms the site (and
// resets nothing else) in the destructor.
class ScopedFault {
 public:
  ScopedFault(FaultSite site, std::uint64_t nth);
  ScopedFault(FaultSite site, double probability, std::uint64_t seed);
  ~ScopedFault();

  ScopedFault(const ScopedFault&) = delete;
  ScopedFault& operator=(const ScopedFault&) = delete;

 private:
  FaultSite site_;
};

}  // namespace solarnet::util
