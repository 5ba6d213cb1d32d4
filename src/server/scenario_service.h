// ScenarioService: the resident scenario engine behind `solarnet serve`.
//
// A CLI invocation of `solarnet report` pays the full cold path on every
// call: generate the World, lay out repeaters, resolve the service/DNS
// evaluators, build the CSR — all to answer one question. The service
// inverts that: the expensive immutable state (the three networks with
// their cached CSRs, the DNS root set, per-scenario simulator + pipeline +
// observer bundles) is built once and stays resident, and each request is
// answered by the cheapest sufficient path:
//
//   1. Result cache. The request's canonical key (server/request.h) is
//      looked up in a content-addressed ResultCache; a hit returns the
//      stored body — bit-identical to recomputation by the determinism
//      contract — in microseconds, allocation-free.
//   2. Coalescing. Concurrent identical misses collapse onto one
//      computation: the first becomes the leader, computes, inserts into
//      the cache and fans the body out to every waiter through a
//      shared_future. N clients asking the same cold question cost one
//      TrialPipeline pass, not N.
//   3. Engine pool. A genuine miss leases a resident engine bundle from
//      one EnginePool, keyed by everything except (trials, seed) — so
//      re-asking a scenario with a bigger trial budget or a different seed
//      reuses the repeater layout, death-probability table and resolved
//      evaluators and pays only the trial loop. The pooled bundles are the
//      CLI's own (core/scenario.h), so both compute the same statistics.
//
// Served bodies are produced by the serialize_*_body free functions below,
// which tests and benches also call directly on the results of plain
// TrialPipeline / SweepEngine runs: served bytes == direct bytes is an
// asserted gate (bench/perf_serve.cpp), not an aspiration.
//
// Thread safety: handle_line/handle are safe to call concurrently from any
// number of threads (the unix-socket front end is thread-per-connection).
// Each caller owns a RequestScratch; everything shared is behind the
// cache's shard locks, the in-flight mutex, or the pool mutex.
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/outage.h"
#include "core/scenario.h"
#include "datasets/infra_points.h"
#include "routing/traffic_observer.h"
#include "server/engine_pool.h"
#include "server/request.h"
#include "server/result_cache.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "topology/network.h"
#include "util/checkpoint.h"

namespace solarnet::server {

// The immutable world state a service serves from. All pointers non-owning
// (itu may be null — requests for it then fail cleanly); everything must
// outlive the service.
struct ServiceContext {
  const topo::InfrastructureNetwork* submarine = nullptr;
  const topo::InfrastructureNetwork* intertubes = nullptr;
  const topo::InfrastructureNetwork* itu = nullptr;  // optional
  const std::vector<datasets::DnsRootInstance>* dns_roots = nullptr;

  static ServiceContext from_world(const core::World& world);
};

struct ServiceOptions {
  ResultCache::Options cache;
  // Worker threads per computed request (TrialConfig::threads semantics;
  // results are thread-count invariant, so this is not part of any key).
  std::size_t threads = 0;
};

// A served response body. Immutable and shared: the cache, in-flight
// waiters and the caller all hold references to the same bytes.
using Body = std::shared_ptr<const std::string>;

// Per-caller scratch; reusing one across requests makes the hit path
// allocation-free once warm.
struct RequestScratch {
  ScenarioRequest request;
  util::ByteWriter cache_key;
  util::ByteWriter engine_key;
};

// --- deterministic body serializers ----------------------------------------
// The exact bytes the service serves, reproducible from direct engine runs.
// Doubles are printed as shortest round-trip-exact decimals ("%.17g"-class
// precision via to_chars), so byte-identical text <=> bit-identical values.
// `traffic` is null unless the request asked for the traffic section.
std::string serialize_report_body(
    const ScenarioRequest& req, const sim::ConnectivityObserver::Result& conn,
    const services::AvailabilitySweep& google,
    const services::AvailabilitySweep& facebook,
    const analysis::DnsResolutionSweep& dns,
    const std::vector<analysis::CountryIsolationResult>& isolation,
    const routing::TrafficSweep* traffic = nullptr);
std::string serialize_sweep_body(const ScenarioRequest& req,
                                 const sim::SweepResult& result);
std::string serialize_timeline_body(
    const ScenarioRequest& req, const sim::TimelineEngine& engine,
    const sim::TimelineConnectivityResult& conn,
    const std::vector<analysis::CountryOutageResult>& outage);
std::string serialize_error_body(std::string_view message);

// The demand seed served sampled-demand matrices are built with: the
// report bundle's fixed core::kDemandSeed, deliberately NOT the request
// seed — engine-pool keys exclude (trials, seed), so a pooled traffic
// bundle must serve any seed, and the cache key must keep meaning
// "bit-identical body".
inline constexpr std::uint64_t kServedDemandSeed = core::kDemandSeed;

class ScenarioService {
 public:
  // requests = cache_hits + cache_misses + control commands + requests
  // rejected before the lookup; cache_misses = computed + coalesced + fails.
  struct Stats {
    std::uint64_t requests = 0;
    std::uint64_t cache_hits = 0;
    std::uint64_t cache_misses = 0;
    std::uint64_t coalesced = 0;  // waited on another caller's computation
    std::uint64_t computed = 0;   // full engine passes actually run
    std::uint64_t errors = 0;
    ResultCache::Stats cache;
  };

  // Throws std::invalid_argument when a required context pointer is null.
  ScenarioService(ServiceContext context, ServiceOptions options = {});
  ~ScenarioService();  // out of line: the engine bundles are incomplete here

  ScenarioService(const ScenarioService&) = delete;
  ScenarioService& operator=(const ScenarioService&) = delete;

  // Parses one request line and answers it. Never throws: malformed or
  // invalid requests produce an {"ok":false,...} body (and count as
  // errors). Bodies have no trailing newline; framing is the front end's
  // job.
  Body handle_line(std::string_view line, RequestScratch& scratch);

  // Answers an already-parsed request (the path bench determinism checks
  // drive directly). Throws util::Error / std::invalid_argument on
  // failures, e.g. an itu request without an ITU network.
  Body handle(const ScenarioRequest& request, RequestScratch& scratch);

  // Set by a shutdown request; front ends poll it between lines.
  bool shutdown_requested() const noexcept {
    return shutdown_.load(std::memory_order_acquire);
  }

  Stats stats() const;

 private:
  // A resident engine bundle, built for one engine key and rerun by every
  // request with that key; run() computes the request's body. The kinds:
  // the request's model plus a core::ReportBundle, and the other bundles.
  struct Engine;
  struct ReportEngine;
  template <typename Bundle> struct BundleEngine;

  struct InFlight {
    std::shared_ptr<std::promise<Body>> promise;
    std::shared_future<Body> future;
  };

  const topo::InfrastructureNetwork& network_for(const ScenarioRequest& req,
                                                 std::uint64_t* fp) const;
  Body cached_or_compute(const ScenarioRequest& req,
                         const topo::InfrastructureNetwork& net,
                         std::uint64_t fp, RequestScratch& scratch);
  // Leases the engine for `engine_key` (building it on first use) and runs
  // the request on it.
  Body compute(const ScenarioRequest& req,
               const topo::InfrastructureNetwork& net,
               std::string_view engine_key);
  Body stats_body() const;

  ServiceContext context_;
  ServiceOptions options_;
  // Content fingerprints of the served networks, computed once.
  std::uint64_t submarine_fp_ = 0;
  std::uint64_t intertubes_fp_ = 0;
  std::uint64_t itu_fp_ = 0;
  // Digest of the fixed observer configuration (core::kReportCountries,
  // operators, DNS root set, body format version); part of every key.
  std::uint64_t observer_salt_ = 0;

  ResultCache cache_;

  std::mutex inflight_mutex_;
  std::unordered_map<std::string, InFlight> inflight_;

  // Report, sweep and timeline bundles alike; engine keys fold the request
  // kind, so bundles of different kinds never share a key.
  EnginePool<Engine> pool_;

  std::atomic<bool> shutdown_{false};

  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
  std::atomic<std::uint64_t> coalesced_{0};
  std::atomic<std::uint64_t> computed_{0};
  std::atomic<std::uint64_t> errors_{0};
};

}  // namespace solarnet::server
