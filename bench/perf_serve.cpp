// Scenario-server benchmark: the acceptance harness for ScenarioService +
// ResultCache + request coalescing (`solarnet serve`).
//
// main() runs hard validation gates before any timing:
//   1. a served report body is byte-identical to serialize_report_body()
//      over a direct TrialPipeline run with the same observers and seed,
//   2. a served sweep body is byte-identical to serialize_sweep_body()
//      over a direct SweepEngine::uniform run,
//   3. repeating a request is a cache hit returning identical bytes,
//   4. N threads issuing the same cold request coalesce onto exactly ONE
//      engine pass, all receiving identical bodies,
//   5. the steady-state cache-hit path (parse + key build + lookup)
//      performs ZERO heap allocations,
//   6. hit latency is >= 20x faster than the cold path,
//   7. a pooled report engine holds <= 100 KB: 50 report misses that each
//      need a new engine (a fresh uniform p, the shape of perfbench's
//      serve_engine) grow the resident set by at most 100 KB apiece,
//      cached body included, because the engines share their network's
//      repeater layout instead of holding a copy each.
// Any failure exits non-zero, so CI's bench smoke job doubles as a
// served-equals-direct determinism gate. Then it times a Zipf-like
// multi-threaded request mix over a pool of scenarios and emits
// BENCH_serve.json (cold/hit latency, speedup, engine miss time and
// footprint, sustained req/s, hit rate).
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "alloc_counter.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "bench_util.h"
#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "server/request.h"
#include "server/scenario_service.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "util/rng.h"

namespace {

using namespace solarnet;

[[noreturn]] void fail(const char* what) {
  std::fprintf(stderr, "perf_serve gate FAILED: %s\n", what);
  std::exit(1);
}

const topo::InfrastructureNetwork& submarine() {
  static const auto net = datasets::make_submarine_network({});
  return net;
}

const topo::InfrastructureNetwork& intertubes() {
  static const auto net = datasets::make_intertubes_network({});
  return net;
}

const std::vector<datasets::DnsRootInstance>& dns_roots() {
  static const auto roots = datasets::make_dns_dataset({});
  return roots;
}

server::ServiceContext context() {
  server::ServiceContext ctx;
  ctx.submarine = &submarine();
  ctx.intertubes = &intertubes();
  ctx.itu = nullptr;
  ctx.dns_roots = &dns_roots();
  return ctx;
}

// The same replica-set construction the service uses, so the direct run
// evaluates the identical service specs.
services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t quorum) {
  std::vector<geo::GeoPoint> sites;
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    sites.push_back(dc.location);
  }
  return services::service_from_datacenters(
      std::string(datasets::to_string(op)), sites,
      std::max<std::size_t>(1, std::min(quorum, sites.size())));
}

// Direct (no server, no cache) computation of the exact bytes the service
// must serve for a report request.
std::string direct_report_body(const server::ScenarioRequest& req,
                               const std::vector<std::string>& countries) {
  const auto model = req.model == "uniform" ? gic::make_uniform(req.uniform_p)
                     : req.model == "s2"    ? gic::make_s2()
                                            : gic::make_s1();
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = req.spacing_km;
  cfg.engine = req.engine;
  const sim::FailureSimulator simulator(submarine(), cfg);
  sim::TrialPipeline pipeline(simulator, *model);
  sim::ConnectivityObserver conn;
  services::AvailabilityObserver google(
      submarine(),
      datacenter_service(datasets::DataCenterOperator::kGoogle, req.quorum));
  services::AvailabilityObserver facebook(
      submarine(),
      datacenter_service(datasets::DataCenterOperator::kFacebook, req.quorum));
  analysis::DnsResolutionObserver dns(submarine(), dns_roots(),
                                      req.dns_threshold_pct);
  analysis::CountryIsolationObserver isolation(submarine(), countries);
  pipeline.add_observer(conn);
  pipeline.add_observer(google);
  pipeline.add_observer(facebook);
  pipeline.add_observer(dns);
  pipeline.add_observer(isolation);
  pipeline.run(req.trials, req.seed);
  return server::serialize_report_body(req, conn.result(), google.result(),
                                       facebook.result(), dns.result(),
                                       isolation.results());
}

std::string direct_sweep_body(const server::ScenarioRequest& req) {
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = req.spacing_km;
  const sim::FailureSimulator simulator(submarine(), cfg);
  const sim::SweepEngine engine =
      sim::SweepEngine::uniform(simulator, req.grid);
  const sim::SweepResult result = engine.run(req.trials, req.seed, 0);
  return server::serialize_sweep_body(req, result);
}

double now_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// This process's resident set in KB: VmRSS in /proc/self/status, the file
// perfbench reads VmHWM from.
double rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmRSS:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr);
    }
  }
  fail("no VmRSS in /proc/self/status");
}

}  // namespace

int main() {
  server::ServiceOptions options;  // default cache budget, auto threads
  server::ScenarioService service(context(), options);
  server::RequestScratch scratch;

  // --- gate 1: served report == direct report, byte for byte ---------------
  const std::string report_line =
      R"({"cmd":"report","model":"uniform","p":0.01,"trials":64,"seed":11})";
  const double cold_start_ms = now_ms();
  const server::Body served_report = service.handle_line(report_line, scratch);
  const double cold_ms = now_ms() - cold_start_ms;
  {
    server::ScenarioRequest req;
    server::parse_request(report_line, req);
    const std::string direct = direct_report_body(req, core::kReportCountries);
    if (*served_report != direct) {
      fail("served report body differs from direct TrialPipeline bytes");
    }
  }

  // --- gate 2: served sweep == direct sweep, byte for byte -----------------
  const std::string sweep_line =
      R"({"cmd":"sweep","grid":[0.001,0.01,0.1],"trials":32,"seed":5})";
  const server::Body served_sweep = service.handle_line(sweep_line, scratch);
  {
    server::ScenarioRequest req;
    server::parse_request(sweep_line, req);
    if (*served_sweep != direct_sweep_body(req)) {
      fail("served sweep body differs from direct SweepEngine bytes");
    }
  }

  // --- gate 3: repeat request is a cache hit with identical bytes ----------
  {
    const auto before = service.stats();
    const server::Body again = service.handle_line(report_line, scratch);
    const auto after = service.stats();
    if (after.cache_hits != before.cache_hits + 1) {
      fail("repeated request did not hit the cache");
    }
    if (*again != *served_report) fail("cache hit served different bytes");
  }

  // --- gate 4: concurrent identical misses coalesce to one computation -----
  {
    const std::string fresh_line =
        R"({"cmd":"report","model":"uniform","p":0.02,"trials":64,"seed":977})";
    const auto before = service.stats();
    constexpr std::size_t kThreads = 8;
    std::vector<server::Body> bodies(kThreads);
    std::atomic<std::size_t> ready{0};
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        server::RequestScratch local;
        ready.fetch_add(1);
        while (ready.load() < kThreads) {
        }  // crude barrier: maximize overlap
        bodies[t] = service.handle_line(fresh_line, local);
      });
    }
    for (std::thread& t : threads) t.join();
    const auto after = service.stats();
    if (after.computed != before.computed + 1) {
      fail("coalescing: concurrent identical requests ran >1 computation");
    }
    for (const server::Body& body : bodies) {
      if (!body || *body != *bodies[0]) {
        fail("coalescing: waiters received different bodies");
      }
    }
  }

  // --- gate 5: zero steady-state allocations on the hit path ---------------
  constexpr std::size_t kHitIters = 4096;
  for (std::size_t i = 0; i < 64; ++i) {
    (void)service.handle_line(report_line, scratch);  // warm scratch/cache
  }
  const std::size_t allocs_before = g_allocations.load();
  for (std::size_t i = 0; i < kHitIters; ++i) {
    (void)service.handle_line(report_line, scratch);
  }
  const std::size_t hit_allocs = g_allocations.load() - allocs_before;
  if (hit_allocs != 0) {
    std::fprintf(stderr, "hit path allocated %zu times over %zu requests\n",
                 hit_allocs, kHitIters);
    fail("steady-state cache-hit path must be allocation-free");
  }

  // --- gate 6: hit latency >= 20x faster than the cold path ----------------
  const double hit_block_start = now_ms();
  for (std::size_t i = 0; i < kHitIters; ++i) {
    (void)service.handle_line(report_line, scratch);
  }
  const double hit_us =
      (now_ms() - hit_block_start) * 1000.0 / static_cast<double>(kHitIters);
  const double speedup = cold_ms * 1000.0 / hit_us;
  if (speedup < 20.0) {
    std::fprintf(stderr, "cold %.3f ms vs hit %.3f us (%.1fx)\n", cold_ms,
                 hit_us, speedup);
    fail("cache hit must be >= 20x faster than the cold path");
  }

  // --- gate 7: a pooled report engine holds <= 100 KB ----------------------
  // Each miss builds a report engine that stays in the pool and a body that
  // stays in the cache, so the resident-set growth per miss is what one
  // more engine costs a running server.
  constexpr std::size_t kEngineMisses = 50;
  constexpr double kMaxEngineKb = 100.0;
  std::vector<std::string> miss_lines;
  for (std::size_t i = 0; i < kEngineMisses; ++i) {
    miss_lines.push_back(
        "{\"cmd\":\"report\",\"model\":\"uniform\",\"p\":" +
        std::to_string(0.1 + 0.001 * static_cast<double>(i)) +
        ",\"trials\":64,\"seed\":" + std::to_string(3000 + i) + "}");
  }
  std::vector<double> miss_ms;
  miss_ms.reserve(kEngineMisses);
  const auto misses_before = service.stats().computed;
  const double rss_before_kb = rss_kb();
  for (const std::string& line : miss_lines) {
    const double start = now_ms();
    (void)service.handle_line(line, scratch);
    miss_ms.push_back(now_ms() - start);
  }
  const double engine_kb =
      (rss_kb() - rss_before_kb) / static_cast<double>(kEngineMisses);
  if (service.stats().computed != misses_before + kEngineMisses) {
    fail("every engine-miss request must run its own computation");
  }
  std::sort(miss_ms.begin(), miss_ms.end());
  const double engine_miss_ms = miss_ms[kEngineMisses / 2];
  if (engine_kb > kMaxEngineKb) {
    std::fprintf(stderr, "%.1f KB resident per pooled engine (max %.0f)\n",
                 engine_kb, kMaxEngineKb);
    fail("a pooled report engine must hold <= 100 KB");
  }

  // --- throughput: Zipf-like mix over a scenario pool, 4 client threads ----
  // Rank r is requested with weight ~ 1/(r+1) — a few hot scenarios, a
  // long warm tail, the shape a dashboard fanning out over severities
  // produces. All scenarios are pre-warmed so this measures the sustained
  // served-from-cache regime (the occasional recompute would measure the
  // engine, which perf_pipeline already covers).
  constexpr std::size_t kScenarios = 16;
  constexpr std::size_t kClients = 4;
  constexpr std::size_t kPerClient = 8192;
  std::vector<std::string> lines;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    lines.push_back(
        "{\"cmd\":\"report\",\"model\":\"uniform\",\"p\":0.01,\"trials\":32,"
        "\"seed\":" +
        std::to_string(100 + s) + "}");
  }
  for (const std::string& line : lines) {
    (void)service.handle_line(line, scratch);  // pre-warm every scenario
  }
  std::vector<double> cumulative(kScenarios);
  double total_weight = 0.0;
  for (std::size_t s = 0; s < kScenarios; ++s) {
    total_weight += 1.0 / static_cast<double>(s + 1);
    cumulative[s] = total_weight;
  }
  const auto stats_before = service.stats();
  const double mix_start = now_ms();
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      server::RequestScratch local;
      util::SplitMix64 mix(0xbe9cu + c);
      for (std::size_t i = 0; i < kPerClient; ++i) {
        const double u = total_weight *
                         (static_cast<double>(mix.next() >> 11) * 0x1.0p-53);
        std::size_t pick = 0;
        while (pick + 1 < kScenarios && cumulative[pick] < u) ++pick;
        (void)service.handle_line(lines[pick], local);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  const double mix_seconds = (now_ms() - mix_start) / 1000.0;
  const auto stats_after = service.stats();
  const double sustained_rps =
      static_cast<double>(kClients * kPerClient) / mix_seconds;
  const double hit_rate =
      100.0 *
      static_cast<double>(stats_after.cache_hits - stats_before.cache_hits) /
      static_cast<double>(kClients * kPerClient);

  std::printf("perf_serve: all gates passed\n");
  std::printf("  cold request (engine build + %d trials): %9.3f ms\n", 64,
              cold_ms);
  std::printf("  cache hit:                               %9.3f us\n", hit_us);
  std::printf("  hit speedup over cold:                   %9.1f x\n", speedup);
  std::printf("  engine miss (median of %zu):              %9.3f ms\n",
              kEngineMisses, engine_miss_ms);
  std::printf("  resident set per pooled engine:          %9.1f KB\n",
              engine_kb);
  std::printf("  sustained mixed load (%zu threads):       %9.0f req/s\n",
              kClients, sustained_rps);
  std::printf("  mix cache-hit rate:                      %9.2f %%\n",
              hit_rate);
  std::printf("  steady-state hit-path allocations:       %9zu\n", hit_allocs);

  benchutil::write_bench_json(
      "serve",
      {{"cold_request_ms", cold_ms, "ms"},
       {"cache_hit_us", hit_us, "us"},
       {"hit_speedup", speedup, "x"},
       {"engine_miss_ms", engine_miss_ms, "ms"},
       {"engine_kb", engine_kb, "KB"},
       {"sustained_rps", sustained_rps, "req/s"},
       {"mix_hit_rate_pct", hit_rate, "%"},
       {"hit_path_allocations", static_cast<double>(hit_allocs), "count"}});
  return 0;
}
