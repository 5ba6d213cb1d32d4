// ScenarioService tests: served bodies are byte-identical to direct engine
// runs, repeats hit the cache, the engine knob maps onto the same cache
// entry (the engines are bit-identical, so it must), concurrent identical
// misses coalesce onto one computation, and both front ends (stdin stream,
// Unix-domain socket) speak the line protocol end to end.
#include "server/scenario_service.h"

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/outage.h"
#include "datasets/datacenters.h"
#include "datasets/land.h"
#include "datasets/submarine.h"
#include "gic/failure_model.h"
#include "gic/timeline.h"
#include "routing/assignment.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "server/request.h"
#include "server/serve_loop.h"
#include "services/availability.h"
#include "sim/monte_carlo.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"

namespace solarnet::server {
namespace {

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

ServiceContext context() {
  ServiceContext ctx;
  ctx.submarine = &submarine();
  ctx.intertubes = &intertubes();
  ctx.itu = nullptr;
  ctx.dns_roots = &dns_roots();
  return ctx;
}

ScenarioRequest parse(const std::string& line) {
  ScenarioRequest req;
  parse_request(line, req);
  return req;
}

// Small trial budgets keep each computed scenario in the tens of
// milliseconds; every assertion below is about bytes and counters, not
// statistical quality.
const char* kReportLine =
    R"({"cmd":"report","model":"uniform","p":0.3,"trials":8,"seed":3})";
const char* kSweepLine =
    R"({"cmd":"sweep","grid":[0.01,0.5],"trials":8,"seed":4})";

// The same replica-set construction the service uses (quorum clamped to
// the operator's site count), so the direct run evaluates identical specs.
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

std::string direct_report_body(const ScenarioRequest& req,
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
  // Traffic demands mirror core::ReportBundle: sampled matrices use the
  // fixed kServedDemandSeed so pooled engines serve any (trials, seed).
  std::unique_ptr<routing::TrafficEngine> traffic_engine;
  std::unique_ptr<routing::TrafficObserver> traffic_observer;
  if (req.traffic) {
    std::vector<routing::TrafficDemand> demands =
        req.demand_pairs == 0
            ? routing::gravity_demands(submarine())
            : routing::sampled_node_demands(submarine(), req.demand_pairs,
                                            400.0, kServedDemandSeed);
    traffic_engine =
        std::make_unique<routing::TrafficEngine>(submarine(),
                                                 std::move(demands));
    traffic_observer =
        std::make_unique<routing::TrafficObserver>(*traffic_engine);
    pipeline.add_observer(*traffic_observer);
  }
  pipeline.run(req.trials, req.seed);
  return serialize_report_body(
      req, conn.result(), google.result(), facebook.result(), dns.result(),
      isolation.results(),
      traffic_observer ? &traffic_observer->result() : nullptr);
}

TEST(ScenarioService, ServedReportMatchesDirectBytes) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body served = service.handle_line(kReportLine, scratch);
  ASSERT_NE(served, nullptr);
  EXPECT_EQ(*served, direct_report_body(parse(kReportLine),
                                        service.options().countries));
}

TEST(ScenarioService, ServedSweepMatchesDirectBytes) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body served = service.handle_line(kSweepLine, scratch);
  ASSERT_NE(served, nullptr);
  const ScenarioRequest req = parse(kSweepLine);
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = req.spacing_km;
  const sim::FailureSimulator simulator(submarine(), cfg);
  const sim::SweepResult result =
      sim::SweepEngine::uniform(simulator, req.grid).run(req.trials, req.seed,
                                                         0);
  EXPECT_EQ(*served, serialize_sweep_body(req, result));
}

TEST(ScenarioService, EmptyGridSweepUsesDefaultProbabilityGrid) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body served =
      service.handle_line(R"({"cmd":"sweep","trials":4,"seed":1})", scratch);
  ASSERT_NE(served, nullptr);
  // Ten default grid points => ten "p": fields in the body.
  std::size_t points = 0;
  for (std::size_t pos = served->find("\"p\":"); pos != std::string::npos;
       pos = served->find("\"p\":", pos + 1)) {
    ++points;
  }
  EXPECT_EQ(points, 10u);
}

TEST(ScenarioService, RepeatedRequestHitsCacheWithIdenticalBytes) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body first = service.handle_line(kReportLine, scratch);
  const auto before = service.stats();
  const Body second = service.handle_line(kReportLine, scratch);
  const auto after = service.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.computed, before.computed);
  EXPECT_EQ(second, first);  // literally the same shared body
}

TEST(ScenarioService, EngineChoiceSharesTheCacheEntry) {
  // The scalar engine is bit-identical to the batch engine, so a scalar
  // request for an already-cached scenario must be a hit, not a recompute…
  ScenarioService service(context());
  RequestScratch scratch;
  const Body batch = service.handle_line(kReportLine, scratch);
  const std::string scalar_line =
      R"({"cmd":"report","model":"uniform","p":0.3,"trials":8,"seed":3,)"
      R"("engine":"scalar"})";
  const auto before = service.stats();
  const Body via_cache = service.handle_line(scalar_line, scratch);
  EXPECT_EQ(service.stats().computed, before.computed);
  EXPECT_EQ(via_cache, batch);
  // …and that shortcut is honest: a cold service forced down the scalar
  // path produces the same bytes the batch path cached.
  ScenarioService cold(context());
  RequestScratch cold_scratch;
  const Body recomputed = cold.handle_line(scalar_line, cold_scratch);
  ASSERT_NE(recomputed, nullptr);
  EXPECT_EQ(*recomputed, *batch);
}

TEST(ScenarioService, DifferentSeedsProduceDifferentEntries) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body a = service.handle_line(kReportLine, scratch);
  const Body b = service.handle_line(
      R"({"cmd":"report","model":"uniform","p":0.3,"trials":8,"seed":5})",
      scratch);
  EXPECT_EQ(service.stats().computed, 2u);
  EXPECT_NE(*a, *b);
}

TEST(ScenarioService, StatsAndShutdownCommands) {
  ScenarioService service(context());
  RequestScratch scratch;
  (void)service.handle_line(kReportLine, scratch);
  const Body stats = service.handle_line(R"({"cmd":"stats"})", scratch);
  ASSERT_NE(stats, nullptr);
  EXPECT_NE(stats->find("\"requests\":2"), std::string::npos) << *stats;
  EXPECT_NE(stats->find("\"computed\":1"), std::string::npos) << *stats;
  EXPECT_FALSE(service.shutdown_requested());
  const Body bye = service.handle_line(R"({"cmd":"shutdown"})", scratch);
  ASSERT_NE(bye, nullptr);
  EXPECT_NE(bye->find("\"ok\":true"), std::string::npos);
  EXPECT_TRUE(service.shutdown_requested());
}

TEST(ScenarioService, BadRequestsBecomeErrorBodiesNotThrows) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body parse_error = service.handle_line("not json", scratch);
  ASSERT_NE(parse_error, nullptr);
  EXPECT_NE(parse_error->find("\"ok\":false"), std::string::npos);
  const Body bad_field =
      service.handle_line(R"({"trials":0})", scratch);
  ASSERT_NE(bad_field, nullptr);
  EXPECT_NE(bad_field->find("\"ok\":false"), std::string::npos);
  EXPECT_NE(bad_field->find("trials"), std::string::npos);
  // itu was not loaded into this service's context.
  const Body no_itu =
      service.handle_line(R"({"network":"itu","trials":4})", scratch);
  ASSERT_NE(no_itu, nullptr);
  EXPECT_NE(no_itu->find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(service.stats().errors, 3u);
  // An errored request never pollutes the cache.
  EXPECT_EQ(service.stats().cache.entries, 0u);
}

TEST(ScenarioService, ConcurrentIdenticalMissesCoalesce) {
  ScenarioService service(context());
  constexpr std::size_t kThreads = 4;
  std::atomic<std::size_t> ready{0};
  std::vector<Body> bodies(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      RequestScratch scratch;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      bodies[t] = service.handle_line(kReportLine, scratch);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(service.stats().computed, 1u);
  for (const Body& body : bodies) {
    ASSERT_NE(body, nullptr);
    EXPECT_EQ(*body, *bodies[0]);
  }
}

TEST(ScenarioService, StatsReconcileUnderConcurrentBursts) {
  // Threads ask the same run of cheap scenarios in lock step, twice over:
  // each scenario is a burst of identical misses racing its leader's cache
  // insert, so some callers miss the cache, then find the body under the
  // in-flight lock (a late hit). Whatever the interleaving, every request
  // lands in exactly one counter:
  //   requests     == cache_hits + cache_misses + control commands
  //   cache_misses == computed + coalesced
  ScenarioService service(context());
  std::vector<std::string> lines = {kReportLine, kSweepLine};
  // One-trial, one-point intertubes sweeps compute in microseconds, about
  // as long as a waiter takes to wake, which makes late hits common.
  for (int seed = 0; seed < 400; ++seed) {
    lines.push_back(
        R"({"cmd":"sweep","network":"intertubes","grid":[0.5],"trials":1,)"
        R"("seed":)" +
        std::to_string(seed) + "}");
  }
  constexpr std::size_t kThreads = 6;
  constexpr std::size_t kRepeats = 2;
  std::atomic<std::size_t> ready{0};
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      RequestScratch scratch;
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      for (std::size_t r = 0; r < kRepeats; ++r) {
        for (const std::string& line : lines) {
          const Body body = service.handle_line(line, scratch);
          EXPECT_NE(body->find("\"ok\":true"), std::string::npos) << *body;
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  RequestScratch scratch;
  (void)service.handle_line(R"({"cmd":"stats"})", scratch);

  const ScenarioService::Stats s = service.stats();
  const std::uint64_t control_commands = 1;
  EXPECT_EQ(s.errors, 0u);
  EXPECT_EQ(s.requests, kThreads * kRepeats * lines.size() + control_commands);
  EXPECT_EQ(s.requests, s.cache_hits + s.cache_misses + control_commands);
  EXPECT_EQ(s.cache_misses, s.computed + s.coalesced);
  EXPECT_EQ(s.computed, lines.size());
}

TEST(ScenarioService, StdinFrontEndServesLinesUntilShutdown) {
  ScenarioService service(context());
  std::istringstream in(std::string(kReportLine) + "\n" + kReportLine +
                        "\n{\"cmd\":\"stats\"}\n{\"cmd\":\"shutdown\"}\n" +
                        "{\"cmd\":\"stats\"}\n");  // never reached
  std::ostringstream out;
  const std::size_t handled = serve_stdin(service, in, out);
  EXPECT_EQ(handled, 4u);
  EXPECT_TRUE(service.shutdown_requested());
  std::vector<std::string> lines;
  std::istringstream responses(out.str());
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_EQ(lines[0], lines[1]);  // second report served from cache
  EXPECT_NE(lines[2].find("\"cache_hits\":1"), std::string::npos) << lines[2];
  EXPECT_NE(lines[3].find("\"ok\":true"), std::string::npos);
}

TEST(ScenarioService, UnixSocketFrontEndServesEndToEnd) {
  ScenarioService service(context());
  const std::string path = testing::TempDir() + "solarnet_serve_test.sock";
  std::thread server([&] { serve_unix_socket(service, path); });

  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  // The listener comes up asynchronously; retry connect briefly.
  int connected = -1;
  for (int attempt = 0; attempt < 200 && connected != 0; ++attempt) {
    connected = ::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof(addr));
    if (connected != 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  }
  ASSERT_EQ(connected, 0) << "could not connect to " << path;

  const std::string payload =
      std::string(kReportLine) + "\n{\"cmd\":\"shutdown\"}\n";
  ASSERT_EQ(::send(fd, payload.data(), payload.size(), 0),
            static_cast<ssize_t>(payload.size()));
  std::string received;
  char buf[4096];
  for (ssize_t n; (n = ::recv(fd, buf, sizeof(buf), 0)) > 0;) {
    received.append(buf, static_cast<std::size_t>(n));
  }
  ::close(fd);
  server.join();

  std::vector<std::string> lines;
  std::istringstream responses(received);
  for (std::string line; std::getline(responses, line);) {
    lines.push_back(line);
  }
  ASSERT_EQ(lines.size(), 2u) << received;
  EXPECT_NE(lines[0].find("\"ok\":true"), std::string::npos) << lines[0];
  EXPECT_NE(lines[1].find("\"ok\":true"), std::string::npos) << lines[1];
  EXPECT_TRUE(service.shutdown_requested());
  // Served bytes over the socket match the in-process answer.
  RequestScratch scratch;
  ScenarioService direct(context());
  EXPECT_EQ(lines[0], *direct.handle_line(kReportLine, scratch));
}

TEST(ScenarioService, ServedTrafficReportMatchesDirectBytes) {
  // The traffic knob routes the served report through a TrafficEngine +
  // TrafficObserver pair; both the gravity matrix (demand_pairs omitted)
  // and a sampled matrix must serve bytes identical to a direct run.
  ScenarioService service(context());
  RequestScratch scratch;
  const std::string gravity_line =
      R"({"cmd":"report","model":"uniform","p":0.3,"trials":8,"seed":3,)"
      R"("traffic":1})";
  const Body gravity = service.handle_line(gravity_line, scratch);
  ASSERT_NE(gravity, nullptr);
  EXPECT_NE(gravity->find("\"traffic\":{"), std::string::npos) << *gravity;
  EXPECT_EQ(*gravity, direct_report_body(parse(gravity_line),
                                         service.options().countries));

  const std::string sampled_line =
      R"({"cmd":"report","model":"uniform","p":0.3,"trials":8,"seed":3,)"
      R"("traffic":1,"demand_pairs":64})";
  const Body sampled = service.handle_line(sampled_line, scratch);
  ASSERT_NE(sampled, nullptr);
  EXPECT_NE(sampled->find("\"demand_pairs\":64"), std::string::npos)
      << *sampled;
  EXPECT_EQ(*sampled, direct_report_body(parse(sampled_line),
                                         service.options().countries));

  // Three distinct scenarios: plain, gravity-traffic, sampled-traffic.
  const Body plain = service.handle_line(kReportLine, scratch);
  EXPECT_EQ(service.stats().computed, 3u);
  EXPECT_NE(*plain, *gravity);
  EXPECT_NE(*gravity, *sampled);
}

std::string direct_timeline_body(const ScenarioRequest& req,
                                 const std::vector<std::string>& countries) {
  // Mirrors TimelineEngineEntry + timeline_config_for: the default storm
  // phase profile sampled on the requested step, repair grid and fleet
  // from the request, connectivity + per-country outage observers.
  const auto model = req.model == "uniform" ? gic::make_uniform(req.uniform_p)
                     : req.model == "s2"    ? gic::make_s2()
                                            : gic::make_s1();
  sim::TrialConfig cfg;
  cfg.repeater_spacing_km = req.spacing_km;
  cfg.engine = req.engine;
  const sim::FailureSimulator simulator(submarine(), cfg);
  sim::TimelineConfig config = sim::TimelineConfig::from_profile(
      gic::StormPhaseProfile{}, req.timeline_step_hours);
  config.repair_steps = req.repair_steps;
  config.repair_step_hours = req.repair_step_days * 24.0;
  config.fleet.cable_ships = req.ships;
  sim::TimelineEngine engine(simulator,
                             simulator.death_probability_table(*model),
                             config);
  sim::TimelineConnectivityObserver conn(req.partition_threshold_pct);
  analysis::CountryOutageObserver outage(submarine(), countries);
  engine.add_observer(conn);
  engine.add_observer(outage);
  engine.run(req.trials, req.seed, 0);
  return serialize_timeline_body(req, engine, conn.result(),
                                 outage.results());
}

const char* kTimelineLine =
    R"({"cmd":"timeline","model":"uniform","p":0.3,"trials":8,"seed":3,)"
    R"("step_hours":12,"repair_steps":8,"repair_step_days":10,"ships":40,)"
    R"("partition_threshold":50})";

TEST(ScenarioService, ServedTimelineMatchesDirectBytes) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body served = service.handle_line(kTimelineLine, scratch);
  ASSERT_NE(served, nullptr);
  EXPECT_NE(served->find("\"ok\":true"), std::string::npos) << *served;
  EXPECT_NE(served->find("\"steps\":["), std::string::npos);
  EXPECT_NE(served->find("\"partition\":{"), std::string::npos);
  EXPECT_NE(served->find("\"outage\":["), std::string::npos);
  EXPECT_EQ(*served, direct_timeline_body(parse(kTimelineLine),
                                          service.options().countries));
}

TEST(ScenarioService, RepeatedTimelineRequestHitsCacheWithSharedBody) {
  ScenarioService service(context());
  RequestScratch scratch;
  const Body first = service.handle_line(kTimelineLine, scratch);
  const auto before = service.stats();
  const Body second = service.handle_line(kTimelineLine, scratch);
  const auto after = service.stats();
  EXPECT_EQ(after.cache_hits, before.cache_hits + 1);
  EXPECT_EQ(after.computed, before.computed);
  EXPECT_EQ(second, first);  // literally the same shared body

  // A different seed reuses the pooled engine but is a distinct scenario.
  const std::string reseeded =
      R"({"cmd":"timeline","model":"uniform","p":0.3,"trials":8,"seed":9,)"
      R"("step_hours":12,"repair_steps":8,"repair_step_days":10,"ships":40,)"
      R"("partition_threshold":50})";
  const Body other = service.handle_line(reseeded, scratch);
  ASSERT_NE(other, nullptr);
  EXPECT_EQ(service.stats().computed, after.computed + 1);
  EXPECT_NE(*other, *first);
  EXPECT_EQ(*other, direct_timeline_body(parse(reseeded),
                                         service.options().countries));
}

TEST(ScenarioService, RejectsNullContext) {
  ServiceContext ctx = context();
  ctx.submarine = nullptr;
  EXPECT_THROW(ScenarioService{ctx}, std::invalid_argument);
}

}  // namespace
}  // namespace solarnet::server
