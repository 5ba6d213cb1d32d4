// The traced replay: a workload's operations re-run in process, with spans
// around the calls into each module's public functions.
//
//   solarbench trace <workload> <plan> <seconds> <threads> <out>
//
// Every operation runs twice, once traced and once untraced, in alternating
// order, so the difference of the two root times is the tracing overhead.
// Operations repeat from the plan until `seconds` have passed since set-up
// ended, and at least four of them run. After them,
// probes time single layers in isolation (per-trial observer increments,
// components, repair scheduling, world and dataset generation).
//
// The replay mirrors what the program does for the same input: report_cli
// follows `solarnet report` (core::ScenarioRunner::run), the served
// workloads follow the server's miss and hit paths (ScenarioService). The
// replayed bodies are checked against the program's own: report_cli prints
// a digest run.py compares with the CLI's stdout, and the served workloads
// compare the first body of each kind with an in-process ScenarioService.
//
// Output lines (all times in ns unless the name says otherwise):
//   P <traced> <id> <parent> <op> <t0> <t1> <name>   a span
//   S <name> <value>                                  a probe sample
//   C <name> <0|1>                                    a check
//   H <op> <fnv1a hex>                                a replayed body digest
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <set>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analysis/connectivity.h"
#include "analysis/country.h"
#include "analysis/dns_resolution.h"
#include "analysis/lengths.h"
#include "analysis/outage.h"
#include "analysis/report.h"
#include "analysis/systems.h"
#include "core/world.h"
#include "datasets/datacenters.h"
#include "datasets/infra_points.h"
#include "datasets/land.h"
#include "datasets/population.h"
#include "datasets/routers.h"
#include "datasets/submarine.h"
#include "gic/efield.h"
#include "gic/failure_model.h"
#include "gic/storm.h"
#include "gic/timeline.h"
#include "graph/components.h"
#include "plan.h"
#include "recovery/repair.h"
#include "routing/demand.h"
#include "routing/traffic_observer.h"
#include "server/request.h"
#include "server/result_cache.h"
#include "server/scenario_service.h"
#include "services/availability.h"
#include "sim/pipeline.h"
#include "sim/sweep.h"
#include "sim/timeline_engine.h"
#include "spans.h"
#include "util/bitset.h"
#include "util/checkpoint.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using namespace solarnet;

// Runs f() inside a span and returns its result.
template <typename F>
auto timed(Tracer& t, const char* name, std::uint32_t op, F&& f) {
  Span span(t, name, op);
  return f();
}

class Recorder {
 public:
  Tracer tracer;

  void sample(const std::string& name, double value) {
    lines_ << "S " << name << ' ' << value << '\n';
  }
  void check(const std::string& name, bool ok) {
    lines_ << "C " << name << ' ' << (ok ? 1 : 0) << '\n';
  }
  void digest(std::uint32_t op, const std::string& body) {
    char hex[17];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fnv1a(body)));
    lines_ << "H " << op << ' ' << hex << '\n';
  }
  void write(const std::string& path) const {
    std::ofstream out(path);
    tracer.write(out);
    out << lines_.str();
    if (!out) throw std::runtime_error("cannot write " + path);
  }

 private:
  std::ostringstream lines_;
};

// Runs one operation twice, traced and untraced, alternating which goes
// first so neither pass always finds warm caches.
template <typename F>
void paired(Recorder& rec, std::uint32_t op, F&& f) {
  const bool traced_first = op % 2 == 1;
  for (int pass = 0; pass < 2; ++pass) {
    rec.tracer.set_tracing(pass == 0 ? traced_first : !traced_first);
    f();
  }
  rec.tracer.set_tracing(false);
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }
double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

// Times f() without a span (probes); returns ns.
template <typename F>
std::int64_t clock_ns(F&& f) {
  const std::int64_t t0 = now_ns();
  f();
  return now_ns() - t0;
}

const std::vector<std::string>& report_countries() {
  static const std::vector<std::string> countries = {
      "US", "GB", "CN", "IN", "SG", "ZA", "AU", "NZ", "BR"};
  return countries;
}

// As core/scenario.cpp and server/scenario_service.cpp build it.
services::ServiceSpec datacenter_service(datasets::DataCenterOperator op,
                                         std::size_t write_quorum) {
  std::vector<geo::GeoPoint> sites;
  for (const datasets::DataCenter& dc : datasets::datacenters_of(op)) {
    sites.push_back(dc.location);
  }
  return services::service_from_datacenters(
      std::string(datasets::to_string(op)), sites,
      std::max<std::size_t>(1, std::min(write_quorum, sites.size())));
}

// --- report_cli: `solarnet report` -----------------------------------------

struct CliOp {
  std::string model;  // s1 | s2 | uniform | storm
  std::string arg;    // uniform p or storm name; "-" otherwise
  std::uint64_t seed = 0;
  std::size_t trials = 0;
};

CliOp parse_cli_op(const std::string& payload) {
  std::istringstream in(payload);
  CliOp op;
  in >> op.model >> op.arg >> op.seed >> op.trials;
  if (!in || op.trials == 0) {
    throw std::runtime_error("malformed report_cli op: " + payload);
  }
  return op;
}

std::unique_ptr<gic::RepeaterFailureModel> cli_model(const CliOp& op) {
  if (op.model == "s1") return gic::make_s1();
  if (op.model == "s2") return gic::make_s2();
  if (op.model == "uniform") return gic::make_uniform(std::stod(op.arg));
  if (op.model == "storm" && op.arg == "carrington") {
    return std::make_unique<gic::FieldDrivenFailureModel>(
        gic::GeoelectricFieldModel(gic::carrington_1859()));
  }
  throw std::runtime_error("unknown report_cli model: " + op.model);
}

std::string cli_title(const CliOp& op,
                      const gic::RepeaterFailureModel& model) {
  if (op.model == "storm") {
    return "solarnet resilience report — storm " + gic::carrington_1859().name +
           " (field-driven)";
  }
  return "solarnet resilience report — model " + model.name();
}

analysis::BandSweepResult band_result(
    const sim::ConnectivityObserver::Result& r, const std::string& model_name,
    double spacing_km, const char* tag) {
  return {model_name + tag,
          spacing_km,
          r.cables_failed_pct.mean(),
          r.cables_failed_pct.sample_stddev(),
          r.nodes_unreachable_pct.mean(),
          r.nodes_unreachable_pct.sample_stddev()};
}

// One `solarnet report` run: World::generate's datasets, then
// ScenarioRunner::run, then render. Returns the report text.
std::string replay_report_cli(Recorder& rec, std::uint32_t op,
                              const CliOp& c, std::size_t threads) {
  Tracer& t = rec.tracer;
  Span root(t, "op.report_cli", op, /*root=*/true);
  const topo::InfrastructureNetwork sub = timed(t, "datasets.submarine_ms", op, [] {
    return datasets::make_submarine_network({});
  });
  const topo::InfrastructureNetwork tubes =
      timed(t, "datasets.intertubes_ms", op,
            [] { return datasets::make_intertubes_network({}); });
  const topo::InfrastructureNetwork itu = timed(
      t, "datasets.itu_ms", op, [] { return datasets::make_itu_network({}); });
  const datasets::RouterDataset routers = timed(
      t, "datasets.routers_ms", op, [] { return datasets::make_router_dataset({}); });
  const std::vector<datasets::InfraPoint> ixps = timed(
      t, "datasets.ixps_ms", op, [] { return datasets::make_ixp_dataset({}); });
  const std::vector<datasets::DnsRootInstance> roots = timed(
      t, "datasets.dns_ms", op, [] { return datasets::make_dns_dataset({}); });
  const geo::LatLonGrid population = timed(
      t, "datasets.population_ms", op,
      [] { return datasets::make_population_grid({}); });

  const std::unique_ptr<gic::RepeaterFailureModel> model =
      timed(t, "gic.model_build_ms", op, [&] { return cli_model(c); });
  const double spacing = 150.0;
  analysis::ResilienceReport report;
  report.title = cli_title(c, *model);
  timed(t, "analysis.lengths_ms", op, [&] {
    for (const topo::InfrastructureNetwork* net : {&sub, &tubes, &itu}) {
      report.length_summaries.push_back(
          analysis::summarize_lengths(*net, spacing));
    }
  });

  sim::TrialConfig config;
  config.repeater_spacing_km = spacing;
  config.threads = threads;
  {
    const sim::FailureSimulator simulator =
        timed(t, "topology.simulator_build_ms.submarine", op,
              [&] { return sim::FailureSimulator(sub, config); });
    sim::TrialPipeline pipeline = timed(t, "sim.pipeline_build_ms", op, [&] {
      return sim::TrialPipeline(simulator, *model);
    });
    sim::ConnectivityObserver connectivity;
    services::AvailabilityObserver google =
        timed(t, "services.availability_build_ms", op, [&] {
          return services::AvailabilityObserver(
              sub, datacenter_service(datasets::DataCenterOperator::kGoogle, 2));
        });
    services::AvailabilityObserver facebook =
        timed(t, "services.availability_build_ms", op, [&] {
          return services::AvailabilityObserver(
              sub,
              datacenter_service(datasets::DataCenterOperator::kFacebook, 2));
        });
    analysis::DnsResolutionObserver dns =
        timed(t, "analysis.dns_build_ms", op, [&] {
          return analysis::DnsResolutionObserver(sub, roots, 10.0);
        });
    analysis::CountryIsolationObserver isolation =
        timed(t, "analysis.country_build_ms", op, [&] {
          return analysis::CountryIsolationObserver(sub, report_countries());
        });
    pipeline.add_observer(connectivity);
    pipeline.add_observer(google);
    pipeline.add_observer(facebook);
    pipeline.add_observer(dns);
    pipeline.add_observer(isolation);
    timed(t, "sim.pipeline_run_ms", op,
          [&] { pipeline.run(c.trials, c.seed); });

    report.failure_results.push_back(band_result(
        connectivity.result(), model->name(), spacing, " [submarine]"));
    report.service_availability.push_back(google.result());
    report.service_availability.push_back(facebook.result());
    report.dns_resolution = dns.result();
    report.has_dns_resolution = true;
    report.country_isolation = isolation.results();
    timed(t, "analysis.country_connectivity_ms", op, [&] {
      for (const std::string& country : report_countries()) {
        report.countries.push_back(
            analysis::country_connectivity(sub, simulator, *model, country));
      }
    });
  }

  // Land networks: connectivity-only passes at the CLI's seed offsets.
  const auto land_pass = [&](const topo::InfrastructureNetwork& net,
                             std::uint64_t seed, const char* build_span,
                             const char* pass_span, const char* tag) {
    const sim::FailureSimulator simulator = timed(
        t, build_span, op, [&] { return sim::FailureSimulator(net, config); });
    timed(t, pass_span, op, [&] {
      sim::TrialPipeline pipeline(simulator, *model);
      sim::ConnectivityObserver connectivity;
      pipeline.add_observer(connectivity);
      pipeline.run(c.trials, seed);
      report.failure_results.push_back(
          band_result(connectivity.result(), model->name(), spacing, tag));
    });
  };
  land_pass(tubes, c.seed + 1, "topology.simulator_build_ms.intertubes",
            "sim.land_pass_ms.intertubes", " [intertubes]");
  land_pass(itu, c.seed + 2, "topology.simulator_build_ms.itu",
            "sim.land_pass_ms.itu", " [itu]");

  timed(t, "analysis.summaries_ms", op, [&] {
    report.datacenter_footprints.push_back(
        analysis::summarize_datacenters(datasets::DataCenterOperator::kGoogle));
    report.datacenter_footprints.push_back(analysis::summarize_datacenters(
        datasets::DataCenterOperator::kFacebook));
    report.dns = analysis::summarize_dns(roots);
    report.has_dns = true;
  });
  std::string text =
      timed(t, "analysis.render_ms", op, [&] { return report.render(); });
  root.end();

  if (t.tracing()) {
    // The model's death table on the submarine layout, in isolation.
    const sim::FailureSimulator simulator(sub, config);
    const std::int64_t ns =
        clock_ns([&] { (void)simulator.death_probability_table(*model); });
    rec.sample("gic.death_table_ms." + c.model, ms(ns));
  }
  return text;
}

// --- served workloads: the server's miss and hit paths ----------------------

std::unique_ptr<gic::RepeaterFailureModel> request_model(
    const server::ScenarioRequest& req) {
  if (req.model == "uniform") return gic::make_uniform(req.uniform_p);
  if (req.model == "s2") return gic::make_s2();
  return gic::make_s1();
}

sim::TrialConfig request_config(const server::ScenarioRequest& req,
                                std::size_t threads) {
  sim::TrialConfig config;
  config.repeater_spacing_km = req.spacing_km;
  config.threads = threads;
  config.engine = req.engine;
  return config;
}

const char* simulator_span(const std::string& network) {
  if (network == "intertubes") return "topology.simulator_build_ms.intertubes";
  if (network == "itu") return "topology.simulator_build_ms.itu";
  return "topology.simulator_build_ms.submarine";
}

// The server's resident bundles (ScenarioService::ReportEngine and
// friends), built step by step so each constructor gets its own span.
struct ReportBundle {
  std::unique_ptr<gic::RepeaterFailureModel> model;
  std::unique_ptr<sim::FailureSimulator> simulator;
  std::unique_ptr<sim::TrialPipeline> pipeline;
  sim::ConnectivityObserver connectivity;
  std::unique_ptr<services::AvailabilityObserver> google;
  std::unique_ptr<services::AvailabilityObserver> facebook;
  std::unique_ptr<analysis::DnsResolutionObserver> dns;
  std::unique_ptr<analysis::CountryIsolationObserver> isolation;
  std::unique_ptr<routing::TrafficEngine> traffic_engine;
  std::unique_ptr<routing::TrafficObserver> traffic_observer;
};

struct SweepBundle {
  std::unique_ptr<sim::FailureSimulator> simulator;
  std::vector<double> grid;
  std::unique_ptr<sim::SweepEngine> engine;
};

struct TimelineBundle {
  std::unique_ptr<gic::RepeaterFailureModel> model;
  std::unique_ptr<sim::FailureSimulator> simulator;
  std::unique_ptr<sim::TimelineEngine> engine;
  std::unique_ptr<sim::TimelineConnectivityObserver> connectivity;
  std::unique_ptr<analysis::CountryOutageObserver> outage;
};

class ServedReplay {
 public:
  ServedReplay(Recorder& rec, const core::World& world, std::size_t threads)
      : rec_(rec), world_(world), threads_(threads) {
    server::ServiceOptions options;
    options.threads = threads;
    service_ = std::make_unique<server::ScenarioService>(
        server::ServiceContext::from_world(world), options);
  }

  // A request that misses the result cache. With `fresh_engine` the bundle
  // is built inside the operation and dropped after it (an engine miss);
  // otherwise it comes from the pool, built on first use.
  std::string miss(std::uint32_t op, const std::string& line,
                   bool fresh_engine) {
    Tracer& t = rec_.tracer;
    Span root(t, "op.miss", op, /*root=*/true);
    server::ScenarioRequest& req = request_;
    timed(t, "server.parse_us", op,
          [&] { server::parse_request(line, req); });
    const topo::InfrastructureNetwork& net = network(req);
    timed(t, "server.key_us", op, [&] {
      server::build_cache_key(req, net.content_fingerprint(), kSalt, key_);
    });
    timed(t, "server.lookup_us", op,
          [&] { return cache_.lookup(std::string_view(key_.data())); });
    const std::string engine_key = timed(t, "server.engine_key_us", op, [&] {
      util::ByteWriter writer;
      server::build_engine_key(req, net.content_fingerprint(), kSalt, writer);
      return writer.take();
    });

    std::string body;
    switch (req.kind) {
      case server::RequestKind::kSweep: {
        std::unique_ptr<SweepBundle> fresh;
        SweepBundle& b = fresh_engine
                             ? *(fresh = build_sweep(op, net, req))
                             : pooled(sweeps_, engine_key,
                                      [&] { return build_sweep(op, net, req); });
        Span run(t, "sim.sweep_run_ms", op);
        const sim::SweepResult result =
            b.engine->run(req.trials, req.seed, threads_);
        per_trial("sim.sweep_trial_us", run.end(), req.trials);
        body = timed(t, "server.serialize_us.sweep", op, [&] {
          return server::serialize_sweep_body(req, result);
        });
        break;
      }
      case server::RequestKind::kTimeline: {
        std::unique_ptr<TimelineBundle> fresh;
        TimelineBundle& b =
            fresh_engine ? *(fresh = build_timeline(op, net, req))
                         : pooled(timelines_, engine_key,
                                  [&] { return build_timeline(op, net, req); });
        Span run(t, "sim.timeline_run_ms", op);
        b.engine->run(req.trials, req.seed, threads_);
        per_trial("sim.timeline_trial_us", run.end(), req.trials);
        body = timed(t, "server.serialize_us.timeline", op, [&] {
          return server::serialize_timeline_body(req, *b.engine,
                                                 b.connectivity->result(),
                                                 b.outage->results());
        });
        break;
      }
      default: {
        std::unique_ptr<ReportBundle> fresh;
        ReportBundle& b = fresh_engine
                              ? *(fresh = build_report(op, net, req))
                              : pooled(reports_, engine_key,
                                       [&] { return build_report(op, net, req); });
        timed(t, req.traffic ? "sim.traffic_run_ms" : "sim.pipeline_run_ms",
              op, [&] { b.pipeline->run(req.trials, req.seed, threads_); });
        body = timed(t, "server.serialize_us.report", op, [&] {
          return server::serialize_report_body(
              req, b.connectivity.result(), b.google->result(),
              b.facebook->result(), b.dns->result(), b.isolation->results(),
              b.traffic_observer ? &b.traffic_observer->result() : nullptr);
        });
      }
    }
    root.end();
    return body;
  }

  // A request the result cache answers: the parse and key steps alone, then
  // the whole ScenarioService::handle_line on the hit.
  std::string hit(std::uint32_t op, const std::string& line) {
    Tracer& t = rec_.tracer;
    Span root(t, "op.hit", op, /*root=*/true);
    timed(t, "server.parse_us", op,
          [&] { server::parse_request(line, request_); });
    timed(t, "server.key_us", op, [&] {
      server::build_cache_key(request_, fingerprint(request_), kSalt, key_);
    });
    const server::Body body = timed(t, "server.handle_hit_us", op, [&] {
      return service_->handle_line(line, scratch_);
    });
    root.end();
    return *body;
  }

  // The body the program itself serves for `line`, from the in-process
  // service (computing it on a miss).
  std::string served(const std::string& line) {
    return *service_->handle_line(line, scratch_);
  }

 private:
  // Any constant: key-building cost does not depend on the salt's value.
  static constexpr std::uint64_t kSalt = 0x7065726662656e63ULL;

  const topo::InfrastructureNetwork& network(
      const server::ScenarioRequest& req) const {
    if (req.network == "intertubes") return world_.intertubes();
    if (req.network == "itu") return world_.itu();
    return world_.submarine();
  }
  std::uint64_t fingerprint(const server::ScenarioRequest& req) const {
    return network(req).content_fingerprint();
  }

  void per_trial(const char* name, std::int64_t ns, std::size_t trials) {
    if (rec_.tracer.tracing() && trials > 0) {
      rec_.sample(name, us(ns) / static_cast<double>(trials));
    }
  }

  template <typename Bundle, typename Build>
  Bundle& pooled(std::map<std::string, std::unique_ptr<Bundle>>& pool,
                 const std::string& key, Build&& build) {
    std::unique_ptr<Bundle>& slot = pool[key];
    if (!slot) slot = build();
    return *slot;
  }

  std::unique_ptr<ReportBundle> build_report(
      std::uint32_t op, const topo::InfrastructureNetwork& net,
      const server::ScenarioRequest& req) {
    Tracer& t = rec_.tracer;
    auto b = std::make_unique<ReportBundle>();
    b->model = request_model(req);
    b->simulator = timed(t, simulator_span(req.network), op, [&] {
      return std::make_unique<sim::FailureSimulator>(
          net, request_config(req, threads_));
    });
    b->pipeline = timed(t, "sim.pipeline_build_ms", op, [&] {
      return std::make_unique<sim::TrialPipeline>(*b->simulator, *b->model);
    });
    for (auto* slot : {&b->google, &b->facebook}) {
      const auto op_kind = slot == &b->google
                               ? datasets::DataCenterOperator::kGoogle
                               : datasets::DataCenterOperator::kFacebook;
      *slot = timed(t, "services.availability_build_ms", op, [&] {
        return std::make_unique<services::AvailabilityObserver>(
            net, datacenter_service(op_kind, req.quorum));
      });
    }
    b->dns = timed(t, "analysis.dns_build_ms", op, [&] {
      return std::make_unique<analysis::DnsResolutionObserver>(
          net, world_.dns_roots(), req.dns_threshold_pct);
    });
    b->isolation = timed(t, "analysis.country_build_ms", op, [&] {
      return std::make_unique<analysis::CountryIsolationObserver>(
          net, report_countries());
    });
    b->pipeline->add_observer(b->connectivity);
    b->pipeline->add_observer(*b->google);
    b->pipeline->add_observer(*b->facebook);
    b->pipeline->add_observer(*b->dns);
    b->pipeline->add_observer(*b->isolation);
    if (req.traffic) {
      std::vector<routing::TrafficDemand> demands =
          timed(t, "routing.demand_build_ms", op, [&] {
            return req.demand_pairs == 0
                       ? routing::gravity_demands(net)
                       : routing::sampled_node_demands(
                             net, req.demand_pairs, 400.0,
                             server::kServedDemandSeed);
          });
      b->traffic_engine = timed(t, "routing.engine_build_ms", op, [&] {
        return std::make_unique<routing::TrafficEngine>(net,
                                                        std::move(demands));
      });
      b->traffic_observer =
          std::make_unique<routing::TrafficObserver>(*b->traffic_engine);
      b->pipeline->add_observer(*b->traffic_observer);
    }
    return b;
  }

  std::unique_ptr<SweepBundle> build_sweep(
      std::uint32_t op, const topo::InfrastructureNetwork& net,
      const server::ScenarioRequest& req) {
    Tracer& t = rec_.tracer;
    auto b = std::make_unique<SweepBundle>();
    b->simulator = timed(t, simulator_span(req.network), op, [&] {
      return std::make_unique<sim::FailureSimulator>(
          net, request_config(req, threads_));
    });
    b->grid = req.grid.empty() ? analysis::default_probability_grid()
                               : req.grid;
    b->engine = timed(t, "sim.sweep_build_ms", op, [&] {
      return std::make_unique<sim::SweepEngine>(
          sim::SweepEngine::uniform(*b->simulator, b->grid));
    });
    return b;
  }

  std::unique_ptr<TimelineBundle> build_timeline(
      std::uint32_t op, const topo::InfrastructureNetwork& net,
      const server::ScenarioRequest& req) {
    Tracer& t = rec_.tracer;
    auto b = std::make_unique<TimelineBundle>();
    b->model = request_model(req);
    b->simulator = timed(t, simulator_span(req.network), op, [&] {
      return std::make_unique<sim::FailureSimulator>(
          net, request_config(req, threads_));
    });
    sim::DeathProbabilityTable table =
        timed(t, "gic.death_table_ms.timeline", op, [&] {
          return b->simulator->death_probability_table(*b->model);
        });
    sim::TimelineConfig config = sim::TimelineConfig::from_profile(
        gic::StormPhaseProfile{}, req.timeline_step_hours);
    config.repair_steps = req.repair_steps;
    config.repair_step_hours = req.repair_step_days * 24.0;
    config.fleet.cable_ships = req.ships;
    b->engine = timed(t, "sim.timeline_build_ms", op, [&] {
      return std::make_unique<sim::TimelineEngine>(
          *b->simulator, std::move(table), std::move(config));
    });
    b->connectivity = std::make_unique<sim::TimelineConnectivityObserver>(
        req.partition_threshold_pct);
    b->outage = timed(t, "analysis.outage_build_ms", op, [&] {
      return std::make_unique<analysis::CountryOutageObserver>(
          net, report_countries());
    });
    b->engine->add_observer(*b->connectivity);
    b->engine->add_observer(*b->outage);
    return b;
  }

  Recorder& rec_;
  const core::World& world_;
  std::size_t threads_;
  std::unique_ptr<server::ScenarioService> service_;
  server::RequestScratch scratch_;
  server::ScenarioRequest request_;
  util::ByteWriter key_;
  server::ResultCache cache_;  // stays empty: every lookup is a miss
  std::map<std::string, std::unique_ptr<ReportBundle>> reports_;
  std::map<std::string, std::unique_ptr<SweepBundle>> sweeps_;
  std::map<std::string, std::unique_ptr<TimelineBundle>> timelines_;
};

// --- probes -----------------------------------------------------------------

core::WorldConfig serve_world_config() {
  core::WorldConfig config;  // as `solarnet serve` builds it
  config.build_population = false;
  config.build_routers = false;
  return config;
}

void probe_world(Recorder& rec, const core::WorldConfig& config, int reps) {
  for (int i = 0; i < reps; ++i) {
    const std::int64_t ns =
        clock_ns([&] { (void)core::World::generate(config); });
    rec.sample("core.world_ms", ms(ns));
  }
}

// The generators `solarnet serve` runs at start-up.
void probe_serve_datasets(Recorder& rec, int reps) {
  for (int i = 0; i < reps; ++i) {
    rec.sample("datasets.submarine_ms", ms(clock_ns([] {
                 (void)datasets::make_submarine_network({});
               })));
    rec.sample("datasets.intertubes_ms", ms(clock_ns([] {
                 (void)datasets::make_intertubes_network({});
               })));
    rec.sample("datasets.itu_ms", ms(clock_ns([] {
                 (void)datasets::make_itu_network({});
               })));
    rec.sample("datasets.ixps_ms", ms(clock_ns([] {
                 (void)datasets::make_ixp_dataset({});
               })));
    rec.sample("datasets.dns_ms", ms(clock_ns([] {
                 (void)datasets::make_dns_dataset({});
               })));
  }
}

// Per-trial cost of the pipeline with only a ConnectivityObserver, and the
// increment each further observer adds to it.
void probe_trial_loop(Recorder& rec, const core::World& world,
                      std::size_t threads, int reps) {
  const topo::InfrastructureNetwork& net = world.submarine();
  const auto model = gic::make_s1();
  sim::TrialConfig config;
  config.threads = threads;
  const sim::FailureSimulator simulator(net, config);
  const routing::TrafficEngine traffic_engine(net,
                                              routing::gravity_demands(net));

  struct Variant {
    const char* name;
    std::unique_ptr<sim::TrialPipeline> pipeline;
    sim::ConnectivityObserver connectivity;
    std::unique_ptr<sim::TrialObserver> extra;
  };
  std::vector<std::unique_ptr<Variant>> variants;
  const auto add = [&](const char* name,
                       std::unique_ptr<sim::TrialObserver> extra) {
    auto v = std::make_unique<Variant>();
    v->name = name;
    v->pipeline = std::make_unique<sim::TrialPipeline>(simulator, *model);
    v->pipeline->add_observer(v->connectivity);
    v->extra = std::move(extra);
    if (v->extra) v->pipeline->add_observer(*v->extra);
    variants.push_back(std::move(v));
  };
  add("sim.trial_us", nullptr);
  add("services.availability_trial_us",
      std::make_unique<services::AvailabilityObserver>(
          net, datacenter_service(datasets::DataCenterOperator::kGoogle, 2)));
  add("analysis.dns_trial_us", std::make_unique<analysis::DnsResolutionObserver>(
                                   net, world.dns_roots(), 10.0));
  add("analysis.country_trial_us",
      std::make_unique<analysis::CountryIsolationObserver>(
          net, report_countries()));
  add("routing.traffic_trial_us",
      std::make_unique<routing::TrafficObserver>(traffic_engine));

  const std::size_t trials = 1024;
  for (int r = 0; r < reps; ++r) {
    const std::uint64_t seed = 0x70726f6265ULL + static_cast<std::uint64_t>(r);
    std::vector<double> per_trial;
    for (const auto& v : variants) {
      const std::int64_t ns =
          clock_ns([&] { v->pipeline->run(trials, seed, threads); });
      per_trial.push_back(us(ns) / static_cast<double>(trials));
    }
    rec.sample(variants[0]->name, per_trial[0]);
    for (std::size_t i = 1; i < variants.size(); ++i) {
      rec.sample(variants[i]->name, per_trial[i] - per_trial[0]);
    }
  }
}

// Masked connected_components over the CSR, and schedule_repairs, on
// sampled S1 dead sets.
void probe_components_and_repairs(Recorder& rec, const core::World& world,
                                  int reps) {
  const topo::InfrastructureNetwork& net = world.submarine();
  const auto model = gic::make_s1();
  const sim::FailureSimulator simulator(net, {});
  const sim::DeathProbabilityTable table =
      simulator.death_probability_table(*model);
  const graph::Csr& csr = net.csr();
  util::Rng rng(0x636f6d70ULL);
  util::Bitset dead;
  graph::AliveMask mask;
  graph::ComponentScratch scratch;
  graph::ComponentResult components;
  for (int r = 0; r < reps; ++r) {
    simulator.sample_cable_failures(table, rng, dead);
    net.mask_for_failures(dead, mask);
    constexpr int kCalls = 64;
    const std::int64_t ns = clock_ns([&] {
      for (int i = 0; i < kCalls; ++i) {
        graph::connected_components(csr, mask, scratch, components);
      }
    });
    rec.sample("graph.components_us", us(ns) / kCalls);

    const std::vector<bool> dead_cables =
        simulator.sample_cable_failures(*model, rng);
    const std::vector<std::size_t> faults =
        recovery::sample_fault_counts(simulator, *model, dead_cables, rng);
    rec.sample("recovery.schedule_us", us(clock_ns([&] {
                 (void)recovery::schedule_repairs(net, dead_cables, faults);
               })));
  }
}

// --- workloads --------------------------------------------------------------

// Operations replayed even past the deadline: one rotation of report_cli's
// four models and of serve_compute's four request kinds, so a short replay
// still reaches every layer they call.
constexpr std::uint32_t kMinOps = 4;

// The time at which a replay stops starting operations: `seconds` from now.
std::int64_t deadline_after(double seconds) {
  return now_ns() + static_cast<std::int64_t>(seconds * 1e9);
}

void trace_report_cli(Recorder& rec, const std::vector<PlanOp>& plan,
                      double seconds, std::size_t threads) {
  const std::int64_t deadline = deadline_after(seconds);
  std::uint32_t op = 0;
  for (const PlanOp& p : plan) {
    if (p.tag != 'R') continue;
    if (op >= kMinOps && now_ns() > deadline) break;
    ++op;
    const CliOp c = parse_cli_op(p.payload);
    std::string traced_text;
    paired(rec, op, [&] {
      std::string text = replay_report_cli(rec, op, c, threads);
      if (rec.tracer.tracing()) traced_text = std::move(text);
    });
    rec.digest(op, traced_text);
  }
  probe_world(rec, core::WorldConfig{}, 3);
}

// "report", "report+traffic", "sweep" or "timeline" for a request line.
std::string kind_key(const std::string& line) {
  const std::string cmd = "\"cmd\":\"";
  const std::size_t at = line.find(cmd);
  std::string key = at == std::string::npos
                        ? "report"
                        : line.substr(at + cmd.size(),
                                      line.find('"', at + cmd.size()) -
                                          at - cmd.size());
  if (line.find("\"traffic\":1") != std::string::npos) key += "+traffic";
  return key;
}

void trace_served(Recorder& rec, const std::string& workload,
                  const std::vector<PlanOp>& plan, double seconds,
                  std::size_t threads) {
  rec.tracer.set_tracing(true);
  Span setup(rec.tracer, "setup", 0, /*root=*/true);
  const core::World world = timed(rec.tracer, "core.world_ms", 0, [] {
    return core::World::generate(serve_world_config());
  });
  ServedReplay replay(rec, world, threads);
  // Warm-up lines: the pooled engines the timed operations reuse, and the
  // cache entries the hits read.
  std::map<std::string, std::string> expected;
  for (const PlanOp& p : plan) {
    if (p.tag != 'W') continue;
    if (workload == "serve_compute") replay.miss(0, p.payload, false);
    expected[p.payload] = replay.served(p.payload);
  }
  setup.end();
  rec.tracer.set_tracing(false);

  const std::int64_t deadline = deadline_after(seconds);
  std::uint32_t op = 0;
  std::set<std::string> fidelity_checked;
  for (const PlanOp& p : plan) {
    if (p.tag == 'W') continue;
    if (op >= kMinOps && now_ns() > deadline) break;
    ++op;
    std::string traced_body;
    paired(rec, op, [&] {
      std::string body = p.tag == 'A' ? replay.hit(op, p.payload)
                                      : replay.miss(op, p.payload, p.tag == 'B');
      if (rec.tracer.tracing()) traced_body = std::move(body);
    });
    rec.digest(op, traced_body);
    if (p.tag == 'A') {
      const auto it = expected.find(p.payload);
      rec.check("hit_matches_warm_body",
                it != expected.end() && it->second == traced_body);
    } else if (fidelity_checked.insert(kind_key(p.payload)).second) {
      // The replay must serve what the program serves: compare the first
      // body of each request kind with the in-process service's.
      rec.check("replay_matches_service",
                replay.served(p.payload) == traced_body);
    }
  }

  probe_world(rec, serve_world_config(), 5);
  probe_serve_datasets(rec, 3);
  if (workload == "serve_compute") {
    probe_trial_loop(rec, world, threads, 15);
    probe_components_and_repairs(rec, world, 200);
  }
}

}  // namespace

int run_trace(const std::string& workload, const std::string& plan_path,
              double seconds, std::size_t threads,
              const std::string& out_path) {
  const std::vector<PlanOp> plan = read_plan(plan_path);
  Recorder rec;
  if (workload == "report_cli") {
    trace_report_cli(rec, plan, seconds, threads);
  } else if (workload == "serve_compute" || workload == "serve_engine" ||
             workload == "serve_mix") {
    trace_served(rec, workload, plan, seconds, threads);
  } else {
    throw std::runtime_error("unknown workload " + workload);
  }
  rec.write(out_path);
  return 0;
}

}  // namespace perfbench
