#include "server/scenario_service.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>
#include <utility>

#include "core/world.h"
#include "datasets/datacenters.h"
#include "gic/failure_model.h"
#include "util/fingerprint.h"
#include "util/status.h"

namespace solarnet::server {

namespace {

// --- JSON emission helpers --------------------------------------------------
// Doubles via std::to_chars: the shortest decimal that round-trips to the
// exact same bits, so textual equality of two bodies is bit-equality of the
// underlying aggregates — the foundation of the served == direct gate.

void append_double(std::string& out, double v) {
  char buf[64];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

void append_u64(std::string& out, std::uint64_t v) {
  char buf[32];
  const auto [ptr, ec] = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, static_cast<std::size_t>(ptr - buf));
}

// {"mean":..,"stddev":..,"min":..,"max":..}
void append_stats(std::string& out, const util::RunningStats& s) {
  out += "{\"mean\":";
  append_double(out, s.mean());
  out += ",\"stddev\":";
  append_double(out, s.sample_stddev());
  out += ",\"min\":";
  append_double(out, s.min());
  out += ",\"max\":";
  append_double(out, s.max());
  out += '}';
}

// ,"<cables_key>":{..},"nodes_unreachable_pct":{..},
// "largest_component_pct":{..}; the timeline body keys its cable share
// "cables_dead_pct".
void append_connectivity(std::string& out, const sim::ConnectivityStats& s,
                         std::string_view cables_key = "cables_failed_pct") {
  out += ",\"";
  out += cables_key;
  out += "\":";
  append_stats(out, s.cables_failed_pct);
  out += ",\"nodes_unreachable_pct\":";
  append_stats(out, s.nodes_unreachable_pct);
  out += ",\"largest_component_pct\":";
  append_stats(out, s.largest_component_pct);
}

void append_escaped(std::string& out, std::string_view s) {
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

// The request echo both bodies open with, so a client matching responses to
// requests over a pipelined connection can do so without extra framing.
void append_request_echo(std::string& out, const ScenarioRequest& req) {
  out += "{\"ok\":true,\"cmd\":\"";
  out += to_string(req.kind);
  out += "\",\"network\":\"";
  out += req.network;
  out += "\",\"spacing\":";
  append_double(out, req.spacing_km);
  out += ",\"trials\":";
  append_u64(out, req.trials);
  out += ",\"seed\":";
  append_u64(out, req.seed);
}

Body make_body(std::string text) {
  return std::make_shared<const std::string>(std::move(text));
}

// Runs a pooled bundle for `req` and serializes the result.
std::string body(const ScenarioRequest& req, core::SweepBundle& bundle) {
  return serialize_sweep_body(req, bundle.engine.run(req.trials, req.seed));
}

std::string body(const ScenarioRequest& req, core::TimelineBundle& bundle) {
  bundle.engine.run(req.trials, req.seed);
  return serialize_timeline_body(req, bundle.engine,
                                 bundle.connectivity.result(),
                                 bundle.outage.results());
}

}  // namespace

// --- resident engine bundles ------------------------------------------------

// Each bundle's thread count is fixed at construction (options.threads).
struct ScenarioService::Engine {
  Engine() = default;
  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;
  virtual ~Engine() = default;
  virtual std::string run(const ScenarioRequest& req) = 0;
};

struct ScenarioService::ReportEngine final : ScenarioService::Engine {
  ReportEngine(const topo::InfrastructureNetwork& net,
               const std::vector<datasets::DnsRootInstance>& roots,
               const ScenarioRequest& req, std::size_t threads)
      : model(core::make_model(req)),
        bundle(net, roots, *model, req, threads) {}

  std::string run(const ScenarioRequest& req) override {
    bundle.run(req.trials, req.seed);
    return serialize_report_body(
        req, bundle.connectivity.result(), bundle.google.result(),
        bundle.facebook.result(), bundle.dns.result(),
        bundle.isolation.results(), bundle.traffic());
  }

  std::unique_ptr<gic::RepeaterFailureModel> model;  // outlives the bundle
  core::ReportBundle bundle;
};

template <typename Bundle>
struct ScenarioService::BundleEngine final : ScenarioService::Engine {
  BundleEngine(const topo::InfrastructureNetwork& net,
               const ScenarioRequest& req, std::size_t threads)
      : bundle(net, req, threads) {}

  std::string run(const ScenarioRequest& req) override {
    return body(req, bundle);
  }

  Bundle bundle;
};

// --- body serializers -------------------------------------------------------

std::string serialize_report_body(
    const ScenarioRequest& req, const sim::ConnectivityObserver::Result& conn,
    const services::AvailabilitySweep& google,
    const services::AvailabilitySweep& facebook,
    const analysis::DnsResolutionSweep& dns,
    const std::vector<analysis::CountryIsolationResult>& isolation,
    const routing::TrafficSweep* traffic) {
  std::string out;
  out.reserve(2048);
  append_request_echo(out, req);
  out += ",\"model\":\"";
  out += req.model;
  out += '"';
  if (req.model == "uniform") {
    out += ",\"p\":";
    append_double(out, req.uniform_p);
  }

  out += ",\"connectivity\":{\"trials\":";
  append_u64(out, conn.trials);
  append_connectivity(out, conn);
  out += '}';

  out += ",\"services\":[";
  bool first = true;
  for (const services::AvailabilitySweep* sweep : {&google, &facebook}) {
    if (!first) out += ',';
    first = false;
    out += "{\"name\":\"";
    append_escaped(out, sweep->service);
    out += "\",\"draws\":";
    append_u64(out, sweep->draws);
    out += ",\"read_availability\":";
    append_stats(out, sweep->read_availability);
    out += ",\"write_availability\":";
    append_stats(out, sweep->write_availability);
    out += '}';
  }
  out += ']';

  out += ",\"dns\":{\"trials\":";
  append_u64(out, dns.trials);
  out += ",\"resolution_availability\":";
  append_stats(out, dns.resolution_availability);
  out += ",\"mean_letters_reachable\":";
  append_stats(out, dns.mean_letters_reachable);
  out += ",\"cable_loss_threshold_pct\":";
  append_double(out, dns.cable_loss_threshold_pct);
  out += ",\"degraded_trials\":";
  append_u64(out, dns.degraded_trials);
  out += ",\"heavy_loss_trials\":";
  append_u64(out, dns.heavy_loss_trials);
  out += ",\"joint_trials\":";
  append_u64(out, dns.joint_trials);
  out += '}';

  out += ",\"isolation\":[";
  first = true;
  for (const analysis::CountryIsolationResult& country : isolation) {
    if (!first) out += ',';
    first = false;
    out += "{\"country\":\"";
    append_escaped(out, country.country);
    out += "\",\"international_cables\":";
    append_u64(out, country.international_cable_count);
    out += ",\"trials\":";
    append_u64(out, country.trials);
    out += ",\"isolated_trials\":";
    append_u64(out, country.isolated_trials);
    out += ",\"surviving_cables\":";
    append_stats(out, country.surviving_cables);
    out += '}';
  }
  out += ']';

  if (traffic != nullptr) {
    out += ",\"traffic\":{\"demand_pairs\":";
    append_u64(out, traffic->demand_pairs);
    out += ",\"offered_gbps\":";
    append_double(out, traffic->offered_gbps);
    out += ",\"delivered_fraction\":";
    append_stats(out, traffic->delivered_fraction);
    out += ",\"stranded_gbps\":";
    append_stats(out, traffic->stranded_gbps);
    out += ",\"max_utilization\":";
    append_stats(out, traffic->max_utilization);
    out += ",\"overloaded_cables\":";
    append_stats(out, traffic->overloaded_cables);
    out += ",\"mean_path_km\":";
    append_stats(out, traffic->mean_path_km);
    out += '}';
  }
  out += '}';
  return out;
}

std::string serialize_sweep_body(const ScenarioRequest& req,
                                 const sim::SweepResult& result) {
  std::string out;
  out.reserve(256 + 192 * result.points.size());
  append_request_echo(out, req);
  out += ",\"points\":[";
  bool first = true;
  for (const sim::SweepPointAggregate& point : result.points) {
    if (!first) out += ',';
    first = false;
    out += "{\"p\":";
    append_double(out, point.axis);
    append_connectivity(out, point);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string serialize_timeline_body(
    const ScenarioRequest& req, const sim::TimelineEngine& engine,
    const sim::TimelineConnectivityResult& conn,
    const std::vector<analysis::CountryOutageResult>& outage) {
  std::string out;
  out.reserve(1024 + 256 * conn.steps.size());
  append_request_echo(out, req);
  out += ",\"model\":\"";
  out += req.model;
  out += '"';
  if (req.model == "uniform") {
    out += ",\"p\":";
    append_double(out, req.uniform_p);
  }
  out += ",\"storm_steps\":";
  append_u64(out, engine.storm_step_count());
  out += ",\"repair_steps\":";
  append_u64(out, engine.repair_step_count());
  out += ",\"steps\":[";
  bool first = true;
  for (const sim::TimelineStepStats& step : conn.steps) {
    if (!first) out += ',';
    first = false;
    out += "{\"hour\":";
    append_double(out, step.hour);
    append_connectivity(out, step, "cables_dead_pct");
    out += '}';
  }
  out += "],\"partition\":{\"threshold_pct\":";
  append_double(out, conn.partition_threshold_pct);
  out += ",\"baseline_largest_pct\":";
  append_double(out, engine.baseline_largest_pct());
  out += ",\"partitioned_trials\":";
  append_u64(out, conn.partitioned_trials);
  out += ",\"time_to_partition_hours\":";
  append_stats(out, conn.time_to_partition_hours);
  out += "},\"peak_nodes_unreachable_pct\":";
  append_stats(out, conn.peak_nodes_unreachable_pct);
  out += ",\"outage\":[";
  first = true;
  for (const analysis::CountryOutageResult& country : outage) {
    if (!first) out += ',';
    first = false;
    out += "{\"country\":\"";
    append_escaped(out, country.country);
    out += "\",\"international_cables\":";
    append_u64(out, country.international_cable_count);
    out += ",\"trials\":";
    append_u64(out, country.trials);
    out += ",\"cutoff_trials\":";
    append_u64(out, country.cutoff_trials);
    out += ",\"outage_hours\":";
    append_stats(out, country.outage_hours);
    out += ",\"cutoff_start_hour\":";
    append_stats(out, country.cutoff_start_hour);
    out += '}';
  }
  out += "]}";
  return out;
}

std::string serialize_error_body(std::string_view message) {
  std::string out = "{\"ok\":false,\"error\":\"";
  append_escaped(out, message);
  out += "\"}";
  return out;
}

// --- service ----------------------------------------------------------------

ServiceContext ServiceContext::from_world(const core::World& world) {
  ServiceContext context;
  context.submarine = &world.submarine();
  context.intertubes = &world.intertubes();
  context.itu = world.has_itu() ? &world.itu() : nullptr;
  context.dns_roots = &world.dns_roots();
  return context;
}

ScenarioService::ScenarioService(ServiceContext context,
                                 ServiceOptions options)
    : context_(context),
      options_(std::move(options)),
      cache_(options_.cache) {
  if (context_.submarine == nullptr || context_.intertubes == nullptr ||
      context_.dns_roots == nullptr) {
    throw std::invalid_argument(
        "ScenarioService: submarine, intertubes and dns_roots are required");
  }
  submarine_fp_ = context_.submarine->content_fingerprint();
  intertubes_fp_ = context_.intertubes->content_fingerprint();
  if (context_.itu != nullptr) itu_fp_ = context_.itu->content_fingerprint();

  // Everything that shapes response bodies but lives in the service config
  // rather than the request: the body format, the isolation country list,
  // the data-center operator set, and the DNS root deployment.
  util::Fingerprint salt(0x7372762d73616c74ULL);  // "srv-salt"
  salt.fold_bytes("serve-body/v2");
  salt.fold(core::kReportCountries.size());
  for (const std::string& country : core::kReportCountries) {
    salt.fold_bytes(country);
  }
  for (const auto op : {datasets::DataCenterOperator::kGoogle,
                        datasets::DataCenterOperator::kFacebook}) {
    salt.fold_bytes(datasets::to_string(op));
  }
  salt.fold(context_.dns_roots->size());
  for (const datasets::DnsRootInstance& root : *context_.dns_roots) {
    salt.fold(static_cast<std::uint64_t>(root.root_letter));
    salt.fold_double(root.location.lat_deg);
    salt.fold_double(root.location.lon_deg);
  }
  observer_salt_ = salt.value();
}

ScenarioService::~ScenarioService() = default;

const topo::InfrastructureNetwork& ScenarioService::network_for(
    const ScenarioRequest& req, std::uint64_t* fp) const {
  if (req.network == "submarine") {
    *fp = submarine_fp_;
    return *context_.submarine;
  }
  if (req.network == "intertubes") {
    *fp = intertubes_fp_;
    return *context_.intertubes;
  }
  if (context_.itu == nullptr) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "this server was started without the ITU network",
                      {"request", 0, "network"});
  }
  *fp = itu_fp_;
  return *context_.itu;
}

Body ScenarioService::handle_line(std::string_view line,
                                  RequestScratch& scratch) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  try {
    parse_request(line, scratch.request);
    return handle(scratch.request, scratch);
  } catch (const std::exception& e) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    return make_body(serialize_error_body(e.what()));
  }
}

Body ScenarioService::handle(const ScenarioRequest& request,
                             RequestScratch& scratch) {
  switch (request.kind) {
    case RequestKind::kStats:
      return stats_body();
    case RequestKind::kShutdown: {
      shutdown_.store(true, std::memory_order_release);
      static const Body body =
          make_body("{\"ok\":true,\"cmd\":\"shutdown\"}");
      return body;
    }
    case RequestKind::kReport:
    case RequestKind::kSweep:
    case RequestKind::kTimeline:
      break;
  }
  std::uint64_t fp = 0;
  // Validates the network choice up front.
  const topo::InfrastructureNetwork& net = network_for(request, &fp);
  build_cache_key(request, fp, observer_salt_, scratch.cache_key);
  return cached_or_compute(request, net, fp, scratch);
}

Body ScenarioService::cached_or_compute(const ScenarioRequest& req,
                                        const topo::InfrastructureNetwork& net,
                                        std::uint64_t fp,
                                        RequestScratch& scratch) {
  const std::string_view key(scratch.cache_key.data());
  if (Body hit = cache_.lookup(key)) {
    hits_.fetch_add(1, std::memory_order_relaxed);
    return hit;
  }

  // Miss path (allocations fine from here on): coalesce concurrent
  // identical requests onto one computation.
  std::shared_future<Body> future;
  bool leader = false;
  {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    // A leader may have inserted between our lookup and this lock: a hit
    // all the same.
    if (Body hit = cache_.lookup(key)) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return hit;
    }
    misses_.fetch_add(1, std::memory_order_relaxed);
    const auto it = inflight_.find(std::string(key));
    if (it != inflight_.end()) {
      future = it->second.future;
    } else {
      leader = true;
      auto promise = std::make_shared<std::promise<Body>>();
      future = promise->get_future().share();
      inflight_.emplace(std::string(key),
                        InFlight{std::move(promise), future});
    }
  }
  if (!leader) {
    coalesced_.fetch_add(1, std::memory_order_relaxed);
    return future.get();  // rethrows the leader's exception, if any
  }

  const auto retire = [&] {
    const std::lock_guard<std::mutex> lock(inflight_mutex_);
    const auto it = inflight_.find(std::string(key));
    std::shared_ptr<std::promise<Body>> promise = std::move(it->second.promise);
    inflight_.erase(it);
    return promise;
  };
  Body body;
  try {
    build_engine_key(req, fp, observer_salt_, scratch.engine_key);
    body = compute(req, net, scratch.engine_key.data());
  } catch (...) {
    retire()->set_exception(std::current_exception());
    throw;
  }

  // Insert into the cache BEFORE retiring the in-flight entry: at every
  // instant a concurrent identical request finds the result in at least
  // one of the two, so no third computation can start.
  cache_.insert(key, body);
  retire()->set_value(body);
  computed_.fetch_add(1, std::memory_order_relaxed);
  return body;
}

Body ScenarioService::compute(const ScenarioRequest& req,
                              const topo::InfrastructureNetwork& net,
                              std::string_view engine_key) {
  const EnginePool<Engine>::Lease engine =
      pool_.acquire(engine_key, [&]() -> std::unique_ptr<Engine> {
        switch (req.kind) {
          case RequestKind::kSweep:
            return std::make_unique<BundleEngine<core::SweepBundle>>(
                net, req, options_.threads);
          case RequestKind::kTimeline:
            return std::make_unique<BundleEngine<core::TimelineBundle>>(
                net, req, options_.threads);
          default:
            return std::make_unique<ReportEngine>(net, *context_.dns_roots,
                                                  req, options_.threads);
        }
      });
  return make_body(engine->run(req));
}

Body ScenarioService::stats_body() const {
  const Stats s = stats();
  std::string out = "{\"ok\":true,\"cmd\":\"stats\",\"requests\":";
  append_u64(out, s.requests);
  out += ",\"cache_hits\":";
  append_u64(out, s.cache_hits);
  out += ",\"cache_misses\":";
  append_u64(out, s.cache_misses);
  out += ",\"coalesced\":";
  append_u64(out, s.coalesced);
  out += ",\"computed\":";
  append_u64(out, s.computed);
  out += ",\"errors\":";
  append_u64(out, s.errors);
  out += ",\"cache_bytes\":";
  append_u64(out, s.cache.bytes);
  out += ",\"cache_entries\":";
  append_u64(out, s.cache.entries);
  out += ",\"cache_evictions\":";
  append_u64(out, s.cache.evictions);
  out += '}';
  return make_body(std::move(out));
}

ScenarioService::Stats ScenarioService::stats() const {
  Stats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.cache_hits = hits_.load(std::memory_order_relaxed);
  out.cache_misses = misses_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.computed = computed_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.cache = cache_.stats();
  return out;
}

}  // namespace solarnet::server
