// Wire protocol for the resident scenario server (`solarnet serve`).
//
// Requests are newline-delimited JSON objects — one flat object per line,
// string / number / boolean / number-array values only (no nesting, no
// escapes: every legal field value is a plain identifier, number or
// true/false). The deliberately tiny grammar keeps the parser
// dependency-free and allocation-free once a ScenarioRequest's buffers are
// warm, which the hit-path zero-allocation gate in bench/perf_serve.cpp
// depends on.
//
//   {"cmd":"report","model":"uniform","p":0.01,"spacing":150,
//    "trials":64,"seed":7,"quorum":2,"dns_threshold":10}
//   {"cmd":"report","traffic":true,"trials":64}
//   {"cmd":"report","demand_pairs":10000,"trials":64}
//   {"cmd":"sweep","grid":[0.001,0.01,0.1],"trials":32,"seed":1859}
//   {"cmd":"timeline","model":"s1","step_hours":6,"repair_steps":24,
//    "trials":64,"seed":7}
//   {"cmd":"stats"}
//   {"cmd":"shutdown"}
//
// Fields and defaults (unknown fields are rejected, naming the field):
//   cmd            report | sweep | timeline | stats | shutdown
//                                                      (default report)
//   network        submarine | intertubes | itu        (default submarine)
//   model          s1 | s2 | uniform                   (default s1)
//   p              uniform-model probability in [0,1]  (default 0.01)
//   spacing        repeater spacing km, finite >= 10   (default 150)
//   trials         integer >= 1                        (default 10)
//   seed           integer >= 0                        (default 7)
//   quorum         service write quorum, integer >= 1  (default 2)
//   dns_threshold  DNS joint-statistic cable-loss %    (default 10)
//   engine         auto | scalar                       (default auto)
//   traffic        true | false (or 1 | 0): add the post-failure
//                  traffic-routing section to report responses
//                  (default false)
//   demand_pairs   0 = gravity demand matrix; N > 0 routes N sampled
//                  demand entries per trial and turns traffic on
//                  (integer, max 10000000; default 0).
//                  Sampled matrices use the fixed core::kDemandSeed, NOT
//                  the request seed — pooled engines are keyed without
//                  (trials, seed) and must be reusable across them
//   grid           sweep probability grid, each in [0,1]; canonicalized
//                  by sorting ascending (responses are in sorted order);
//                  empty/absent = the paper's default grid
//   step_hours     timeline storm-step width, hours in (0, 72], at most
//                  4096 storm steps over the 72 h storm (default 6)
//   repair_steps   timeline repair steps, integer in [1, 4096]
//                  (default 24)
//   repair_step_days  width of one repair step, days in (0, 365]
//                  (default 15)
//   ships          repair fleet cable ships, integer in [1, 100000]
//                  (default 60)
//   partition_threshold  timeline partition threshold, % in [0, 100]
//                  (default 50)
//
// Both front ends fill a request through set_field (the CLI maps --uniform
// P to model and p, ...): a value meets the same check from either.
//
// Cache-key semantics: build_cache_key produces the canonical
// content-addressed key of a request — an injective binary encoding of
// (server format version, request kind, network *content* fingerprint,
// model parameters, trial configuration, observer-set salt). Two requests
// get the same key iff the determinism contract guarantees bit-identical
// response bodies. `engine` is deliberately excluded: the batch and scalar
// engines are bit-identical (gated by bench/perf_batch.cpp), so the engine
// choice affects how a miss is computed, never the bytes served. The
// server's thread count is likewise excluded (aggregates are thread-count
// invariant). build_engine_key is the same encoding minus (trials, seed),
// plus the engine for report requests (sweep and timeline engines never
// read it) — it keys the pool of resident simulator/pipeline/observer
// bundles, which requests differing only in trial budget or seed reuse
// without rebuilding.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/monte_carlo.h"
#include "util/checkpoint.h"

namespace solarnet::server {

enum class RequestKind : std::uint8_t {
  kReport,
  kSweep,
  kStats,
  kShutdown,
  kTimeline,
};

std::string_view to_string(RequestKind kind) noexcept;

struct ScenarioRequest {
  RequestKind kind = RequestKind::kReport;
  std::string network = "submarine";
  std::string model = "s1";
  double uniform_p = 0.01;
  double spacing_km = 150.0;
  std::size_t trials = 10;
  std::uint64_t seed = 7;
  std::size_t quorum = 2;
  double dns_threshold_pct = 10.0;
  sim::TrialEngine engine = sim::TrialEngine::kAuto;
  // Post-failure traffic routing (report responses). Folded into every key
  // unconditionally — like quorum/dns_threshold, these shape the resident
  // observer bundle, so two requests differing only here must never share
  // an engine or a cached body.
  bool traffic = false;  // finish_request sets it when demand_pairs > 0
  std::size_t demand_pairs = 0;
  std::vector<double> grid;  // sorted ascending after parse; sweep only
  // Timeline playback axis (timeline requests only; folded kind-gated).
  double timeline_step_hours = 6.0;
  std::size_t repair_steps = 24;
  double repair_step_days = 15.0;
  std::size_t ships = 60;
  double partition_threshold_pct = 50.0;

  // Restores every field to its default, keeping buffer capacity (the
  // strings' values all fit in the small-string buffer).
  void reset();
};

// Sets the field named `field` (e.g. "ships"): the string form cmd,
// network, model and engine, the number form the rest (traffic 1 or 0; a
// grid value appends a point). Throws util::Error(kInvalidArgument) naming
// the field on an unknown field or invalid value.
void set_field(ScenarioRequest& req, std::string_view field,
               std::string_view value);
void set_field(ScenarioRequest& req, std::string_view field, double value);

// The step after the last set_field: sorts the grid ascending and turns
// traffic on when demand_pairs > 0.
void finish_request(ScenarioRequest& req);

// Parses one request line into `out`: reset, set_field per field, then
// finish_request. Throws util::Error(kParseError) on malformed JSON or a
// value of the wrong JSON type, and set_field's errors otherwise.
// Allocation-free once `out`'s buffers are warm.
void parse_request(std::string_view line, ScenarioRequest& out);

// Appends nothing; replaces `key`'s contents with the canonical cache key
// of `req` (see the header comment). `network_fingerprint` must be the
// served network's content_fingerprint(); `observer_salt` folds the
// service's fixed observer configuration (country list, service specs,
// serializer version). Allocation-free once `key` is warm.
void build_cache_key(const ScenarioRequest& req,
                     std::uint64_t network_fingerprint,
                     std::uint64_t observer_salt, util::ByteWriter& key);

// Engine-pool key: the cache key minus (trials, seed), plus a report's
// engine selection — everything that shapes the resident simulator/
// pipeline/observer bundle a request needs.
void build_engine_key(const ScenarioRequest& req,
                      std::uint64_t network_fingerprint,
                      std::uint64_t observer_salt, util::ByteWriter& key);

}  // namespace solarnet::server
