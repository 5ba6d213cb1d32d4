#include "server/request.h"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>

#include "util/status.h"

namespace solarnet::server {

namespace {

// Format version folded into every key: bump when the response body layout
// or the key encoding itself changes, so stale cache entries (or persisted
// derivatives) can never be mistaken for current ones.
constexpr std::uint64_t kServeFormatVersion = 2;

// A request line can carry at most this many sweep grid points; a larger
// array is almost certainly a client bug and would pin the engine for a
// very long time.
constexpr std::size_t kMaxGridPoints = 4096;

// Ceiling on the sampled-demand stress knob: an order of magnitude above
// the million-pair routing gate, far below anything that would pin the
// engine indefinitely.
constexpr std::size_t kMaxDemandPairs = 10'000'000;

constexpr std::size_t kMaxRepairSteps = 4096;
constexpr std::size_t kMaxShips = 100'000;

[[noreturn]] void parse_fail(const std::string& message,
                             std::string_view field = {}) {
  throw util::Error(util::ErrorCode::kParseError, message,
                    {"request", 0, std::string(field)});
}

[[noreturn]] void value_fail(const std::string& message,
                             std::string_view field) {
  throw util::Error(util::ErrorCode::kInvalidArgument, message,
                    {"request", 0, std::string(field)});
}

// Cursor over one request line. Only the subset of JSON the protocol needs:
// one flat object of string / number / number-array values, no escapes.
struct Cursor {
  std::string_view text;
  std::size_t pos = 0;

  bool at_end() const noexcept { return pos >= text.size(); }
  char peek() const noexcept { return text[pos]; }

  void skip_ws() noexcept {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }

  void expect(char c, std::string_view what) {
    skip_ws();
    if (at_end() || text[pos] != c) {
      parse_fail("expected '" + std::string(1, c) + "' " + std::string(what));
    }
    ++pos;
  }

  // Quoted string without escapes; the protocol's legal values never need
  // them, so a backslash is rejected outright rather than mis-decoded.
  std::string_view string_token() {
    skip_ws();
    if (at_end() || text[pos] != '"') parse_fail("expected string");
    const std::size_t begin = ++pos;
    while (pos < text.size() && text[pos] != '"') {
      if (text[pos] == '\\') parse_fail("escape sequences are not supported");
      ++pos;
    }
    if (at_end()) parse_fail("unterminated string");
    const std::string_view token = text.substr(begin, pos - begin);
    ++pos;  // closing quote
    return token;
  }

  double number_token(std::string_view field) {
    skip_ws();
    const char* begin = text.data() + pos;
    const char* end = text.data() + text.size();
    double value = 0.0;
    const auto [ptr, ec] = std::from_chars(begin, end, value);
    if (ec != std::errc() || ptr == begin) {
      parse_fail("malformed number", field);
    }
    pos = static_cast<std::size_t>(ptr - text.data());
    return value;
  }

  // A JSON boolean, or the numbers 0 and 1.
  bool flag_token(std::string_view field) {
    skip_ws();
    const bool is_true = text.substr(pos, 4) == "true";
    if (is_true || text.substr(pos, 5) == "false") {
      pos += is_true ? 4 : 5;
      return is_true;
    }
    const double v = number_token(field);
    if (v != 0.0 && v != 1.0) value_fail("must be true, false, 0 or 1", field);
    return v == 1.0;
  }
};

std::size_t positive_integer(double value, std::string_view field) {
  if (!(value >= 1.0) || value != std::floor(value) || value > 1e15) {
    value_fail("must be an integer >= 1", field);
  }
  return static_cast<std::size_t>(value);
}

std::uint64_t nonnegative_integer(double value, std::string_view field) {
  if (!(value >= 0.0) || value != std::floor(value) || value > 1e15) {
    value_fail("must be an integer >= 0", field);
  }
  return static_cast<std::uint64_t>(value);
}

double probability(double value, std::string_view field) {
  if (!(value >= 0.0 && value <= 1.0)) {  // rejects NaN too
    value_fail("must be in [0, 1]", field);
  }
  return value;
}

// Shared tail of both key builders: everything except (trials, seed,
// engine), in a fixed order. Injective because every field is fixed-width
// and the two string fields are length-prefixed by ByteWriter::str.
void fold_common(const ScenarioRequest& req, std::uint64_t network_fingerprint,
                 std::uint64_t observer_salt, util::ByteWriter& key) {
  key.u64(kServeFormatVersion);
  key.u64(observer_salt);
  key.u8(static_cast<std::uint8_t>(req.kind));
  key.u64(network_fingerprint);
  key.str(req.model);
  key.f64(req.model == "uniform" ? req.uniform_p : 0.0);
  key.f64(req.spacing_km);
  key.u64(req.quorum);
  key.f64(req.dns_threshold_pct);
  key.u8(req.traffic ? 1 : 0);
  key.u64(req.demand_pairs);
  if (req.kind == RequestKind::kSweep) {
    key.u64(req.grid.size());
    for (const double p : req.grid) key.f64(p);
  }
  if (req.kind == RequestKind::kTimeline) {
    key.f64(req.timeline_step_hours);
    key.u64(req.repair_steps);
    key.f64(req.repair_step_days);
    key.u64(req.ships);
    key.f64(req.partition_threshold_pct);
  }
}

}  // namespace

std::string_view to_string(RequestKind kind) noexcept {
  switch (kind) {
    case RequestKind::kReport:
      return "report";
    case RequestKind::kSweep:
      return "sweep";
    case RequestKind::kStats:
      return "stats";
    case RequestKind::kShutdown:
      return "shutdown";
    case RequestKind::kTimeline:
      return "timeline";
  }
  return "?";
}

void ScenarioRequest::reset() {
  kind = RequestKind::kReport;
  network = "submarine";
  model = "s1";
  uniform_p = 0.01;
  spacing_km = 150.0;
  trials = 10;
  seed = 7;
  quorum = 2;
  dns_threshold_pct = 10.0;
  engine = sim::TrialEngine::kAuto;
  traffic = false;
  demand_pairs = 0;
  grid.clear();
  timeline_step_hours = 6.0;
  repair_steps = 24;
  repair_step_days = 15.0;
  ships = 60;
  partition_threshold_pct = 50.0;
}

void parse_request(std::string_view line, ScenarioRequest& out) {
  out.reset();
  Cursor cur{line};
  cur.expect('{', "to open the request object");
  cur.skip_ws();
  bool first = true;
  while (true) {
    cur.skip_ws();
    if (!cur.at_end() && cur.peek() == '}') {
      ++cur.pos;
      break;
    }
    if (!first) parse_fail("expected ',' or '}' after value");
    first = false;
    while (true) {
      const std::string_view field = cur.string_token();
      cur.expect(':', "after field name");
      if (field == "cmd") {
        const std::string_view v = cur.string_token();
        if (v == "report") {
          out.kind = RequestKind::kReport;
        } else if (v == "sweep") {
          out.kind = RequestKind::kSweep;
        } else if (v == "stats") {
          out.kind = RequestKind::kStats;
        } else if (v == "shutdown") {
          out.kind = RequestKind::kShutdown;
        } else if (v == "timeline") {
          out.kind = RequestKind::kTimeline;
        } else {
          value_fail("must be report|sweep|timeline|stats|shutdown", field);
        }
      } else if (field == "network") {
        const std::string_view v = cur.string_token();
        if (v != "submarine" && v != "intertubes" && v != "itu") {
          value_fail("must be submarine|intertubes|itu", field);
        }
        out.network = v;
      } else if (field == "model") {
        const std::string_view v = cur.string_token();
        if (v != "s1" && v != "s2" && v != "uniform") {
          value_fail("must be s1|s2|uniform", field);
        }
        out.model = v;
      } else if (field == "engine") {
        const std::string_view v = cur.string_token();
        if (v == "auto") {
          out.engine = sim::TrialEngine::kAuto;
        } else if (v == "scalar") {
          out.engine = sim::TrialEngine::kScalar;
        } else {
          value_fail("must be auto|scalar", field);
        }
      } else if (field == "p") {
        out.uniform_p = probability(cur.number_token(field), field);
      } else if (field == "spacing") {
        const double v = cur.number_token(field);
        if (!std::isfinite(v) || v <= 0.0) {
          value_fail("must be finite and > 0", field);
        }
        out.spacing_km = v;
      } else if (field == "trials") {
        out.trials = positive_integer(cur.number_token(field), field);
      } else if (field == "seed") {
        out.seed = nonnegative_integer(cur.number_token(field), field);
      } else if (field == "quorum") {
        out.quorum = positive_integer(cur.number_token(field), field);
      } else if (field == "dns_threshold") {
        const double v = cur.number_token(field);
        if (!(v >= 0.0 && v <= 100.0)) {
          value_fail("must be in [0, 100]", field);
        }
        out.dns_threshold_pct = v;
      } else if (field == "traffic") {
        out.traffic = cur.flag_token(field);
      } else if (field == "demand_pairs") {
        out.demand_pairs = static_cast<std::size_t>(
            nonnegative_integer(cur.number_token(field), field));
        if (out.demand_pairs > kMaxDemandPairs) {
          value_fail("too many demand pairs (max 10000000)", field);
        }
      } else if (field == "step_hours") {
        const double v = cur.number_token(field);
        if (!std::isfinite(v) || v <= 0.0 || v > 72.0) {
          value_fail("must be in (0, 72]", field);
        }
        out.timeline_step_hours = v;
      } else if (field == "repair_steps") {
        out.repair_steps = positive_integer(cur.number_token(field), field);
        if (out.repair_steps > kMaxRepairSteps) {
          value_fail("too many repair steps (max 4096)", field);
        }
      } else if (field == "repair_step_days") {
        const double v = cur.number_token(field);
        if (!std::isfinite(v) || v <= 0.0 || v > 365.0) {
          value_fail("must be in (0, 365]", field);
        }
        out.repair_step_days = v;
      } else if (field == "ships") {
        out.ships = positive_integer(cur.number_token(field), field);
        if (out.ships > kMaxShips) {
          value_fail("too many ships (max 100000)", field);
        }
      } else if (field == "partition_threshold") {
        const double v = cur.number_token(field);
        if (!(v >= 0.0 && v <= 100.0)) {
          value_fail("must be in [0, 100]", field);
        }
        out.partition_threshold_pct = v;
      } else if (field == "grid") {
        cur.expect('[', "to open the grid array");
        cur.skip_ws();
        if (!cur.at_end() && cur.peek() == ']') {
          ++cur.pos;
        } else {
          while (true) {
            if (out.grid.size() >= kMaxGridPoints) {
              value_fail("too many grid points (max 4096)", field);
            }
            out.grid.push_back(probability(cur.number_token(field), field));
            cur.skip_ws();
            if (!cur.at_end() && cur.peek() == ',') {
              ++cur.pos;
              continue;
            }
            cur.expect(']', "to close the grid array");
            break;
          }
        }
        // Canonical order: responses report points ascending, so two
        // permutations of the same grid are the same scenario (and hash to
        // the same cache key).
        std::sort(out.grid.begin(), out.grid.end());
      } else {
        value_fail("unknown field", field);
      }
      cur.skip_ws();
      if (!cur.at_end() && cur.peek() == ',') {
        ++cur.pos;
        continue;
      }
      break;
    }
  }
  cur.skip_ws();
  if (!cur.at_end()) parse_fail("trailing characters after request object");
  // Sampled demand pairs imply the traffic section, as --demand-pairs does
  // on the CLI; this also gives both spellings one cache and engine key.
  if (out.demand_pairs > 0) out.traffic = true;
}

void build_cache_key(const ScenarioRequest& req,
                     std::uint64_t network_fingerprint,
                     std::uint64_t observer_salt, util::ByteWriter& key) {
  key.clear();
  fold_common(req, network_fingerprint, observer_salt, key);
  key.u64(req.trials);
  key.u64(req.seed);
}

void build_engine_key(const ScenarioRequest& req,
                      std::uint64_t network_fingerprint,
                      std::uint64_t observer_salt, util::ByteWriter& key) {
  key.clear();
  fold_common(req, network_fingerprint, observer_salt, key);
  // Only the report pipeline reads the engine choice; sweeps and timelines
  // share one pooled engine whatever the request asks for.
  if (req.kind == RequestKind::kReport) {
    key.u8(static_cast<std::uint8_t>(req.engine));
  }
}

}  // namespace solarnet::server
