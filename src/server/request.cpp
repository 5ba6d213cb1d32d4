#include "server/request.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <utility>

#include "gic/timeline.h"
#include "sim/timeline_engine.h"
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

// Smallest repeater spacing a request may ask for. Deployed systems space
// repeaters 50-150 km apart; 10 km already means about 209k repeaters on
// the 2,087,002 km ITU network, and a much smaller spacing would ask the
// simulator for billions of repeater positions.
constexpr double kMinSpacingKm = 10.0;

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

  void skip_ws() noexcept {
    while (pos < text.size() &&
           (text[pos] == ' ' || text[pos] == '\t' || text[pos] == '\r')) {
      ++pos;
    }
  }

  // Skips whitespace, then steps over `c` when it comes next.
  bool consume(char c) noexcept {
    skip_ws();
    if (at_end() || text[pos] != c) return false;
    ++pos;
    return true;
  }

  void expect(char c, std::string_view what) {
    if (!consume(c)) {
      parse_fail("expected '" + std::string(1, c) + "' " + std::string(what));
    }
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

  // A JSON boolean as 1 or 0, or a number.
  double flag_token(std::string_view field) {
    skip_ws();
    const bool is_true = text.substr(pos, 4) == "true";
    if (is_true || text.substr(pos, 5) == "false") {
      pos += is_true ? 4 : 5;
      return is_true ? 1.0 : 0.0;
    }
    return number_token(field);
  }
};

// The fields, in the order field_named tries them; text fields first.
enum class Field : std::uint8_t {
  kCmd, kNetwork, kModel, kEngine, kP, kSpacing, kTrials, kSeed, kQuorum,
  kDnsThreshold, kTraffic, kDemandPairs, kStepHours, kRepairSteps,
  kRepairStepDays, kShips, kPartitionThreshold, kGrid
};

constexpr std::string_view kFieldNames[] = {
    "cmd", "network", "model", "engine", "p", "spacing", "trials", "seed",
    "quorum", "dns_threshold", "traffic", "demand_pairs", "step_hours",
    "repair_steps", "repair_step_days", "ships", "partition_threshold", "grid"};
static_assert(std::size(kFieldNames) ==
              static_cast<std::size_t>(Field::kGrid) + 1);

constexpr std::string_view kKindNames[] = {  // indexed by RequestKind
    "report", "sweep", "stats", "shutdown", "timeline"};
constexpr std::string_view kNetworks[] = {"submarine", "intertubes", "itu"};
constexpr std::string_view kModels[] = {"s1", "s2", "uniform"};

// The index of `v` in `names`; value_fail(message) when it is not there.
template <std::size_t N>
std::size_t one_of(std::string_view v, const std::string_view (&names)[N],
                   const char* message, std::string_view field) {
  for (std::size_t i = 0; i < N; ++i) {
    if (names[i] == v) return i;
  }
  value_fail(message, field);
}

Field field_named(std::string_view name) {
  return static_cast<Field>(one_of(name, kFieldNames, "unknown field", name));
}

// The number fields' checks; each rejects NaN.
std::uint64_t integer_at_least(double value, int min, std::string_view field) {
  if (!(value >= min) || value != std::floor(value) || value > 1e15) {
    value_fail(min == 0 ? "must be an integer >= 0" : "must be an integer >= 1",
               field);
  }
  return static_cast<std::uint64_t>(value);
}

double at_most_from_zero(double value, double max, const char* message,
                         std::string_view field) {
  if (!(value >= 0.0 && value <= max)) value_fail(message, field);
  return value;
}

double positive_at_most(double value, double max, const char* message,
                        std::string_view field) {
  if (!std::isfinite(value) || value <= 0.0 || value > max) {
    value_fail(message, field);
  }
  return value;
}

std::size_t at_most(std::size_t value, std::size_t max, const char* message,
                    std::string_view field) {
  if (value > max) value_fail(message, field);
  return value;
}

void set_text(ScenarioRequest& req, Field field, std::string_view v) {
  const std::string_view name = kFieldNames[static_cast<std::size_t>(field)];
  switch (field) {
    case Field::kCmd:
      req.kind = static_cast<RequestKind>(one_of(
          v, kKindNames, "must be report|sweep|timeline|stats|shutdown",
          name));
      return;
    case Field::kNetwork:
      req.network =
          kNetworks[one_of(v, kNetworks, "must be submarine|intertubes|itu",
                           name)];
      return;
    case Field::kModel:
      req.model = kModels[one_of(v, kModels, "must be s1|s2|uniform", name)];
      return;
    case Field::kEngine:
      if (v != "auto" && v != "scalar") value_fail("must be auto|scalar", name);
      req.engine = v == "auto" ? sim::TrialEngine::kAuto
                               : sim::TrialEngine::kScalar;
      return;
    default:
      value_fail("must be a number", name);
  }
}

void set_number(ScenarioRequest& req, Field field, double v) {
  const std::string_view name = kFieldNames[static_cast<std::size_t>(field)];
  switch (field) {
    case Field::kP:
      req.uniform_p = at_most_from_zero(v, 1.0, "must be in [0, 1]", name);
      return;
    case Field::kSpacing:
      if (!(v >= kMinSpacingKm) || !std::isfinite(v)) {
        value_fail("must be finite and >= 10 (km)", name);
      }
      req.spacing_km = v;
      return;
    case Field::kTrials:
      req.trials = integer_at_least(v, 1, name);
      return;
    case Field::kSeed:
      req.seed = integer_at_least(v, 0, name);
      return;
    case Field::kQuorum:
      req.quorum = integer_at_least(v, 1, name);
      return;
    case Field::kDnsThreshold:
      req.dns_threshold_pct =
          at_most_from_zero(v, 100.0, "must be in [0, 100]", name);
      return;
    case Field::kTraffic:
      if (v != 0.0 && v != 1.0) value_fail("must be true, false, 0 or 1", name);
      req.traffic = v == 1.0;
      return;
    case Field::kDemandPairs:
      req.demand_pairs = at_most(integer_at_least(v, 0, name), kMaxDemandPairs,
                                 "too many demand pairs (max 10000000)", name);
      return;
    case Field::kStepHours:
      req.timeline_step_hours =
          positive_at_most(v, 72.0, "must be in (0, 72]", name);
      if (sim::TimelineConfig::profile_step_count(gic::StormPhaseProfile{},
                                                  v) >
          sim::TimelineConfig::kMaxStormSteps) {
        value_fail("too many storm steps (max 4096)", name);
      }
      return;
    case Field::kRepairSteps:
      req.repair_steps = at_most(integer_at_least(v, 1, name), kMaxRepairSteps,
                                 "too many repair steps (max 4096)", name);
      return;
    case Field::kRepairStepDays:
      req.repair_step_days =
          positive_at_most(v, 365.0, "must be in (0, 365]", name);
      return;
    case Field::kShips:
      req.ships = at_most(integer_at_least(v, 1, name), kMaxShips,
                          "too many ships (max 100000)", name);
      return;
    case Field::kPartitionThreshold:
      req.partition_threshold_pct =
          at_most_from_zero(v, 100.0, "must be in [0, 100]", name);
      return;
    case Field::kGrid:
      at_most(req.grid.size() + 1, kMaxGridPoints,
              "too many grid points (max 4096)", name);
      req.grid.push_back(at_most_from_zero(v, 1.0, "must be in [0, 1]", name));
      return;
    default:
      value_fail("must be a string", name);
  }
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
  const auto i = static_cast<std::size_t>(kind);
  return i < std::size(kKindNames) ? kKindNames[i] : "?";
}

void ScenarioRequest::reset() {
  std::vector<double> points = std::move(grid);  // keeps its capacity
  points.clear();
  *this = ScenarioRequest{};
  grid = std::move(points);
}

void set_field(ScenarioRequest& req, std::string_view field,
               std::string_view value) {
  set_text(req, field_named(field), value);
}

void set_field(ScenarioRequest& req, std::string_view field, double value) {
  set_number(req, field_named(field), value);
}

void finish_request(ScenarioRequest& req) {
  // Canonical order: responses report points ascending, so two
  // permutations of the same grid are the same scenario (and hash to the
  // same cache key).
  std::sort(req.grid.begin(), req.grid.end());
  // Sampled demand pairs imply the traffic section; this also gives both
  // spellings one cache and engine key.
  if (req.demand_pairs > 0) req.traffic = true;
}

void parse_request(std::string_view line, ScenarioRequest& out) {
  out.reset();
  Cursor cur{line};
  cur.expect('{', "to open the request object");
  if (!cur.consume('}')) {
    do {
      const std::string_view name = cur.string_token();
      cur.expect(':', "after field name");
      // Before the value, so an unknown field is named whatever its type.
      const Field field = field_named(name);
      if (field <= Field::kEngine) {
        set_text(out, field, cur.string_token());
      } else if (field == Field::kTraffic) {
        set_number(out, field, cur.flag_token(name));
      } else if (field != Field::kGrid) {
        set_number(out, field, cur.number_token(name));
      } else {
        cur.expect('[', "to open the grid array");
        if (!cur.consume(']')) {
          do {
            set_number(out, field, cur.number_token(name));
          } while (cur.consume(','));
          cur.expect(']', "to close the grid array");
        }
      }
    } while (cur.consume(','));
    if (!cur.consume('}')) parse_fail("expected ',' or '}' after value");
  }
  cur.skip_ws();
  if (!cur.at_end()) parse_fail("trailing characters after request object");
  finish_request(out);
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
