#include "cli_args.h"

#include <charconv>
#include <cmath>
#include <string_view>

#include "sim/monte_carlo.h"
#include "util/status.h"
#include "util/strings.h"

namespace solarnet::cli {

namespace {

// A scenario flag (without "--"), the request field it sets and the verbs
// that read it. The flag sets the preset if there is one, else its own
// value: text, or numbers (comma-separated for the grid).
struct FlagField {
  std::string_view flag, field;
  bool text;
  std::string_view verbs, preset = {};
};

// Rows apply in order, so of --s1, --s2 and --uniform the last row wins.
constexpr FlagField kFlagFields[] = {
    {"s1", "model", true, "report timeline", "s1"},
    {"s2", "model", true, "report timeline", "s2"},
    {"uniform", "model", true, "report timeline", "uniform"},
    {"uniform", "p", false, "report timeline"},
    {"spacing", "spacing", false, "report sweep timeline"},
    {"trials", "trials", false, "report sweep timeline"},
    {"seed", "seed", false, "report sweep timeline"},
    {"quorum", "quorum", false, "report"},
    {"dns-threshold", "dns_threshold", false, "report"},
    {"traffic", "traffic", false, "report", "1"},
    {"demand-pairs", "traffic", false, "report", "1"},
    {"demand-pairs", "demand_pairs", false, "report"},
    {"network", "network", true, "sweep timeline"},
    {"grid", "grid", false, "sweep"},
    {"step", "step_hours", false, "timeline"},
    {"repair-steps", "repair_steps", false, "timeline"},
    {"repair-step-days", "repair_step_days", false, "timeline"},
    {"ships", "ships", false, "timeline"},
    {"partition-threshold", "partition_threshold", false, "timeline"},
};

}  // namespace

Args Args::parse(int argc, char** argv) {
  Args args;
  int i = 1;
  if (i < argc && argv[i][0] != '-') {
    args.command_ = argv[i];
    ++i;
  }
  while (i < argc) {
    std::string key = argv[i];
    if (key.rfind("--", 0) == 0) key = key.substr(2);
    ++i;
    if (i < argc && std::string(argv[i]).rfind("--", 0) != 0) {
      args.values_[key] = argv[i];
      ++i;
    } else {
      args.values_[key] = "";
    }
  }
  return args;
}

bool Args::has(const std::string& key) const {
  return values_.count(key) > 0;
}

std::optional<std::string> Args::get(const std::string& key) const {
  const auto it = values_.find(key);
  if (it == values_.end()) return std::nullopt;
  return it->second;
}

std::string Args::get_or(const std::string& key, std::string fallback) const {
  const auto v = get(key);
  return v && !v->empty() ? *v : fallback;
}

double Args::get_double_or(const std::string& key, double fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  const double value = util::parse_double(*v);
  if (!std::isfinite(value)) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "must be a finite number, got '" + *v + "'",
                      {"command line", 0, "--" + key});
  }
  return value;
}

std::size_t Args::get_count_or(const std::string& key,
                               std::size_t fallback) const {
  const auto v = get(key);
  if (!v || v->empty()) return fallback;
  const std::string_view text = util::trim(*v);
  std::size_t value = 0;
  const auto [ptr, ec] =
      std::from_chars(text.data(), text.data() + text.size(), value);
  if (ec != std::errc() || ptr != text.data() + text.size()) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "must be an integer >= 0, got '" + *v + "'",
                      {"command line", 0, "--" + key});
  }
  return value;
}

std::size_t thread_count(const Args& args) {
  const std::size_t threads = args.get_count_or("threads", 0);
  if (threads > sim::kMaxReasonableThreads) {
    throw util::Error(util::ErrorCode::kInvalidArgument,
                      "must be at most " +
                          std::to_string(sim::kMaxReasonableThreads) +
                          ", got '" + args.get_or("threads", "") + "'",
                      {"command line", 0, "--threads"});
  }
  return threads;
}

server::ScenarioRequest scenario_request(const Args& args,
                                         server::RequestKind verb) {
  server::ScenarioRequest req;
  req.kind = verb;
  if (verb == server::RequestKind::kSweep) req.seed = 1859;
  if (verb == server::RequestKind::kTimeline) req.trials = 64;
  for (const FlagField& row : kFlagFields) {
    const std::optional<std::string> given = args.get(std::string(row.flag));
    if (!given || row.verbs.find(to_string(verb)) == std::string_view::npos) {
      continue;
    }
    const std::string value =
        row.preset.empty() ? *given : std::string(row.preset);
    if (value.empty()) continue;  // a bare flag keeps the field's default
    if (row.text) {
      server::set_field(req, row.field, value);
    } else if (row.field != "grid") {
      server::set_field(req, row.field, util::parse_double(value));
    } else {
      for (const std::string& point : util::split(value, ',')) {
        server::set_field(req, row.field, util::parse_double(point));
      }
    }
  }
  server::finish_request(req);
  return req;
}

}  // namespace solarnet::cli
