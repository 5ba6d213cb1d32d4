#include "datasets/loaders.h"

#include <cmath>
#include <stdexcept>
#include <unordered_set>

#include "util/csv.h"
#include "util/status.h"
#include "util/strings.h"

namespace solarnet::datasets {

namespace {

std::string bool_to_csv(bool b) { return b ? "1" : "0"; }

bool csv_to_bool(const std::string& s) {
  if (s == "1" || util::iequals(s, "true")) return true;
  if (s == "0" || util::iequals(s, "false")) return false;
  throw std::invalid_argument("loaders: malformed boolean '" + s + "'");
}

bool cell_bool(const util::CsvTable& table, std::size_t row,
               std::string_view column) {
  const std::string& text = table.cell(row, column);
  try {
    return csv_to_bool(text);
  } catch (const std::invalid_argument&) {
    throw util::Error(util::ErrorCode::kParseError,
                      "'" + text + "' is not a boolean",
                      table.context(row, column));
  }
}

// Reads and validates a lat/lon pair. cell_double rejects non-numeric text
// with file:line context; geo::validated rejects NaN/Inf and out-of-range
// coordinates, which we re-throw with the same provenance instead of the
// context-free invalid_argument the geo layer produces.
geo::GeoPoint cell_point(const util::CsvTable& table, std::size_t row) {
  const double lat = table.cell_double(row, "lat");
  const double lon = table.cell_double(row, "lon");
  try {
    return geo::validated({lat, lon});
  } catch (const std::exception& e) {
    throw util::Error(util::ErrorCode::kInvalidData, e.what(),
                      table.context(row, "lat/lon"));
  }
}

}  // namespace

topo::NodeKind parse_node_kind(const std::string& s) {
  for (const auto kind :
       {topo::NodeKind::kLandingPoint, topo::NodeKind::kCity,
        topo::NodeKind::kRouter, topo::NodeKind::kIxp,
        topo::NodeKind::kDnsRoot, topo::NodeKind::kDataCenter}) {
    if (s == to_string(kind)) return kind;
  }
  throw std::invalid_argument("parse_node_kind: unknown kind '" + s + "'");
}

topo::CableKind parse_cable_kind(const std::string& s) {
  for (const auto kind :
       {topo::CableKind::kSubmarine, topo::CableKind::kLandLongHaul,
        topo::CableKind::kLandRegional}) {
    if (s == to_string(kind)) return kind;
  }
  throw std::invalid_argument("parse_cable_kind: unknown kind '" + s + "'");
}

topo::InfrastructureNetwork load_network_csv(const std::string& network_name,
                                             const std::string& nodes_path,
                                             const std::string& cables_path) {
  topo::InfrastructureNetwork net(network_name);

  const util::CsvTable nodes(util::read_csv_document(nodes_path));
  for (std::size_t r = 0; r < nodes.row_count(); ++r) {
    topo::Node n;
    n.name = nodes.cell(r, "name");
    n.location = cell_point(nodes, r);
    n.country_code = nodes.cell(r, "country");
    try {
      n.kind = parse_node_kind(nodes.cell(r, "kind"));
    } catch (const std::invalid_argument& e) {
      throw util::Error(util::ErrorCode::kInvalidData, e.what(),
                        nodes.context(r, "kind"));
    }
    n.coords_authoritative = cell_bool(nodes, r, "coords_authoritative");
    try {
      net.add_node(std::move(n));
    } catch (const std::invalid_argument& e) {
      // Duplicate or empty node name.
      throw util::Error(util::ErrorCode::kInvalidData, e.what(),
                        nodes.context(r, "name"));
    }
  }

  const util::CsvTable cables(util::read_csv_document(cables_path));
  // Group consecutive rows by cable name; a name that reappears after its
  // group ended would silently create a second cable with the same name,
  // so reject it as a duplicate.
  std::unordered_set<std::string> flushed_names;
  topo::Cable current;
  bool have_current = false;
  auto flush = [&] {
    if (have_current) {
      flushed_names.insert(current.name);
      net.add_cable(std::move(current));
    }
    current = topo::Cable{};
    have_current = false;
  };
  for (std::size_t r = 0; r < cables.row_count(); ++r) {
    const std::string& name = cables.cell(r, "cable");
    if (!have_current || current.name != name) {
      if (flushed_names.count(name) != 0) {
        throw util::Error(util::ErrorCode::kInvalidData,
                          "cable '" + name +
                              "' appears in non-consecutive row groups "
                              "(duplicate cable?)",
                          cables.context(r, "cable"));
      }
      flush();
      current.name = name;
      try {
        current.kind = parse_cable_kind(cables.cell(r, "kind"));
      } catch (const std::invalid_argument& e) {
        throw util::Error(util::ErrorCode::kInvalidData, e.what(),
                          cables.context(r, "kind"));
      }
      current.length_known = cell_bool(cables, r, "length_known");
      have_current = true;
    }
    const auto a = net.find_node(cables.cell(r, "node_a"));
    const auto b = net.find_node(cables.cell(r, "node_b"));
    if (!a || !b) {
      throw util::Error(
          util::ErrorCode::kInvalidData,
          "cable '" + name + "' references unknown node '" +
              cables.cell(r, !a ? "node_a" : "node_b") + "'",
          cables.context(r, !a ? "node_a" : "node_b"));
    }
    const double length_km = cables.cell_double(r, "length_km");
    if (!std::isfinite(length_km) || length_km < 0.0) {
      throw util::Error(util::ErrorCode::kInvalidData,
                        "segment length must be finite and non-negative, got " +
                            cables.cell(r, "length_km"),
                        cables.context(r, "length_km"));
    }
    current.segments.push_back({*a, *b, length_km});
  }
  flush();
  return net;
}

void write_network_csv(const topo::InfrastructureNetwork& net,
                       const std::string& nodes_path,
                       const std::string& cables_path) {
  std::vector<util::CsvRow> node_rows;
  node_rows.push_back(
      {"name", "lat", "lon", "country", "kind", "coords_authoritative"});
  for (const topo::Node& n : net.nodes()) {
    node_rows.push_back({n.name, util::format_fixed(n.location.lat_deg, 6),
                         util::format_fixed(n.location.lon_deg, 6),
                         n.country_code, std::string(to_string(n.kind)),
                         bool_to_csv(n.coords_authoritative)});
  }
  util::write_csv_file(nodes_path, node_rows);

  std::vector<util::CsvRow> cable_rows;
  cable_rows.push_back(
      {"cable", "kind", "node_a", "node_b", "length_km", "length_known"});
  for (const topo::Cable& c : net.cables()) {
    for (const topo::CableSegment& s : c.segments) {
      // Six decimals (~1 mm) so repeater counts never shift across a
      // round-trip from floor(length/spacing) boundary effects.
      cable_rows.push_back({c.name, std::string(to_string(c.kind)),
                            net.node(s.a).name, net.node(s.b).name,
                            util::format_fixed(s.length_km, 6),
                            bool_to_csv(c.length_known)});
    }
  }
  util::write_csv_file(cables_path, cable_rows);
}

void write_router_csv(const RouterDataset& ds, const std::string& path) {
  std::vector<util::CsvRow> rows;
  rows.push_back({"lat", "lon", "as_id"});
  for (const RouterRecord& r : ds.routers()) {
    rows.push_back({util::format_fixed(r.location.lat_deg, 6),
                    util::format_fixed(r.location.lon_deg, 6),
                    std::to_string(r.as_id)});
  }
  util::write_csv_file(path, rows);
}

void write_points_csv(const std::vector<InfraPoint>& points,
                      const std::string& path) {
  std::vector<util::CsvRow> rows;
  rows.push_back({"name", "lat", "lon", "country"});
  for (const InfraPoint& p : points) {
    rows.push_back({p.name, util::format_fixed(p.location.lat_deg, 6),
                    util::format_fixed(p.location.lon_deg, 6),
                    p.country_code});
  }
  util::write_csv_file(path, rows);
}

void write_dns_csv(const std::vector<DnsRootInstance>& instances,
                   const std::string& path) {
  std::vector<util::CsvRow> rows;
  rows.push_back({"letter", "lat", "lon", "country"});
  for (const DnsRootInstance& d : instances) {
    rows.push_back({std::string(1, d.root_letter),
                    util::format_fixed(d.location.lat_deg, 6),
                    util::format_fixed(d.location.lon_deg, 6),
                    d.country_code});
  }
  util::write_csv_file(path, rows);
}

}  // namespace solarnet::datasets
