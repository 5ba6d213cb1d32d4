// CSV export for every dataset, so generated worlds can be dumped for
// external plotting, and CSV import for networks, so real exports
// (TeleGeography, Intertubes) can replace the synthetic generators.
//
// Formats (all with a header row):
//   nodes.csv   name,lat,lon,country,kind,coords_authoritative
//   cables.csv  cable,kind,node_a,node_b,length_km,length_known
//               (one row per segment; consecutive rows of the same cable
//                name form that cable's segments)
//   routers.csv lat,lon,as_id
//   points.csv  name,lat,lon,country
//   dns.csv     letter,lat,lon,country
#pragma once

#include <string>
#include <vector>

#include "datasets/infra_points.h"
#include "datasets/routers.h"
#include "topology/network.h"

namespace solarnet::datasets {

// --- network (nodes + cables) -----------------------------------------------
topo::InfrastructureNetwork load_network_csv(const std::string& network_name,
                                             const std::string& nodes_path,
                                             const std::string& cables_path);
void write_network_csv(const topo::InfrastructureNetwork& net,
                       const std::string& nodes_path,
                       const std::string& cables_path);

// String forms used in the CSV files; throw std::invalid_argument on
// unknown values when parsing.
topo::NodeKind parse_node_kind(const std::string& s);
topo::CableKind parse_cable_kind(const std::string& s);

// --- routers -----------------------------------------------------------------
void write_router_csv(const RouterDataset& ds, const std::string& path);

// --- point infrastructure -----------------------------------------------------
void write_points_csv(const std::vector<InfraPoint>& points,
                      const std::string& path);
void write_dns_csv(const std::vector<DnsRootInstance>& instances,
                   const std::string& path);

}  // namespace solarnet::datasets
