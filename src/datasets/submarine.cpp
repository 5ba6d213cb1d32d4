#include "datasets/submarine.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "datasets/cities.h"
#include "geo/distance.h"
#include "geo/regions.h"
#include "topology/builders.h"
#include "util/rng.h"

namespace solarnet::datasets {

namespace {

std::vector<AnchorCable> build_anchor_cables() {
  std::vector<AnchorCable> a;
  auto add = [&](const char* name, double len,
                 std::vector<std::string> stops,
                 std::vector<std::pair<std::string, std::string>> branches =
                     {}) {
    a.push_back({name, len, std::move(stops), std::move(branches)});
  };

  // ---- Transatlantic (North-East US / Canada <-> Europe) ----------------
  add("TAT-14", 15428,
      {"Manasquan NJ", "Tuckerton NJ", "Bude", "Katwijk", "Norden",
       "Fredericia"});
  add("Atlantic Crossing-1", 14301, {"Shirley NY", "Bude", "Norden"});
  add("AC-2 Yellow", 7001, {"Shirley NY", "Bude"});
  add("Apollo", 13000, {"Shirley NY", "Bude", "Brest", "Manasquan NJ"});
  add("FLAG Atlantic-1", 14500, {"Shirley NY", "Brest", "Porthcurno"});
  add("TGN-Atlantic", 13000, {"Wall Township NJ", "Highbridge"});
  add("AEC-1", 5536, {"Shirley NY", "Cork"});
  add("Havfrue AEC-2", 7200,
      {"Wall Township NJ", "Cork", "Kristiansand", "Fredericia"});
  add("MAREA", 6605, {"Virginia Beach", "Sopelana"});
  add("Dunant", 6400, {"Virginia Beach", "Saint-Hilaire-de-Riez"});
  add("Grace Hopper", 7191, {"Shirley NY", "Bude", "Sopelana"});
  add("Amitie", 6792, {"Lynn MA", "Bude", "Bordeaux"});
  add("GTT Express", 4600, {"Halifax", "Cork", "Highbridge"});
  add("Hibernia Atlantic", 12200,
      {"Boston", "Halifax", "Dublin", "Southport"});
  add("Columbus-III", 9833, {"Hollywood FL", "Tenerife", "Carcavelos"});
  add("Greenland Connect", 4598, {"St Johns NL", "Nuuk", "Landeyjasandur"});

  // ---- Nordic / Baltic / intra-Europe shorts ----------------------------
  add("FARICE-1", 1400, {"Landeyjasandur", "Edinburgh"});
  add("DANICE", 2300, {"Landeyjasandur", "Fredericia"});
  add("CeltixConnect", 0, {"Dublin", "Southport"});
  add("ESAT-1", 0, {"Dublin", "Highbridge"});
  add("Sirius North", 0, {"Dublin", "Manchester"});
  add("Circe North", 0, {"Lowestoft", "Katwijk"});
  add("Concerto", 0, {"Lowestoft", "Ostend"});
  add("Rioja", 0, {"Porthcurno", "Brest"});
  add("NorSea Com-1", 0, {"Kristiansand", "Newcastle"});
  add("Skagenfiber", 0, {"Kristiansand", "Fredericia"});
  add("C-Lion1", 1173, {"Helsinki", "Hamburg"});
  add("BCS East-West", 0, {"Helsinki", "Stockholm"});
  add("Baltica", 0, {"Copenhagen", "Gothenburg"});
  add("Denmark-Poland 2", 0, {"Copenhagen", "Gdansk"});
  add("NorFest", 0, {"Oslo", "Copenhagen"});
  add("Scandinavian Ring", 0, {"Stockholm", "Helsinki"});
  add("Svalbard Cable System", 2714, {"Longyearbyen", "Bergen"});
  add("Pencan", 0, {"Cadiz", "Tenerife"});
  add("Italy-Greece 1", 0, {"Bari", "Athens"});
  add("Block Island Cable", 0, {"Narragansett RI", "Block Island RI"});

  // ---- Mediterranean / Europe <-> Asia ----------------------------------
  add("SEA-ME-WE-3", 39000,
      {"Norden", "Ostend", "Porthcurno", "Lisbon", "Catania", "Alexandria",
       "Suez", "Jeddah", "Djibouti City", "Karachi", "Mumbai", "Colombo",
       "Penang", "Singapore", "Da Nang", "Hong Kong", "Shantou", "Shanghai",
       "Keoje"},
      {{"Singapore", "Jakarta"}, {"Jakarta", "Perth"}});
  add("SEA-ME-WE-4", 18800,
      {"Marseille", "Palermo", "Alexandria", "Suez", "Jeddah", "Karachi",
       "Mumbai", "Colombo", "Chennai", "Penang", "Singapore"});
  add("SEA-ME-WE-5", 20000,
      {"Marseille", "Catania", "Suez", "Jeddah", "Djibouti City", "Karachi",
       "Mumbai", "Colombo", "Songkhla", "Penang", "Singapore"});
  add("AAE-1", 25000,
      {"Marseille", "Suez", "Jeddah", "Djibouti City", "Fujairah", "Karachi",
       "Mumbai", "Colombo", "Songkhla", "Penang", "Singapore", "Vung Tau",
       "Hong Kong"});
  add("IMEWE", 12091,
      {"Marseille", "Catania", "Alexandria", "Suez", "Jeddah", "Fujairah",
       "Karachi", "Mumbai"});
  add("Europe India Gateway", 15000,
      {"Bude", "Lisbon", "Marseille", "Alexandria", "Suez", "Djibouti City",
       "Muscat", "Fujairah", "Mumbai"});
  add("FLAG Europe-Asia", 28000,
      {"Porthcurno", "Lisbon", "Palermo", "Alexandria", "Suez", "Fujairah",
       "Mumbai", "Penang", "Hong Kong", "Shanghai", "Keoje", "Tokyo"});
  add("MedNautilus", 0, {"Athens", "Chania", "Tel Aviv", "Catania",
                         "Istanbul"});
  add("Atlas Offshore", 1634, {"Marseille", "Casablanca"});

  // ---- Africa ------------------------------------------------------------
  add("WACS", 14530,
      {"Melkbosstrand", "Luanda", "Lagos", "Accra", "Dakar", "Tenerife",
       "Seixal", "Highbridge"});
  add("SAT-3 SAFE", 28800,
      {"Lisbon", "Dakar", "Accra", "Lagos", "Luanda", "Melkbosstrand",
       "Mtunzini", "Kochi", "Penang"});
  add("Equiano", 15000, {"Lisbon", "Lagos", "Melkbosstrand"},
      {{"Lagos", "Accra"}});
  add("EASSy", 10000,
      {"Mtunzini", "Maputo", "Dar es Salaam", "Mombasa", "Mogadishu",
       "Djibouti City"});
  add("SEACOM", 15000,
      {"Mtunzini", "Maputo", "Dar es Salaam", "Mombasa", "Djibouti City",
       "Suez", "Marseille"},
      {{"Djibouti City", "Mumbai"}});
  add("LION-2", 0, {"Toliara", "Mombasa"});
  add("ACE", 17000,
      {"Brest", "Lisbon", "Tenerife", "Dakar", "Accra", "Lagos"});
  add("MainOne", 7000, {"Seixal", "Accra", "Lagos"});
  add("GLO-1", 9800,
      {"Bude", "Lisbon", "Casablanca", "Dakar", "Accra", "Lagos"});
  add("SACS", 6165, {"Fortaleza", "Luanda"});

  // ---- South Asia / Indian Ocean -----------------------------------------
  add("i2i Cable Network", 3175, {"Chennai", "Singapore"});
  add("Tata Indicom TIC", 3100, {"Chennai", "Singapore"});
  add("Bharat Lanka", 320, {"Tuticorin", "Colombo"});
  add("FALCON", 10300,
      {"Mumbai", "Kochi", "Muscat", "Fujairah", "Karachi", "Suez"});
  add("MENA", 8100,
      {"Mumbai", "Muscat", "Jeddah", "Suez", "Alexandria", "Catania"});

  // ---- Intra-Asia ---------------------------------------------------------
  add("APG", 10400,
      {"Singapore", "Mersing", "Songkhla", "Vung Tau", "Hong Kong",
       "Toucheng", "Nanhui", "Chongming", "Busan", "Chikura"});
  add("APCN-2", 19000,
      {"Singapore", "Penang", "Hong Kong", "Shantou", "Toucheng",
       "Chongming", "Busan", "Kitaibaraki", "Chikura", "Batangas"});
  add("EAC-C2C", 36800,
      {"Singapore", "Hong Kong", "Fangshan", "Toucheng", "Nanhui", "Qingdao",
       "Busan", "Maruyama", "Kitaibaraki", "Batangas"});
  add("SJC", 8900,
      {"Tuas", "Batam", "Songkhla", "Hong Kong", "Shantou", "Batangas",
       "Chikura"});
  add("ASE", 7800,
      {"Singapore", "Mersing", "Batangas", "Hong Kong", "Maruyama"});
  add("Matrix Cable", 1055, {"Ancol", "Tuas"});
  add("Hong Kong-Guam", 3900, {"Tseung Kwan O", "Piti"});
  add("Korea-Japan KJCN", 0, {"Busan", "Maruyama"});
  add("Qingdao-Korea", 0, {"Qingdao", "Busan"});
  add("Russia-Japan RJCN", 0, {"Kitaibaraki", "Vladivostok"});

  // ---- Trans-Pacific ------------------------------------------------------
  add("Asia-America Gateway", 20000,
      {"Tuas", "Mersing", "Songkhla", "Vung Tau", "Hong Kong", "Batangas",
       "Piti", "Kahe Point HI", "San Luis Obispo CA"});
  add("Trans-Pacific Express", 17700,
      {"Qingdao", "Chongming", "Keoje", "Toucheng", "Kitaibaraki",
       "Pacific City OR"});
  add("New Cross Pacific", 13618,
      {"Nanhui", "Chongming", "Busan", "Maruyama", "Toucheng",
       "Hillsboro OR"});
  add("FASTER", 11629, {"Shima", "Chikura", "Toucheng", "Bandon OR"});
  add("Unity", 9620, {"Chikura", "Manhattan Beach CA"});
  add("JUPITER", 14000,
      {"Maruyama", "Shima", "Batangas", "Pacific City OR",
       "Hermosa Beach CA"});
  add("PC-1", 21000, {"Shima", "Maruyama", "Seattle", "Grover Beach CA"});
  add("Tata TGN-Pacific", 22300, {"Chikura", "Shima", "Piti", "Hillsboro OR"});
  add("Japan-US CN", 22680,
      {"Maruyama", "Kitaibaraki", "Shima", "Kahe Point HI", "Point Arena CA"});
  add("Hong Kong-America", 13000, {"Chung Hom Kok", "Hermosa Beach CA"});
  add("PLCN", 12900, {"Toucheng", "Batangas", "Hermosa Beach CA"});
  add("SEA-US", 14500,
      {"Manado", "Davao", "Piti", "Kahe Point HI", "Hermosa Beach CA"});
  add("HANTRU1", 2917, {"Piti", "Pohnpei"});

  // ---- Oceania ------------------------------------------------------------
  add("Australia-Singapore Cable", 4600,
      {"Tuas", "Batam", "Jakarta", "Perth"});
  add("Indigo-West", 4600, {"Singapore", "Jakarta", "Perth"});
  add("Indigo-Central", 4850, {"Perth", "Sydney"});
  add("PPC-1", 6900, {"Sydney", "Port Moresby", "Piti"});
  add("Telstra Endeavour", 9125, {"Sydney", "Kahe Point HI"});
  add("Southern Cross", 30500,
      {"Alexandria NSW", "Takapuna", "Suva", "Kapolei HI",
       "Hermosa Beach CA"});
  add("Hawaiki", 15000,
      {"Paddington NSW", "Takapuna", "Kapolei HI", "Pacific City OR"});
  add("Tasman Global Access", 2288, {"Auckland", "Sydney"});
  add("Gondwana-1", 2100, {"Sydney", "Noumea"});
  add("Honotua", 3876, {"Papeete", "Hilo HI"});
  add("Paniolo Hawaii Inter-Island", 0,
      {"Honolulu", "Kahe Point HI", "Kapolei HI", "Hilo HI"});
  add("Bass Strait", 0, {"Melbourne", "Adelaide"});
  add("Australia-NZ South", 0, {"Christchurch", "Wellington", "Auckland"});

  // ---- Americas (Caribbean / South America) -------------------------------
  add("ARCOS-1", 8600,
      {"Miami", "Nassau", "Cancun", "Barranquilla", "Caracas", "San Juan PR"});
  add("Americas-II", 8373,
      {"Hollywood FL", "San Juan PR", "Charlotte Amalie VI", "Caracas",
       "Fortaleza"});
  add("MONET", 10556, {"Boca Raton FL", "Fortaleza", "Santos"});
  add("Seabras-1", 10800, {"Wall Township NJ", "Santos"});
  add("BRUSA", 11000,
      {"Virginia Beach", "San Juan PR", "Fortaleza", "Rio de Janeiro"});
  add("GlobeNet", 23500,
      {"Tuckerton NJ", "Fortaleza", "Rio de Janeiro", "Caracas",
       "Barranquilla"});
  add("SAm-1", 25000,
      {"Boca Raton FL", "San Juan PR", "Fortaleza", "Salvador",
       "Rio de Janeiro", "Santos", "Las Toninas", "Valparaiso", "Lurin",
       "Barranquilla"});
  add("Pan-American Crossing", 10000,
      {"Grover Beach CA", "Tijuana", "Mazatlan", "Panama City PA"});
  add("Curie", 10476, {"Manhattan Beach CA", "Valparaiso"},
      {{"Valparaiso", "Panama City PA"}});
  add("EllaLink", 6200, {"Fortaleza", "Sines"});
  add("Atlantis-2", 12000,
      {"Las Toninas", "Rio de Janeiro", "Fortaleza", "Dakar", "Tenerife",
       "Lisbon"});
  add("AMX-1", 17800,
      {"Jacksonville Beach FL", "Miami", "Cancun", "Barranquilla",
       "Cartagena", "Fortaleza", "Salvador", "Rio de Janeiro"});
  add("Maya-1", 4400,
      {"Hollywood FL", "Cancun", "San Jose CR", "Panama City PA"});
  add("BICS Bahamas", 0, {"Nassau", "West Palm Beach FL"});
  add("ALBA-1", 1860, {"Havana", "Caracas"});

  // ---- Alaska / Pacific Northwest ----------------------------------------
  add("AKORN", 3000, {"Nikiski AK", "Warrenton OR"});
  add("Alaska United East", 2100, {"Anchorage", "Juneau", "Seattle"});
  add("Juneau-Prince Rupert", 0, {"Juneau", "Prince Rupert BC"});

  return a;
}

// Names for synthetic landing points: "<city> Landing <n>".
std::string landing_name(const City& base, std::size_t n) {
  return base.name + " Landing " + std::to_string(n);
}

}  // namespace

const std::vector<AnchorCable>& anchor_cables() {
  static const std::vector<AnchorCable> anchors = build_anchor_cables();
  return anchors;
}

topo::InfrastructureNetwork make_submarine_network(
    const SubmarineConfig& config) {
  util::Rng rng(config.seed);
  topo::NetworkBuilder builder("submarine");

  auto node_for_city = [&](const City& c) {
    return builder.node(c.name, c.location, topo::NodeKind::kLandingPoint,
                        c.country_code);
  };

  // ---- 1. anchors ---------------------------------------------------------
  std::size_t cable_budget = config.total_cables;
  for (const AnchorCable& anchor : anchor_cables()) {
    if (cable_budget == 0) break;
    std::vector<topo::NodeId> trunk;
    trunk.reserve(anchor.stops.size());
    for (const std::string& stop : anchor.stops) {
      trunk.push_back(node_for_city(city(stop)));
    }
    // Great-circle per-hop lengths, scaled so the total matches the
    // published system length (cables meander, so stated > great-circle).
    std::vector<double> hop_gc(trunk.size() - 1, 0.0);
    double gc_total = 0.0;
    for (std::size_t i = 1; i < trunk.size(); ++i) {
      hop_gc[i - 1] = geo::haversine_km(city(anchor.stops[i - 1]).location,
                                        city(anchor.stops[i]).location);
      gc_total += hop_gc[i - 1];
    }
    std::vector<topo::CableSegment> branches;
    double branch_gc = 0.0;
    for (const auto& [from, to] : anchor.branches) {
      const double len =
          geo::haversine_km(city(from).location, city(to).location);
      branches.push_back(
          {node_for_city(city(from)), node_for_city(city(to)), len});
      branch_gc += len;
    }
    const double route_gc = gc_total + branch_gc;
    const double scale =
        (anchor.stated_length_km > 0.0 && route_gc > 0.0)
            ? anchor.stated_length_km / route_gc
            : 1.1;  // modest slack over the great circle
    for (double& h : hop_gc) h *= scale;
    for (auto& b : branches) b.length_km *= scale;
    builder.branched_cable(anchor.name, trunk, branches,
                           topo::CableKind::kSubmarine, hop_gc);
    --cable_budget;
  }

  // ---- 2. synthetic filler -------------------------------------------------
  const std::vector<City> coast = coastal_cities();
  // Continent weights for picking a cable's home region; tilted north so the
  // aggregate endpoint-latitude distribution matches the paper's skew
  // (~31% of landing points above |40 deg|).
  auto continent_weight = [](geo::Continent c) {
    switch (c) {
      case geo::Continent::kEurope:
        return 0.33;
      case geo::Continent::kNorthAmerica:
        return 0.20;
      case geo::Continent::kAsia:
        return 0.25;
      case geo::Continent::kAfrica:
        return 0.06;
      case geo::Continent::kSouthAmerica:
        return 0.06;
      case geo::Continent::kOceania:
        return 0.10;
      case geo::Continent::kAntarctica:
        return 0.0;
    }
    return 0.0;
  };
  std::vector<double> city_weights;
  city_weights.reserve(coast.size());
  for (const City& c : coast) {
    // A mild extra tilt toward high latitudes on top of the continent
    // weights (infrastructure concentrates north of the population).
    const double lat_tilt = c.location.abs_lat() > 40.0 ? 1.2 : 1.0;
    city_weights.push_back(continent_weight(geo::continent_at(c.location)) *
                           lat_tilt * (0.2 + std::sqrt(c.population_m)));
  }

  // Length mixture (km) for point-to-point systems. Together with the
  // festoon class below this is calibrated against the TeleGeography
  // summary stats the paper reports (median 775 km, p99 28,000 km, max
  // 39,000 km, 82/441 cables needing no repeater at 150 km).
  auto draw_target_length = [&]() {
    const double u = rng.uniform();
    if (u < 0.17) return rng.uniform(35.0, 149.0);  // repeaterless shorts
    double median, sigma, lo, cap;
    if (u < 0.57) {
      median = 350.0;
      sigma = 0.55;
      lo = 150.0;
      cap = 1100.0;
    } else if (u < 0.79) {
      median = 1200.0;
      sigma = 0.5;
      lo = 500.0;
      cap = 3500.0;
    } else if (u < 0.92) {
      median = 4000.0;
      sigma = 0.45;
      lo = 1800.0;
      cap = 10000.0;
    } else {
      median = 11000.0;
      sigma = 0.4;
      lo = 6000.0;
      cap = 30000.0;
    }
    const double len = median * std::exp(sigma * rng.normal());
    return std::clamp(len, lo, cap);
  };

  // Track synthetic landing points per base city so names stay unique.
  std::vector<std::size_t> landing_counter(coast.size(), 0);

  auto synth_landing = [&](std::size_t base_idx, double spread_deg) {
    const City& base = coast[base_idx];
    const std::size_t n = ++landing_counter[base_idx];
    geo::GeoPoint p = base.location;
    p.lat_deg = std::clamp(p.lat_deg + rng.uniform(-spread_deg, spread_deg),
                           -89.0, 89.0);
    p.lon_deg = geo::normalize_longitude(
        p.lon_deg + rng.uniform(-spread_deg, spread_deg));
    return builder.node(landing_name(base, n), p,
                        topo::NodeKind::kLandingPoint, base.country_code);
  };

  // Steers new-node probability so the network finishes near the target
  // landing-point count.
  auto new_node_probability = [&](std::size_t remaining_cables) {
    const std::size_t nodes_now = builder.network().node_count();
    const double nodes_needed =
        config.target_landing_points > nodes_now
            ? static_cast<double>(config.target_landing_points - nodes_now)
            : 0.0;
    return std::clamp(
        nodes_needed / std::max(1.0, 2.0 * static_cast<double>(
                                           std::max<std::size_t>(
                                               remaining_cables, 1))),
        0.05, 1.0);
  };

  std::size_t made = 0;
  const std::size_t synthetic_total = cable_budget;
  while (cable_budget > 0) {
    const std::size_t a_idx = rng.weighted_index(city_weights);
    const City& a = coast[a_idx];
    std::vector<topo::NodeId> stops;
    std::vector<double> hop;

    if (rng.bernoulli(0.27)) {
      // Festoon: a coastal chain of 3-6 landings with short repeaterless or
      // single-repeater hops, hugging the coast near one base city.
      const std::size_t landings = 3 + rng.uniform_below(4);
      for (std::size_t i = 0; i < landings; ++i) {
        const topo::NodeId n = synth_landing(a_idx, 1.4);
        if (!stops.empty() && n == stops.back()) continue;
        stops.push_back(n);
      }
      if (stops.size() < 2) continue;
      const auto& nodes = builder.network().nodes();
      for (std::size_t i = 1; i < stops.size(); ++i) {
        const double gc = geo::haversine_km(nodes[stops[i - 1]].location,
                                            nodes[stops[i]].location);
        // Coastal meander: 25-60% over the great circle.
        hop.push_back(std::max(20.0, gc * rng.uniform(1.25, 1.6)));
      }
    } else {
      // Point-to-point (optionally with intermediate landfalls) matched to
      // a drawn target length.
      const double target = draw_target_length();
      if (target <= 700.0) {
        // Short regional system: two fresh landings around the base city
        // (curated coastal cities are too sparse to pair at this range).
        const topo::NodeId n1 = synth_landing(a_idx, 0.8);
        const topo::NodeId n2 = synth_landing(a_idx, 0.8);
        if (n1 == n2) continue;
        stops = {n1, n2};
        hop = {target};
        ++made;
        const topo::CableId short_id = builder.trunk_cable(
            "Synthetic Cable " + std::to_string(made), stops,
            topo::CableKind::kSubmarine, hop);
        if (synthetic_total - cable_budget >=
            synthetic_total - config.cables_without_length) {
          builder.network().set_cable_length_known(short_id, false);
        }
        --cable_budget;
        continue;
      }
      std::vector<std::size_t> candidates;
      for (std::size_t i = 0; i < coast.size(); ++i) {
        if (i == a_idx) continue;
        const double gc = geo::haversine_km(a.location, coast[i].location);
        if (gc >= 0.55 * target && gc <= 1.02 * target) {
          candidates.push_back(i);
        }
      }
      if (candidates.empty()) continue;  // redraw
      const std::size_t b_idx =
          candidates[rng.uniform_below(candidates.size())];
      const City& b = coast[b_idx];

      const double p_new = new_node_probability(cable_budget);
      auto endpoint = [&](std::size_t idx) {
        if (rng.bernoulli(p_new)) return synth_landing(idx, 0.5);
        return builder.node(coast[idx].name, coast[idx].location,
                            topo::NodeKind::kLandingPoint,
                            coast[idx].country_code);
      };

      stops.push_back(endpoint(a_idx));
      // Longer systems often make 1-2 intermediate landfalls.
      const std::size_t mids =
          target > 1500.0 ? rng.uniform_below(target > 6000.0 ? 3 : 2) : 0;
      for (std::size_t m = 1; m <= mids; ++m) {
        const double t = static_cast<double>(m) / static_cast<double>(mids + 1);
        const geo::GeoPoint mid = geo::interpolate(
            a.location, b.location, std::clamp(t + rng.uniform(-0.1, 0.1),
                                               0.05, 0.95));
        std::size_t best = coast.size();
        double best_d = 0.30 * target;
        for (std::size_t i = 0; i < coast.size(); ++i) {
          if (i == a_idx || i == b_idx) continue;
          const double d = geo::haversine_km(mid, coast[i].location);
          if (d < best_d) {
            best_d = d;
            best = i;
          }
        }
        if (best != coast.size()) stops.push_back(endpoint(best));
      }
      stops.push_back(endpoint(b_idx));
      // Drop degenerate cables where endpoints resolved to the same node.
      if (stops.front() == stops.back()) continue;

      // Scale hop lengths so the cable total equals the drawn target.
      const auto& nodes = builder.network().nodes();
      double gc_total = 0.0;
      for (std::size_t i = 1; i < stops.size(); ++i) {
        hop.push_back(geo::haversine_km(nodes[stops[i - 1]].location,
                                        nodes[stops[i]].location));
        gc_total += hop.back();
      }
      if (gc_total <= 0.0) continue;
      const double scale = std::max(1.0, target / gc_total);
      for (double& h : hop) h *= scale;
    }

    ++made;
    const std::string name = "Synthetic Cable " + std::to_string(made);
    const topo::CableId id =
        builder.trunk_cable(name, stops, topo::CableKind::kSubmarine, hop);
    // The last cables_without_length synthetic cables mirror the map
    // entries that publish no length figure.
    if (synthetic_total - cable_budget >=
        synthetic_total - config.cables_without_length) {
      builder.network().set_cable_length_known(id, false);
    }
    --cable_budget;
  }

  return builder.take();
}

}  // namespace solarnet::datasets
