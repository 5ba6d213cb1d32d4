#include "datasets/loaders.h"

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <utility>

#include "datasets/land.h"
#include "datasets/submarine.h"
#include "util/csv.h"

namespace solarnet::datasets {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class LoadersTest : public ::testing::Test {
 protected:
  void TearDown() override {
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string track(std::string p) {
    cleanup_.push_back(p);
    return p;
  }
  std::vector<std::string> cleanup_;
};

TEST_F(LoadersTest, NetworkRoundTrip) {
  SubmarineConfig cfg;
  cfg.total_cables = 60;
  cfg.target_landing_points = 150;
  cfg.cables_without_length = 3;
  const auto original = make_submarine_network(cfg);

  const std::string nodes = track(temp_path("solarnet_nodes.csv"));
  const std::string cables = track(temp_path("solarnet_cables.csv"));
  write_network_csv(original, nodes, cables);
  const auto loaded = load_network_csv("submarine", nodes, cables);

  ASSERT_EQ(loaded.node_count(), original.node_count());
  ASSERT_EQ(loaded.cable_count(), original.cable_count());
  for (topo::NodeId i = 0; i < loaded.node_count(); ++i) {
    EXPECT_EQ(loaded.node(i).name, original.node(i).name);
    EXPECT_NEAR(loaded.node(i).location.lat_deg,
                original.node(i).location.lat_deg, 1e-5);
    EXPECT_EQ(loaded.node(i).country_code, original.node(i).country_code);
    EXPECT_EQ(loaded.node(i).kind, original.node(i).kind);
  }
  for (topo::CableId c = 0; c < loaded.cable_count(); ++c) {
    EXPECT_EQ(loaded.cable(c).name, original.cable(c).name);
    EXPECT_EQ(loaded.cable(c).segments.size(),
              original.cable(c).segments.size());
    EXPECT_EQ(loaded.cable(c).length_known, original.cable(c).length_known);
    EXPECT_NEAR(loaded.cable(c).total_length_km(),
                original.cable(c).total_length_km(), 0.1);
  }
}

TEST_F(LoadersTest, IntertubesRoundTripPreservesKind) {
  IntertubesConfig cfg;
  cfg.total_links = 40;
  cfg.target_nodes = 30;
  cfg.short_links = 20;
  const auto original = make_intertubes_network(cfg);
  const std::string nodes = track(temp_path("solarnet_it_nodes.csv"));
  const std::string cables = track(temp_path("solarnet_it_cables.csv"));
  write_network_csv(original, nodes, cables);
  const auto loaded = load_network_csv("intertubes", nodes, cables);
  EXPECT_EQ(loaded.cable(0).kind, topo::CableKind::kLandLongHaul);
}

TEST_F(LoadersTest, NetworkLoadRejectsUnknownNode) {
  const std::string nodes = track(temp_path("solarnet_badn.csv"));
  const std::string cables = track(temp_path("solarnet_badc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "1"}});
  util::write_csv_file(
      cables, {{"cable", "kind", "node_a", "node_b", "length_km",
                "length_known"},
               {"X", "submarine", "A", "GHOST", "100", "1"}});
  EXPECT_THROW(load_network_csv("bad", nodes, cables), std::runtime_error);
}

TEST_F(LoadersTest, NetworkLoadRejectsBadCoordinates) {
  const std::string cables = track(temp_path("solarnet_okc.csv"));
  util::write_csv_file(cables, {{"cable", "kind", "node_a", "node_b",
                                 "length_km", "length_known"}});
  const struct {
    const char* lat;
    const char* lon;
  } bad[] = {
      {"nan", "0"},      // NaN latitude
      {"0", "nan"},      // NaN longitude
      {"91", "0"},       // out of range (longitudes merely normalize)
      {"oops", "0"},     // not a number at all
  };
  for (const auto& b : bad) {
    const std::string nodes = track(temp_path("solarnet_badcoord.csv"));
    util::write_csv_file(
        nodes, {{"name", "lat", "lon", "country", "kind",
                 "coords_authoritative"},
                {"A", b.lat, b.lon, "US", "landing-point", "1"}});
    try {
      load_network_csv("bad", nodes, cables);
      FAIL() << "expected Error for lat=" << b.lat << " lon=" << b.lon;
    } catch (const util::Error& e) {
      // Data row is physical line 2: the diagnostic must say so.
      EXPECT_NE(std::string(e.what()).find(nodes + ":2"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(LoadersTest, NetworkLoadRejectsDuplicateNodeWithLocation) {
  const std::string nodes = track(temp_path("solarnet_dupn.csv"));
  const std::string cables = track(temp_path("solarnet_dupc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "1"},
              {"A", "1", "1", "US", "landing-point", "1"}});
  util::write_csv_file(cables, {{"cable", "kind", "node_a", "node_b",
                                 "length_km", "length_known"}});
  try {
    load_network_csv("bad", nodes, cables);
    FAIL() << "expected Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidData);
    EXPECT_NE(std::string(e.what()).find(nodes + ":3"), std::string::npos)
        << e.what();
  }
}

TEST_F(LoadersTest, NetworkLoadRejectsNonConsecutiveDuplicateCable) {
  const std::string nodes = track(temp_path("solarnet_ncn.csv"));
  const std::string cables = track(temp_path("solarnet_ncc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "1"},
              {"B", "1", "1", "GB", "landing-point", "1"}});
  // Cable X's rows are split by cable Y: silently merging them would hide
  // a duplicate-cable data bug.
  util::write_csv_file(
      cables,
      {{"cable", "kind", "node_a", "node_b", "length_km", "length_known"},
       {"X", "submarine", "A", "B", "100", "1"},
       {"Y", "submarine", "A", "B", "200", "1"},
       {"X", "submarine", "B", "A", "300", "1"}});
  try {
    load_network_csv("bad", nodes, cables);
    FAIL() << "expected Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kInvalidData);
    const std::string what = e.what();
    EXPECT_NE(what.find("non-consecutive"), std::string::npos);
    EXPECT_NE(what.find(cables + ":4"), std::string::npos) << what;
  }
}

TEST_F(LoadersTest, NetworkLoadRejectsBadCableLength) {
  const std::string nodes = track(temp_path("solarnet_bln.csv"));
  const std::string cables = track(temp_path("solarnet_blc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "1"},
              {"B", "1", "1", "GB", "landing-point", "1"}});
  for (const char* length : {"-5", "nan", "inf"}) {
    util::write_csv_file(
        cables,
        {{"cable", "kind", "node_a", "node_b", "length_km", "length_known"},
         {"X", "submarine", "A", "B", length, "1"}});
    try {
      load_network_csv("bad", nodes, cables);
      FAIL() << "expected Error for length " << length;
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kInvalidData) << length;
      EXPECT_EQ(e.context().field, "length_km") << length;
    }
  }
}

TEST_F(LoadersTest, NetworkLoadUnknownNodeErrorNamesTheNode) {
  const std::string nodes = track(temp_path("solarnet_unn.csv"));
  const std::string cables = track(temp_path("solarnet_unc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "1"}});
  util::write_csv_file(
      cables,
      {{"cable", "kind", "node_a", "node_b", "length_km", "length_known"},
       {"X", "submarine", "A", "GHOST", "100", "1"}});
  try {
    load_network_csv("bad", nodes, cables);
    FAIL() << "expected Error";
  } catch (const util::Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("GHOST"), std::string::npos);
    EXPECT_NE(what.find(cables + ":2"), std::string::npos) << what;
    EXPECT_EQ(e.context().field, "node_b");
  }
}

TEST_F(LoadersTest, MalformedBooleanGetsStructuredError) {
  const std::string nodes = track(temp_path("solarnet_bbn.csv"));
  const std::string cables = track(temp_path("solarnet_bbc.csv"));
  util::write_csv_file(
      nodes, {{"name", "lat", "lon", "country", "kind",
               "coords_authoritative"},
              {"A", "0", "0", "US", "landing-point", "maybe"}});
  util::write_csv_file(cables, {{"cable", "kind", "node_a", "node_b",
                                 "length_km", "length_known"}});
  try {
    load_network_csv("bad", nodes, cables);
    FAIL() << "expected Error";
  } catch (const util::Error& e) {
    EXPECT_EQ(e.code(), util::ErrorCode::kParseError);
    EXPECT_NE(std::string(e.what()).find("maybe"), std::string::npos);
    EXPECT_EQ(e.context().field, "coords_authoritative");
  }
}

TEST_F(LoadersTest, ParseKindHelpers) {
  EXPECT_EQ(parse_node_kind("landing-point"), topo::NodeKind::kLandingPoint);
  EXPECT_EQ(parse_node_kind("dns-root"), topo::NodeKind::kDnsRoot);
  EXPECT_THROW(parse_node_kind("wat"), std::invalid_argument);
  EXPECT_EQ(parse_cable_kind("submarine"), topo::CableKind::kSubmarine);
  EXPECT_THROW(parse_cable_kind("wat"), std::invalid_argument);
}

TEST_F(LoadersTest, RouterRoundTrip) {
  RouterConfig cfg;
  cfg.router_count = 500;
  cfg.as_count = 50;
  const RouterDataset original = make_router_dataset(cfg);
  const std::string path = track(temp_path("solarnet_routers.csv"));
  write_router_csv(original, path);
  util::CsvDocument doc = util::read_csv_document(path);
  ASSERT_EQ(doc.rows.front(), (util::CsvRow{"lat", "lon", "as_id"}));
  const util::CsvTable loaded(std::move(doc));
  ASSERT_EQ(loaded.row_count(), original.router_count());
  for (std::size_t i = 0; i < 50; ++i) {
    const RouterRecord& r = original.routers()[i];
    EXPECT_NEAR(loaded.cell_double(i, "lat"), r.location.lat_deg, 1e-5);
    EXPECT_EQ(loaded.cell(i, "as_id"), std::to_string(r.as_id));
  }
}

TEST_F(LoadersTest, PointsRoundTrip) {
  IxpConfig cfg;
  cfg.count = 30;
  const auto original = make_ixp_dataset(cfg);
  const std::string path = track(temp_path("solarnet_points.csv"));
  write_points_csv(original, path);
  util::CsvDocument doc = util::read_csv_document(path);
  ASSERT_EQ(doc.rows.front(), (util::CsvRow{"name", "lat", "lon", "country"}));
  const util::CsvTable loaded(std::move(doc));
  ASSERT_EQ(loaded.row_count(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.cell(i, "name"), original[i].name);
    EXPECT_EQ(loaded.cell(i, "country"), original[i].country_code);
    EXPECT_NEAR(loaded.cell_double(i, "lon"), original[i].location.lon_deg,
                1e-5);
  }
}

TEST_F(LoadersTest, DnsRoundTrip) {
  DnsConfig cfg;
  cfg.instance_count = 40;
  const auto original = make_dns_dataset(cfg);
  const std::string path = track(temp_path("solarnet_dns.csv"));
  write_dns_csv(original, path);
  util::CsvDocument doc = util::read_csv_document(path);
  ASSERT_EQ(doc.rows.front(),
            (util::CsvRow{"letter", "lat", "lon", "country"}));
  const util::CsvTable loaded(std::move(doc));
  ASSERT_EQ(loaded.row_count(), original.size());
  for (std::size_t i = 0; i < original.size(); ++i) {
    EXPECT_EQ(loaded.cell(i, "letter"),
              std::string(1, original[i].root_letter));
    EXPECT_EQ(loaded.cell(i, "country"), original[i].country_code);
  }
}

}  // namespace
}  // namespace solarnet::datasets
