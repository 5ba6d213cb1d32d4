#include "analysis/dns_resolution.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>

#include "datasets/submarine.h"
#include "sim/monte_carlo.h"
#include "util/status.h"

namespace solarnet::analysis {
namespace {

// NY (NA) - Bude (EU) - Singapore (AS) line, as in the services tests.
class DnsResolutionTest : public ::testing::Test {
 protected:
  DnsResolutionTest() : net_("dns") {
    ny_ = add_node("NY", {40.7, -74.0}, "US");
    bude_ = add_node("Bude", {50.8, -4.5}, "GB");
    sg_ = add_node("Singapore", {1.35, 103.8}, "SG");
    atl_ = add_cable("atl", ny_, bude_);
    asia_ = add_cable("asia", bude_, sg_);
  }
  topo::NodeId add_node(const char* name, geo::GeoPoint p, const char* cc) {
    return net_.add_node({name, p, cc, topo::NodeKind::kLandingPoint, true});
  }
  topo::CableId add_cable(const char* name, topo::NodeId a, topo::NodeId b) {
    topo::Cable c;
    c.name = name;
    c.segments = {{a, b, 6000.0}};
    return net_.add_cable(std::move(c));
  }
  std::vector<datasets::DnsRootInstance> two_letters() const {
    return {
        {'a', {40.7, -74.0}, "US", geo::Continent::kNorthAmerica},
        {'b', {1.35, 103.8}, "SG", geo::Continent::kAsia},
    };
  }
  topo::InfrastructureNetwork net_;
  topo::NodeId ny_{}, bude_{}, sg_{};
  topo::CableId atl_{}, asia_{};
};

TEST_F(DnsResolutionTest, HealthyNetworkResolvesEverywhere) {
  const std::vector<bool> none(net_.cable_count(), false);
  const auto r = evaluate_dns_resolution(net_, none, two_letters());
  EXPECT_DOUBLE_EQ(r.resolution_availability, 1.0);
  EXPECT_NEAR(r.mean_letters_reachable, 2.0, 1e-9);
}

TEST_F(DnsResolutionTest, PartitionReducesLettersNotResolution) {
  // Cut the Asia leg: both sides still have one root instance each, so
  // anycast resolution survives everywhere, but each side sees only one
  // letter.
  std::vector<bool> dead(net_.cable_count(), false);
  dead[asia_] = true;
  const auto r = evaluate_dns_resolution(net_, dead, two_letters());
  EXPECT_DOUBLE_EQ(r.resolution_availability, 1.0);
  EXPECT_NEAR(r.mean_letters_reachable, 1.0, 1e-9);
}

TEST_F(DnsResolutionTest, LosingOnlyRegionalRootStrandsTheRest) {
  // Only one root letter, hosted in NA; cut the Atlantic: the NY island
  // (serving the NA and, in this toy net, SA anchors) keeps local
  // resolution, everything east of it loses it.
  const std::vector<datasets::DnsRootInstance> roots = {
      {'a', {40.7, -74.0}, "US", geo::Continent::kNorthAmerica}};
  std::vector<bool> dead(net_.cable_count(), false);
  dead[atl_] = true;
  const auto r = evaluate_dns_resolution(net_, dead, roots);
  EXPECT_NEAR(r.resolution_availability, 0.075 + 0.055, 1e-9);
  for (const auto& pc : r.per_continent) {
    if (pc.continent == geo::Continent::kEurope ||
        pc.continent == geo::Continent::kAsia) {
      EXPECT_FALSE(pc.any_root_reachable);
    }
  }
}

TEST_F(DnsResolutionTest, RootLetterOutsideAToMIsRejected) {
  const std::pair<char, const char*> cases[] = {
      {'A', "'A'"}, {'z', "'z'"}, {'n', "'n'"}, {'`', "'`'"}, {'\0', "code 0"}};
  for (const auto& [letter, shown] : cases) {
    std::vector<datasets::DnsRootInstance> roots = two_letters();
    roots.push_back({letter, {1.35, 103.8}, "SG", geo::Continent::kAsia});
    try {
      DnsResolutionEvaluator evaluator(net_, roots);
      ADD_FAILURE() << shown << " was accepted";
    } catch (const util::Error& e) {
      EXPECT_EQ(e.code(), util::ErrorCode::kInvalidArgument);
      const std::string what = e.what();
      EXPECT_NE(what.find(std::string("root letter ") + shown +
                          " of instance 2"),
                std::string::npos)
          << what;
    }
  }
  // The one-shot API and the observer construct the same evaluator.
  std::vector<datasets::DnsRootInstance> roots = two_letters();
  roots.front().root_letter = 'z';
  const std::vector<bool> none(net_.cable_count(), false);
  EXPECT_THROW(evaluate_dns_resolution(net_, none, roots), util::Error);
  EXPECT_THROW(DnsResolutionObserver(net_, roots), util::Error);
  // Both ends of the range are accepted.
  roots.front().root_letter = 'm';
  roots.back().root_letter = 'a';
  EXPECT_NO_THROW(DnsResolutionEvaluator(net_, roots));
}

TEST(DnsResolutionFullScale, RootStaysResolvableUnderS1) {
  // §4.4.3's conclusion at full scale: anycast + 1076 instances keep the
  // root resolvable for the vast majority of the population even under
  // the severe state.
  const auto net = datasets::make_submarine_network({});
  const auto roots = datasets::make_dns_dataset({});
  const sim::FailureSimulator simulator(net, {});
  const auto s1 = gic::LatitudeBandFailureModel::s1();
  util::Rng rng(13);
  double availability = 0.0;
  double letters = 0.0;
  constexpr int kDraws = 10;
  for (int d = 0; d < kDraws; ++d) {
    const auto dead = simulator.sample_cable_failures(s1, rng);
    const auto r = evaluate_dns_resolution(net, dead, roots);
    availability += r.resolution_availability;
    letters += r.mean_letters_reachable;
  }
  EXPECT_GT(availability / kDraws, 0.7);
  EXPECT_GT(letters / kDraws, 5.0);
}

}  // namespace
}  // namespace solarnet::analysis
