// EnginePool tests: a lease hands its bundle back on scope exit whether the
// run returned or threw, idle bundles are reused per key, concurrent leases
// of one key never share a bundle, and a throwing build leases nothing.
#include "server/engine_pool.h"

#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>

namespace solarnet::server {
namespace {

struct Bundle {
  int id = 0;
};

class Builder {
 public:
  std::unique_ptr<Bundle> operator()() {
    auto bundle = std::make_unique<Bundle>();
    bundle->id = ++built_;
    return bundle;
  }
  int built() const { return built_; }

 private:
  int built_ = 0;
};

TEST(EnginePool, BuildsOnFirstUseAndReusesAfterRelease) {
  EnginePool<Bundle> pool;
  Builder build;
  { const auto lease = pool.acquire("a", [&] { return build(); }); }
  {
    const auto lease = pool.acquire("a", [&] { return build(); });
    EXPECT_EQ(lease->id, 1);  // the released bundle, not a new one
  }
  EXPECT_EQ(build.built(), 1);
}

TEST(EnginePool, KeysNeverShareBundles) {
  EnginePool<Bundle> pool;
  Builder build;
  { const auto lease = pool.acquire("a", [&] { return build(); }); }
  const auto other = pool.acquire("b", [&] { return build(); });
  EXPECT_EQ(other->id, 2);
}

TEST(EnginePool, ConcurrentLeasesOfOneKeyGetDistinctBundles) {
  EnginePool<Bundle> pool;
  Builder build;
  {
    const auto first = pool.acquire("a", [&] { return build(); });
    const auto second = pool.acquire("a", [&] { return build(); });
    EXPECT_NE(first->id, second->id);
  }
  // Both went back: two more leases need no build.
  const auto first = pool.acquire("a", [&] { return build(); });
  const auto second = pool.acquire("a", [&] { return build(); });
  EXPECT_EQ(build.built(), 2);
}

TEST(EnginePool, LeaseReturnsTheBundleWhenTheRunThrows) {
  EnginePool<Bundle> pool;
  Builder build;
  EXPECT_THROW(
      {
        const auto lease = pool.acquire("a", [&] { return build(); });
        throw std::runtime_error("run failed");
      },
      std::runtime_error);
  const auto lease = pool.acquire("a", [&] { return build(); });
  EXPECT_EQ(lease->id, 1);
  EXPECT_EQ(build.built(), 1);
}

TEST(EnginePool, ThrowingBuildLeasesNothing) {
  EnginePool<Bundle> pool;
  Builder build;
  EXPECT_THROW(pool.acquire("a",
                            []() -> std::unique_ptr<Bundle> {
                              throw std::runtime_error("build failed");
                            }),
               std::runtime_error);
  const auto lease = pool.acquire("a", [&] { return build(); });
  EXPECT_EQ(lease->id, 1);
}

}  // namespace
}  // namespace solarnet::server
