// EnginePool: resident engine bundles, keyed by server::build_engine_key.
// acquire() leases an idle bundle for the key, or builds one outside the
// pool lock so a slow build never stalls other requests. The Lease hands
// the bundle back when it goes out of scope, after a run that threw as
// after one that returned; concurrent leases of one key get distinct ones.
#pragma once

#include <memory>
#include <mutex>
#include <new>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

namespace solarnet::server {

template <typename Bundle>
class EnginePool {
 public:
  class Lease {
   public:
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() {
      try {
        pool_.release(std::move(key_), std::move(bundle_));
      } catch (const std::bad_alloc&) {
        // No memory to list it as idle: the bundle is dropped, and the next
        // lease for its key builds a new one.
      }
    }

    Bundle* operator->() const noexcept { return bundle_.get(); }

   private:
    friend class EnginePool;
    Lease(EnginePool& pool, std::string key, std::unique_ptr<Bundle> bundle)
        : pool_(pool), key_(std::move(key)), bundle_(std::move(bundle)) {}

    EnginePool& pool_;
    std::string key_;
    std::unique_ptr<Bundle> bundle_;
  };

  // Leases an idle bundle for `key`, or the one `build()` returns (a
  // std::unique_ptr<Bundle>) when none is idle. A throwing build leases
  // nothing and leaves the pool unchanged.
  template <typename Build>
  Lease acquire(std::string_view key, Build&& build) {
    std::string owned(key);
    std::unique_ptr<Bundle> bundle;
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      const auto it = idle_.find(owned);
      if (it != idle_.end() && !it->second.empty()) {
        bundle = std::move(it->second.back());
        it->second.pop_back();
      }
    }
    if (!bundle) bundle = build();
    return Lease(*this, std::move(owned), std::move(bundle));
  }

 private:
  void release(std::string key, std::unique_ptr<Bundle> bundle) {
    const std::lock_guard<std::mutex> lock(mutex_);
    idle_[std::move(key)].push_back(std::move(bundle));
  }

  std::mutex mutex_;
  std::unordered_map<std::string, std::vector<std::unique_ptr<Bundle>>> idle_;
};

}  // namespace solarnet::server
