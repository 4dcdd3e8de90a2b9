#include "server/result_cache.h"

#include "common/fault_injector.h"
#include "common/metrics.h"

namespace xomatiq::srv {

namespace {

struct CacheMetrics {
  common::Counter* hits;
  common::Counter* misses;
  common::Counter* evictions;
  common::Counter* invalidations;
  common::Gauge* entries;

  static CacheMetrics& Get() {
    static CacheMetrics m = [] {
      auto& reg = common::MetricsRegistry::Global();
      return CacheMetrics{reg.GetCounter("server.cache.hits"),
                          reg.GetCounter("server.cache.misses"),
                          reg.GetCounter("server.cache.evictions"),
                          reg.GetCounter("server.cache.invalidations"),
                          reg.GetGauge("server.cache.entries")};
    }();
    return m;
  }
};

}  // namespace

std::string ResultCache::MakeKey(uint8_t mode, std::string_view query_text,
                                 uint64_t epoch) {
  std::string key;
  key.reserve(query_text.size() + 24);
  key.push_back(static_cast<char>('0' + mode));
  key.push_back('@');
  key += std::to_string(epoch);
  key.push_back(':');
  bool pending_space = false;
  for (char c : query_text) {
    if (c == ' ' || c == '\t' || c == '\n' || c == '\r') {
      pending_space = !key.empty();
      continue;
    }
    if (pending_space && key.back() != ':') key.push_back(' ');
    pending_space = false;
    key.push_back(c);
  }
  return key;
}

std::optional<std::string> ResultCache::Lookup(const std::string& key) {
  std::lock_guard lock(mu_);
  auto it = index_.find(key);
  if (it == index_.end()) {
    CacheMetrics::Get().misses->Inc();
    return std::nullopt;
  }
  lru_.splice(lru_.begin(), lru_, it->second);
  CacheMetrics::Get().hits->Inc();
  return it->second->body;
}

void ResultCache::Insert(const std::string& key, uint64_t epoch,
                         std::string body) {
  // Fault point cache.insert: drop the install silently. The cache is an
  // optimization — losing an insert must never affect correctness, only
  // hit rate, and tests assert exactly that.
  if (common::FaultInjector::Global().ShouldFail("cache.insert")) return;
  std::lock_guard lock(mu_);
  if (epoch < epoch_) return;  // a newer snapshot is installed
  if (epoch > epoch_) {
    // Every entry belongs to an older epoch no new request can pin.
    if (!lru_.empty()) CacheMetrics::Get().invalidations->Inc();
    index_.clear();
    lru_.clear();
    epoch_ = epoch;
  }
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->body = std::move(body);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(body)});
  index_[key] = lru_.begin();
  while (lru_.size() > capacity_) {
    CacheMetrics::Get().evictions->Inc();
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
  CacheMetrics::Get().entries->Set(static_cast<int64_t>(lru_.size()));
}

size_t ResultCache::size() const {
  std::lock_guard lock(mu_);
  return lru_.size();
}

}  // namespace xomatiq::srv
