#ifndef XOMATIQ_SERVER_RESULT_CACHE_H_
#define XOMATIQ_SERVER_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>

namespace xomatiq::srv {

// LRU cache of encoded response *bodies* (protocol.h layout, everything
// after the request id) keyed on normalized query text and the snapshot
// epoch the query read at. A hit is re-served to any session by patching
// the request id and the cached-flag byte; rows are never re-encoded.
//
// The epoch is the only validity rule. rel::Database publishes a new
// epoch for every commit that can change an answer (DML, DDL, a warehouse
// sync, a replicated record), and a request looks up the key of the epoch
// it pinned, so a hit is byte-exact for that snapshot. The cache remembers
// the newest epoch it has installed: an insert computed at an older epoch
// is dropped, and the first insert of a newer epoch empties the cache
// first, because no new request can pin an older epoch again.
//
// One cache serves one database: epochs of two databases cannot be
// compared, and their keys would collide.
//
// Thread-safe; the internal mutex is a leaf in the server's lock order
// (never held while acquiring the Database latch or Warehouse mutex).
class ResultCache {
 public:
  explicit ResultCache(size_t capacity) : capacity_(capacity) {}

  // Whitespace-collapsed query text prefixed by the mode tag and the
  // snapshot epoch the query reads at, so "SELECT  *\nFROM t" and
  // "select * from t" share an entry only when byte-identical after
  // normalization (case is preserved: string literals are
  // case-sensitive) AND pinned to the same committed epoch. Epochs never
  // alias across a replica snapshot install: the epoch counter is kept
  // monotone.
  static std::string MakeKey(uint8_t mode, std::string_view query_text,
                             uint64_t epoch);

  // Returns the encoded body and refreshes LRU recency, or nullopt.
  std::optional<std::string> Lookup(const std::string& key);

  // Installs `body`, computed at snapshot `epoch`, under `key`. Dropped
  // when a newer epoch is installed; a newer epoch than the cache holds
  // empties the cache first. Evicts least-recently-used entries beyond
  // capacity.
  void Insert(const std::string& key, uint64_t epoch, std::string body);

  size_t size() const;

 private:
  struct Entry {
    std::string key;
    std::string body;
  };

  const size_t capacity_;
  mutable std::mutex mu_;
  uint64_t epoch_ = 0;    // newest epoch installed
  std::list<Entry> lru_;  // front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_;
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_RESULT_CACHE_H_
