#ifndef XOMATIQ_COMMON_QUERY_REQUEST_H_
#define XOMATIQ_COMMON_QUERY_REQUEST_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>

#include "common/query_options.h"

namespace xomatiq::common {

// What kind of query QueryRequest::text holds and how its result is
// rendered. Its value is also the query protocol's mode byte
// (server/protocol.h), so the values are fixed.
enum class QueryMode : uint8_t {
  kSql = 0,      // one SQL statement (SELECT/DML/DDL/EXPLAIN/STATS text)
  kXq = 1,       // XomatiQ FLWR query, rows result
  kXqXml = 2,    // XomatiQ FLWR query, re-tagged XML result
  kExplain = 3,  // XomatiQ query -> relational plans, text result
  kStats = 4,    // metrics snapshot, text result
  kPing = 5,     // liveness probe
};

inline std::string_view QueryModeName(QueryMode mode) {
  switch (mode) {
    case QueryMode::kSql:
      return "sql";
    case QueryMode::kXq:
      return "xq";
    case QueryMode::kXqXml:
      return "xq-xml";
    case QueryMode::kExplain:
      return "explain";
    case QueryMode::kStats:
      return "stats";
    case QueryMode::kPing:
      return "ping";
  }
  return "?";
}

// One query, fully described. The unified request struct every execution
// surface takes — cli::Client::Execute, srv::Session::Execute,
// sql::SqlEngine::Execute, xq::XomatiQ::Execute — replacing the
// (mode, text, options) parameter triples that used to grow a new
// overload per knob. New per-query fields land here once, and every
// layer picks up the plumbing for free.
struct QueryRequest {
  QueryMode mode = QueryMode::kSql;
  std::string text;
  QueryOptions options;
  // Snapshot read token (engine layers only; never carried on the wire —
  // the server's Session scopes snapshots per connection request). When
  // set, reads are evaluated at this committed epoch instead of the
  // engine acquiring its own snapshot. The CALLER must own a live
  // rel::Snapshot pinning the epoch for the whole call; the engine only
  // consumes the number. This is how one logical operation (a
  // multi-disjunct XomatiQ query, a session's statement sequence) reads
  // one consistent cut across several engine calls.
  std::optional<uint64_t> read_epoch;

  static QueryRequest Sql(std::string text, QueryOptions opts = {}) {
    return {QueryMode::kSql, std::move(text), opts, std::nullopt};
  }
  static QueryRequest Xq(std::string text, QueryOptions opts = {}) {
    return {QueryMode::kXq, std::move(text), opts, std::nullopt};
  }
};

}  // namespace xomatiq::common

#endif  // XOMATIQ_COMMON_QUERY_REQUEST_H_
