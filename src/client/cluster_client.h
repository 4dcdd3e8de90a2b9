#ifndef XOMATIQ_CLIENT_CLUSTER_CLIENT_H_
#define XOMATIQ_CLIENT_CLUSTER_CLIENT_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "client/client.h"

namespace xomatiq::cli {

// One endpoint of a replicated deployment.
struct Endpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

struct ClusterOptions {
  Endpoint primary;
  std::vector<Endpoint> replicas;  // may be empty: everything → primary
  // Connect/execute retry schedule per endpoint.
  RetryPolicy retry;
};

// Read/write-splitting client over one primary plus any number of read
// replicas.
//
// Routing:
//   - Writes (SQL mutations, ANALYZE) go to the primary. The commit LSN
//     the server attaches to the response is remembered as
//     last_write_lsn().
//   - Reads go to replicas round-robin, carrying min_lsn =
//     last_write_lsn(), so a read issued after a write never observes the
//     pre-write state: the replica serves once it has caught up, waits
//     briefly, or answers kLagging — at which point the read falls over
//     to the next replica and finally to the primary. kReadOnly (replica
//     refusing a misrouted write) and transport errors fall through the
//     same way.
//
// Connections are opened lazily and re-opened after transport errors.
// Like Client, an instance is not thread-safe; use one per thread.
class ClusterClient {
 public:
  explicit ClusterClient(ClusterOptions options);

  // Keyword-routed: SQL mutations and ANALYZE → Write, all else → Read.
  common::Result<srv::Response> Execute(const common::QueryRequest& req);

  common::Result<srv::Response> Write(const common::QueryRequest& req);
  common::Result<srv::Response> Read(const common::QueryRequest& req);

  // Shorthands, routed like Execute.
  common::Result<srv::Response> Sql(std::string_view text) {
    return Execute(common::QueryRequest::Sql(std::string(text)));
  }
  common::Result<srv::Response> Xq(std::string_view text) {
    return Execute(common::QueryRequest::Xq(std::string(text)));
  }

  // Commit LSN of the most recent successful write (0 before any); the
  // consistency token attached to subsequent reads.
  uint64_t last_write_lsn() const { return last_write_lsn_; }

  // Routing counters, for tests and the bench harness.
  struct Stats {
    uint64_t primary_requests = 0;   // writes + read fallbacks served there
    uint64_t replica_requests = 0;   // reads answered by a replica
    uint64_t replica_fallbacks = 0;  // reads bounced off a replica
  };
  const Stats& stats() const { return stats_; }

 private:
  common::Result<srv::Response> OnPrimary(const common::QueryRequest& req);

  ClusterOptions options_;
  std::optional<Client> primary_;
  std::vector<std::optional<Client>> replicas_;
  size_t rr_next_ = 0;  // round-robin cursor over replicas_
  uint64_t last_write_lsn_ = 0;
  Stats stats_;
};

}  // namespace xomatiq::cli

#endif  // XOMATIQ_CLIENT_CLUSTER_CLIENT_H_
