#ifndef XOMATIQ_SERVER_SESSION_H_
#define XOMATIQ_SERVER_SESSION_H_

#include <atomic>
#include <cstdint>
#include <string>

#include "server/protocol.h"

namespace xomatiq::srv {

class QueryService;

// Server-side logical session: one per wire connection (embedders open
// their own with QueryService::StartSession). Owns the per-request
// execution context that used to be ad-hoc plumbing inside QueryService:
//   - the outermost query-log scope and the trace id stamped onto it;
//   - the per-request Trace when the client asked (or sampling fired);
//   - the read-your-writes min_lsn gate, which must pass BEFORE a
//     snapshot is pinned (a snapshot taken early could freeze a cut older
//     than the LSN the client demanded);
//   - snapshot acquisition: one rel::Snapshot pinned for the whole
//     request on read modes (SQL SELECT, XQ, XQ-XML), so every statement
//     a request touches — and the result-cache key — sees one committed
//     epoch. Mutations deliberately run unpinned: a Snapshot holds the
//     DDL latch shared, and DDL needs it exclusive.
//
// Thread-safety: Handle() may run on many worker threads at once
// (pipelined requests on one connection). All per-request state lives on
// the calling worker's stack; the object itself carries only identity and
// monotonically-increasing counters.
class Session {
 public:
  // Full request pipeline; never throws and never fails — any error
  // becomes an encoded error response carrying the request id.
  std::string Handle(const Request& request);

  uint64_t id() const { return id_; }
  uint64_t requests_handled() const {
    return requests_.load(std::memory_order_relaxed);
  }

 private:
  friend class QueryService;  // constructed by QueryService::StartSession
  Session(QueryService* service, uint64_t id) : service_(service), id_(id) {}

  // Gate + snapshot pin + dispatch (the part of Handle that runs inside
  // the query-log / trace scopes).
  std::string Execute(const Request& request,
                      const common::QueryOptions& opts);

  QueryService* service_;
  const uint64_t id_;
  std::atomic<uint64_t> requests_{0};
};

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_SESSION_H_
