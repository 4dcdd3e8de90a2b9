#include "client/cluster_client.h"

#include <utility>

namespace xomatiq::cli {

using common::Result;
using common::Status;
using common::StatusCode;

ClusterClient::ClusterClient(ClusterOptions options)
    : options_(std::move(options)),
      replicas_(options_.replicas.size()) {}

Result<srv::Response> ClusterClient::Execute(const common::QueryRequest& req) {
  if (req.mode == common::QueryMode::kSql && srv::IsSqlWrite(req.text)) {
    return Write(req);
  }
  return Read(req);
}

Result<srv::Response> ClusterClient::OnPrimary(
    const common::QueryRequest& req) {
  if (!primary_.has_value()) {
    Result<Client> c = Client::ConnectWithRetry(
        options_.primary.host, options_.primary.port, options_.retry);
    if (!c.ok()) return c.status();
    primary_.emplace(std::move(c).value());
  }
  Result<srv::Response> response =
      primary_->ExecuteWithRetry(req, options_.retry);
  if (!response.ok()) primary_.reset();  // transport failure: reconnect next time
  else ++stats_.primary_requests;
  return response;
}

Result<srv::Response> ClusterClient::Write(const common::QueryRequest& req) {
  Result<srv::Response> response = OnPrimary(req);
  if (response.ok() && response->ok() && response->lsn > last_write_lsn_) {
    last_write_lsn_ = response->lsn;
  }
  return response;
}

Result<srv::Response> ClusterClient::Read(const common::QueryRequest& req) {
  common::QueryRequest read_req = req;
  if (read_req.options.min_lsn == 0) read_req.options.min_lsn = last_write_lsn_;
  for (size_t i = 0; i < replicas_.size(); ++i) {
    size_t slot = (rr_next_ + i) % replicas_.size();
    std::optional<Client>& replica = replicas_[slot];
    if (!replica.has_value()) {
      Result<Client> c =
          Client::ConnectWithRetry(options_.replicas[slot].host,
                                   options_.replicas[slot].port,
                                   options_.retry);
      if (!c.ok()) continue;  // unreachable replica: try the next one
      replica.emplace(std::move(c).value());
    }
    Result<srv::Response> response = replica->Execute(read_req);
    if (!response.ok()) {
      // Transport failure: drop the connection, read elsewhere.
      replica.reset();
      ++stats_.replica_fallbacks;
      continue;
    }
    if (response->code == StatusCode::kLagging ||
        response->code == StatusCode::kReadOnly) {
      // The replica cannot serve this (yet); its connection is healthy.
      ++stats_.replica_fallbacks;
      continue;
    }
    rr_next_ = (slot + 1) % replicas_.size();
    ++stats_.replica_requests;
    return response;
  }
  // No replica could serve: the primary always can (its applied LSN is by
  // definition >= any commit LSN it handed out).
  return OnPrimary(read_req);
}

}  // namespace xomatiq::cli
