#include "replication/replica.h"

#include <arpa/inet.h>
#include <errno.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>

#include "common/metrics.h"
#include "common/string_util.h"
#include "common/trace.h"
#include "server/protocol.h"

namespace xomatiq::repl {

using common::Result;
using common::Status;

namespace {

uint64_t NowUnixMs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::system_clock::now().time_since_epoch())
          .count());
}

common::Gauge* LagRecordsGauge() {
  static common::Gauge* g =
      common::MetricsRegistry::Global().GetGauge("repl.lag_records");
  return g;
}

common::Gauge* LagMsGauge() {
  static common::Gauge* g =
      common::MetricsRegistry::Global().GetGauge("repl.lag_ms");
  return g;
}

// Everything the stream can fail with maps to "drop the connection and
// resume from the last applied LSN" — the same recovery a replica restart
// would perform.

}  // namespace

ReplicaApplier::ReplicaApplier(rel::Database* db,
                               ReplicaApplierOptions options)
    : db_(db), options_(std::move(options)) {}

ReplicaApplier::~ReplicaApplier() { Shutdown(); }

Status ReplicaApplier::Start() {
  if (options_.primary_port == 0) {
    return Status::InvalidArgument("replica needs a primary port");
  }
  thread_ = std::thread([this] { Run(); });
  return Status::OK();
}

void ReplicaApplier::Shutdown() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    if (stopping_) {
      // Already asked to stop; just make sure the thread is reaped.
    }
    stopping_ = true;
    if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
  }
  cv_.notify_all();
  if (thread_.joinable()) thread_.join();
}

bool ReplicaApplier::ready() const {
  std::lock_guard<std::mutex> lk(mu_);
  if (!connected_ || !caught_up_once_) return false;
  uint64_t now = NowUnixMs();
  return now - last_msg_unix_ms_ <= options_.stale_after_ms;
}

ReplicaStatus ReplicaApplier::status() const {
  std::lock_guard<std::mutex> lk(mu_);
  ReplicaStatus s;
  s.connected = connected_;
  s.caught_up = caught_up_once_;
  s.applied_lsn = db_->applied_lsn();
  s.primary_durable_lsn = primary_durable_lsn_;
  s.lag_records = s.primary_durable_lsn > s.applied_lsn
                      ? s.primary_durable_lsn - s.applied_lsn
                      : 0;
  s.last_msg_unix_ms = last_msg_unix_ms_;
  s.records_applied = records_applied_;
  s.bytes_received = bytes_received_;
  s.snapshots_installed = snapshots_installed_;
  s.reconnects = reconnects_;
  s.corrupt_frames = corrupt_frames_;
  return s;
}

std::string ReplicaApplier::StatuszJson() const {
  ReplicaStatus s = status();
  return common::StrFormat(
      "{\"role\":\"replica\",\"primary\":\"%s:%u\",\"connected\":%s,"
      "\"caught_up\":%s,\"applied_lsn\":%llu,\"primary_durable_lsn\":%llu,"
      "\"lag_records\":%llu,\"records_applied\":%llu,"
      "\"bytes_received\":%llu,\"snapshots_installed\":%llu,"
      "\"reconnects\":%llu,\"corrupt_frames\":%llu}",
      options_.primary_host.c_str(), options_.primary_port,
      s.connected ? "true" : "false", s.caught_up ? "true" : "false",
      static_cast<unsigned long long>(s.applied_lsn),
      static_cast<unsigned long long>(s.primary_durable_lsn),
      static_cast<unsigned long long>(s.lag_records),
      static_cast<unsigned long long>(s.records_applied),
      static_cast<unsigned long long>(s.bytes_received),
      static_cast<unsigned long long>(s.snapshots_installed),
      static_cast<unsigned long long>(s.reconnects),
      static_cast<unsigned long long>(s.corrupt_frames));
}

Status ReplicaApplier::WaitUntilCaughtUp(uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lk(mu_);
  bool ok = cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    return caught_up_once_ || stopping_;
  });
  if (!ok || !caught_up_once_) {
    return Status::Timeout("replica did not catch up within " +
                           std::to_string(timeout_ms) + "ms");
  }
  return Status::OK();
}

bool ReplicaApplier::WaitForLsn(uint64_t lsn, uint32_t timeout_ms) {
  if (db_->applied_lsn() >= lsn) return true;
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, std::chrono::milliseconds(timeout_ms), [&] {
    return stopping_ || db_->applied_lsn() >= lsn;
  });
  return db_->applied_lsn() >= lsn;
}

void ReplicaApplier::PauseApply(bool paused) {
  {
    std::lock_guard<std::mutex> lk(mu_);
    paused_ = paused;
  }
  cv_.notify_all();
}

void ReplicaApplier::Run() {
  common::Backoff backoff(options_.reconnect);
  int attempt = 0;
  bool had_session = false;
  static common::Counter* reconnects_ctr =
      common::MetricsRegistry::Global().GetCounter("repl.reconnects");
  while (true) {
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) return;
    }
    Result<int> fd = Connect();
    if (!fd.ok()) {
      std::unique_lock<std::mutex> lk(mu_);
      cv_.wait_for(lk, backoff.NextDelay(attempt++),
                   [&] { return stopping_; });
      continue;
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (stopping_) {
        ::close(*fd);
        return;
      }
      fd_ = *fd;
      connected_ = true;
      if (had_session) {
        ++reconnects_;
        reconnects_ctr->Inc();
      }
      had_session = true;
    }
    attempt = 0;
    bool stop = StreamOnce(*fd);
    {
      std::lock_guard<std::mutex> lk(mu_);
      connected_ = false;
      if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
      }
    }
    cv_.notify_all();
    if (stop) return;
  }
}

Result<int> ReplicaApplier::Connect() {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.primary_port);
  if (::inet_pton(AF_INET, options_.primary_host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad primary address: " +
                                   options_.primary_host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    Status st =
        Status::IoError(std::string("connect: ") + std::strerror(errno));
    ::close(fd);
    return st;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

bool ReplicaApplier::StreamOnce(int fd) {
  static common::Counter* corrupt_ctr =
      common::MetricsRegistry::Global().GetCounter("repl.corrupt_frames");
  auto is_stopping = [this] {
    std::lock_guard<std::mutex> lk(mu_);
    return stopping_;
  };

  ReplHello hello;
  hello.start_lsn = db_->applied_lsn();
  if (!srv::WriteFrame(fd, EncodeReplHello(hello)).ok()) {
    return is_stopping();
  }

  while (true) {
    if (is_stopping()) return true;
    Result<std::string> frame = srv::ReadFrame(fd, options_.max_frame_bytes);
    if (!frame.ok()) return is_stopping();
    Result<ReplMsg> msg = DecodeReplMsg(*frame);
    if (!msg.ok()) {
      // Damaged in flight; the record is still intact on the primary, so
      // resume from the last applied LSN over a fresh connection — the
      // stream-level twin of the WAL's torn-tail discard.
      {
        std::lock_guard<std::mutex> lk(mu_);
        ++corrupt_frames_;
      }
      corrupt_ctr->Inc();
      return is_stopping();
    }
    {
      std::lock_guard<std::mutex> lk(mu_);
      last_msg_unix_ms_ = NowUnixMs();
      bytes_received_ += frame->size() + 4;
    }
    switch (msg->type) {
      case ReplMsgType::kSnapshot:
        if (!HandleSnapshot(*msg).ok()) return is_stopping();
        break;
      case ReplMsgType::kRecord: {
        {
          std::unique_lock<std::mutex> lk(mu_);
          cv_.wait(lk, [&] { return !paused_ || stopping_; });
          if (stopping_) return true;
        }
        if (!HandleRecord(*msg).ok()) return is_stopping();
        break;
      }
      case ReplMsgType::kHeartbeat: {
        std::lock_guard<std::mutex> lk(mu_);
        primary_durable_lsn_ = std::max(primary_durable_lsn_, msg->lsn);
        NoteCaughtUpLocked();
        uint64_t applied = db_->applied_lsn();
        LagRecordsGauge()->Set(static_cast<int64_t>(
            primary_durable_lsn_ > applied ? primary_durable_lsn_ - applied
                                           : 0));
        if (applied >= primary_durable_lsn_) {
          LagMsGauge()->Set(
              static_cast<int64_t>(NowUnixMs() - msg->send_unix_ms));
        }
        cv_.notify_all();
        break;
      }
      case ReplMsgType::kError:
        // The primary refused us (version skew, divergent history).
        // Dropping the connection and retrying is all a replica can do.
        return is_stopping();
    }
  }
}

void ReplicaApplier::NoteCaughtUpLocked() {
  if (db_->applied_lsn() >= primary_durable_lsn_) caught_up_once_ = true;
}

Status ReplicaApplier::HandleSnapshot(const ReplMsg& msg) {
  static common::Counter* snapshots_ctr =
      common::MetricsRegistry::Global().GetCounter(
          "repl.snapshots_installed");
  static common::Histogram* install_hist =
      common::MetricsRegistry::Global().GetHistogram("repl.snapshot_install");
  {
    common::TraceSpan span("repl.snapshot_install", install_hist);
    // WriteGuard: the installed state publishes as one epoch; snapshot
    // readers on the replica flip atomically from old to new state.
    rel::WriteGuard guard(db_);
    XQ_RETURN_IF_ERROR(db_->InstallReplicaState(msg.payload).status());
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++snapshots_installed_;
    primary_durable_lsn_ = std::max(primary_durable_lsn_, msg.lsn);
    NoteCaughtUpLocked();
    LagRecordsGauge()->Set(0);
    LagMsGauge()->Set(static_cast<int64_t>(NowUnixMs() - msg.send_unix_ms));
  }
  snapshots_ctr->Inc();
  cv_.notify_all();
  return Status::OK();
}

Status ReplicaApplier::HandleRecord(const ReplMsg& msg) {
  static common::Counter* applied_ctr =
      common::MetricsRegistry::Global().GetCounter("repl.records_applied");
  static common::Histogram* apply_hist =
      common::MetricsRegistry::Global().GetHistogram("repl.apply");

  {
    common::TraceSpan span("repl.apply", apply_hist);
    // WriteGuard: replica reads run under snapshots, so each applied
    // record becomes visible atomically on guard release — concurrent
    // with, never blocking, replica-side readers.
    rel::WriteGuard guard(db_);
    XQ_RETURN_IF_ERROR(db_->ApplyReplicated(msg.lsn, msg.payload));
  }
  {
    std::lock_guard<std::mutex> lk(mu_);
    ++records_applied_;
    primary_durable_lsn_ = std::max(primary_durable_lsn_, msg.lsn);
    NoteCaughtUpLocked();
    uint64_t applied = db_->applied_lsn();
    LagRecordsGauge()->Set(static_cast<int64_t>(
        primary_durable_lsn_ > applied ? primary_durable_lsn_ - applied
                                       : 0));
    LagMsGauge()->Set(static_cast<int64_t>(NowUnixMs() - msg.send_unix_ms));
  }
  applied_ctr->Inc();
  cv_.notify_all();
  return Status::OK();
}

}  // namespace xomatiq::repl
