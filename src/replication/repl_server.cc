#include "replication/repl_server.h"

#include <sys/socket.h>

#include <chrono>

#include "common/fault_injector.h"
#include "common/metrics.h"
#include "common/net.h"
#include "common/string_util.h"

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

// How many tail records one ring pass hands to the socket before
// re-checking for shutdown / newer records.
constexpr size_t kShipBatch = 64;

// Recent-record ring bounds: a replica whose resume point has been
// evicted is re-bootstrapped with a fresh snapshot instead of an error.
constexpr size_t kRingMaxRecords = 4096;
constexpr size_t kRingMaxBytes = 32u << 20;

}  // namespace

ReplicationServer::ReplicationServer(rel::Database* db,
                                     ReplicationServerOptions options)
    : db_(db), options_(std::move(options)) {}

ReplicationServer::~ReplicationServer() { Shutdown(); }

Status ReplicationServer::Start() {
  // Attach the sink under the exclusive write latch: writers invoke it
  // while holding the same latch, so this is the only safe publication
  // point (WriteGuard publishes nothing here — no rows are stamped). It
  // goes first so no replica session starts before the ring is fed.
  {
    rel::WriteGuard guard(db_);
    db_->SetWalSink(
        [this](uint64_t lsn, std::string_view payload) {
          OnRecord(lsn, payload);
        });
  }
  Status started = server_.Start(options_.host, options_.port, 16,
                                 /*read_timeout_ms=*/0,
                                 [this](int fd) { SessionLoop(fd); });
  if (!started.ok()) {
    // Nothing will ship from the ring: stop copying commits into it.
    rel::WriteGuard guard(db_);
    db_->SetWalSink(nullptr);
  }
  return started;
}

void ReplicationServer::Shutdown() {
  if (stopping_.exchange(true)) return;
  // Wake tailing sessions, and fail their reads and writes: a stuck
  // replica socket would otherwise park its thread in a send forever.
  {
    std::lock_guard<std::mutex> lk(ring_mu_);
    ring_cv_.notify_all();
  }
  server_.Shutdown(SHUT_RDWR);
  rel::WriteGuard guard(db_);
  db_->SetWalSink(nullptr);
}

void ReplicationServer::OnRecord(uint64_t lsn, std::string_view payload) {
  std::lock_guard<std::mutex> lk(ring_mu_);
  ring_.emplace_back(lsn, std::string(payload));
  ring_bytes_ += payload.size();
  while (ring_.size() > kRingMaxRecords ||
         (ring_bytes_ > kRingMaxBytes && ring_.size() > 1)) {
    ring_bytes_ -= ring_.front().second.size();
    ring_.pop_front();
  }
  ring_cv_.notify_all();
}

namespace {

Status SendMsg(int fd, const ReplMsg& msg, std::atomic<uint64_t>* bytes) {
  std::string body = EncodeReplMsg(msg);
  // Damage-in-flight injection: flip the last byte after the CRC was
  // computed, so the replica's integrity check must catch it.
  if (!body.empty() &&
      common::FaultInjector::Global().ShouldFail("repl.ship.corrupt")) {
    body.back() = static_cast<char>(body.back() ^ 0xff);
  }
  Status st = net::WriteFrame(fd, body);
  if (st.ok() && bytes != nullptr) {
    *bytes += body.size() + 4;
    static common::Counter* bytes_ctr =
        common::MetricsRegistry::Global().GetCounter("repl.bytes_shipped");
    bytes_ctr->Inc(body.size() + 4);
  }
  return st;
}

}  // namespace

Result<uint64_t> ReplicationServer::SendSnapshot(int fd) {
  ReplMsg msg;
  msg.type = ReplMsgType::kSnapshot;
  {
    // Shared latch blocks writers, so the encoded body is a consistent
    // cut at exactly the durable LSN read here.
    std::shared_lock<std::shared_mutex> lk(db_->latch());
    msg.lsn = db_->durable_lsn();
    msg.payload = db_->EncodeState();
  }
  msg.send_unix_ms = NowUnixMs();
  XQ_RETURN_IF_ERROR(SendMsg(fd, msg, &bytes_shipped_));
  snapshots_shipped_.fetch_add(1, std::memory_order_relaxed);
  static common::Counter* snapshots =
      common::MetricsRegistry::Global().GetCounter("repl.snapshots_shipped");
  snapshots->Inc();
  return msg.lsn;
}

void ReplicationServer::SessionLoop(int fd) {
  static common::Counter* records_ctr =
      common::MetricsRegistry::Global().GetCounter("repl.records_shipped");
  static common::Gauge* replicas_gauge =
      common::MetricsRegistry::Global().GetGauge("repl.replicas_connected");

  replicas_gauge->Add(1);

  // The replica opens with its hello; everything after that flows our way.
  bool hello_ok = false;
  uint64_t cursor = 0;
  if (Result<std::string> frame = net::ReadFrame(fd, 4096); frame.ok()) {
    if (Result<ReplHello> hello = DecodeReplHello(*frame); hello.ok()) {
      if (hello->major == kReplMajor) {
        hello_ok = true;
        cursor = hello->start_lsn;
      } else {
        ReplMsg err;
        err.type = ReplMsgType::kError;
        err.send_unix_ms = NowUnixMs();
        err.payload = common::StrFormat(
            "unsupported replication protocol %u.%u (primary speaks %u.%u)",
            hello->major, hello->minor, kReplMajor, kReplMinor);
        (void)SendMsg(fd, err, nullptr);
      }
    }
  }

  if (hello_ok) {
    uint64_t durable = db_->durable_lsn();
    if (cursor > durable) {
      // The replica has records this primary never wrote (it is talking to
      // the wrong primary, or the primary lost its directory). Refuse
      // rather than ship a diverging stream.
      ReplMsg err;
      err.type = ReplMsgType::kError;
      err.lsn = durable;
      err.send_unix_ms = NowUnixMs();
      err.payload = common::StrFormat(
          "replica at lsn %llu is ahead of primary at lsn %llu",
          static_cast<unsigned long long>(cursor),
          static_cast<unsigned long long>(durable));
      (void)SendMsg(fd, err, nullptr);
      hello_ok = false;
    }
  }

  if (hello_ok) {
    bool need_snapshot;
    {
      std::lock_guard<std::mutex> lk(ring_mu_);
      need_snapshot = ring_.empty()
                          ? cursor < db_->durable_lsn()
                          : cursor + 1 < ring_.front().first;
    }
    if (need_snapshot) {
      if (Result<uint64_t> base = SendSnapshot(fd); base.ok()) {
        cursor = *base;
      } else {
        hello_ok = false;
      }
    }
  }

  auto last_send = std::chrono::steady_clock::now();
  std::vector<std::pair<uint64_t, std::string>> batch;
  while (hello_ok && !stopping_.load(std::memory_order_acquire)) {
    bool fell_behind = false;
    batch.clear();
    {
      std::unique_lock<std::mutex> lk(ring_mu_);
      ring_cv_.wait_for(
          lk, std::chrono::milliseconds(options_.heartbeat_ms), [&] {
            return stopping_.load(std::memory_order_acquire) ||
                   (!ring_.empty() && ring_.back().first > cursor);
          });
      if (stopping_.load(std::memory_order_acquire)) break;
      if (!ring_.empty() && ring_.back().first > cursor) {
        if (cursor + 1 < ring_.front().first) {
          // This replica is slower than the ring's retention: start over
          // from a fresh snapshot instead of erroring out.
          fell_behind = true;
        } else {
          for (const auto& [lsn, rec] : ring_) {
            if (lsn <= cursor) continue;
            batch.emplace_back(lsn, rec);
            if (batch.size() >= kShipBatch) break;
          }
        }
      }
    }
    if (fell_behind) {
      Result<uint64_t> base = SendSnapshot(fd);
      if (!base.ok()) break;
      cursor = *base;
      last_send = std::chrono::steady_clock::now();
      continue;
    }
    if (!batch.empty()) {
      bool write_failed = false;
      for (auto& [lsn, rec] : batch) {
        ReplMsg msg;
        msg.type = ReplMsgType::kRecord;
        msg.lsn = lsn;
        msg.send_unix_ms = NowUnixMs();
        msg.payload = std::move(rec);
        if (!SendMsg(fd, msg, &bytes_shipped_).ok()) {
          write_failed = true;
          break;
        }
        cursor = lsn;
        records_shipped_.fetch_add(1, std::memory_order_relaxed);
        records_ctr->Inc();
      }
      if (write_failed) break;
      last_send = std::chrono::steady_clock::now();
    } else {
      auto now = std::chrono::steady_clock::now();
      if (now - last_send >=
          std::chrono::milliseconds(options_.heartbeat_ms)) {
        ReplMsg hb;
        hb.type = ReplMsgType::kHeartbeat;
        hb.lsn = db_->durable_lsn();
        hb.send_unix_ms = NowUnixMs();
        if (!SendMsg(fd, hb, &bytes_shipped_).ok()) break;
        last_send = now;
      }
    }
  }

  replicas_gauge->Add(-1);
}

ReplicationServer::Stats ReplicationServer::stats() const {
  Stats s;
  s.replicas_connected = server_.connections();
  s.records_shipped = records_shipped_.load(std::memory_order_relaxed);
  s.bytes_shipped = bytes_shipped_.load(std::memory_order_relaxed);
  s.snapshots_shipped = snapshots_shipped_.load(std::memory_order_relaxed);
  s.durable_lsn = db_->durable_lsn();
  std::lock_guard<std::mutex> lk(ring_mu_);
  s.ring_records = ring_.size();
  s.ring_bytes = ring_bytes_;
  return s;
}

std::string ReplicationServer::StatuszJson() const {
  Stats s = stats();
  return common::StrFormat(
      "{\"role\":\"primary\",\"port\":%u,\"replicas_connected\":%zu,"
      "\"durable_lsn\":%llu,\"records_shipped\":%llu,"
      "\"bytes_shipped\":%llu,\"snapshots_shipped\":%llu,"
      "\"ring_records\":%zu,\"ring_bytes\":%zu}",
      port(), s.replicas_connected,
      static_cast<unsigned long long>(s.durable_lsn),
      static_cast<unsigned long long>(s.records_shipped),
      static_cast<unsigned long long>(s.bytes_shipped),
      static_cast<unsigned long long>(s.snapshots_shipped), s.ring_records,
      s.ring_bytes);
}

}  // namespace xomatiq::repl
