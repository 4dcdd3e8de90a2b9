#ifndef XOMATIQ_REPLICATION_REPL_WIRE_H_
#define XOMATIQ_REPLICATION_REPL_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"

namespace xomatiq::repl {

// XQRP — the WAL-shipping sub-protocol between a primary's
// ReplicationServer and a ReplicaApplier. It rides on common/net's u32
// length-prefixed framing (net::WriteFrame / net::ReadFrame), as the
// query protocol does, but frames flow almost entirely one way: the
// replica sends a single hello, then the primary streams messages until
// one side hangs up.
//
//   hello := "XQRP" | u8 major | u8 minor | u64 start_lsn
//   msg   := u8 type | u64 lsn | u64 send_unix_ms
//            | u32 crc32c(payload) | string payload
//
// `start_lsn` is the replica's applied LSN: 0 asks for a full snapshot, a
// nonzero value asks the primary to resume at start_lsn + 1 (the primary
// falls back to a snapshot when its ring no longer covers that record).
// Every message carries its payload's CRC32C; a mismatch on the replica
// means the bytes were damaged in flight and the connection is dropped,
// to be retried from the last durable position — identical in spirit to
// the WAL's own torn-tail discard.
//
// Message semantics by type:
//   kSnapshot   lsn = base LSN of the state body; payload =
//               rel::Database::EncodeState() bytes
//   kRecord     lsn = the record's LSN; payload = one WAL record
//   kHeartbeat  lsn = the primary's durable LSN; payload empty. Sent when
//               the stream is idle so the replica can compute lag and
//               prove freshness.
//   kError      payload = human-readable reason; the primary closes the
//               connection after sending one.

inline constexpr char kReplMagic[4] = {'X', 'Q', 'R', 'P'};
inline constexpr uint8_t kReplMajor = 1;
inline constexpr uint8_t kReplMinor = 0;

// Snapshots carry a whole database, so replication frames get a far
// larger budget than the 16 MiB query frames.
inline constexpr size_t kReplMaxFrameBytes = 256u << 20;

enum class ReplMsgType : uint8_t {
  kSnapshot = 1,
  kRecord = 2,
  kHeartbeat = 3,
  kError = 4,
};
inline constexpr uint8_t kMaxReplMsgType =
    static_cast<uint8_t>(ReplMsgType::kError);

std::string_view ReplMsgTypeName(ReplMsgType type);

struct ReplHello {
  uint8_t major = kReplMajor;
  uint8_t minor = kReplMinor;
  uint64_t start_lsn = 0;  // 0 = cold replica, send a snapshot
};

std::string EncodeReplHello(const ReplHello& hello);
common::Result<ReplHello> DecodeReplHello(std::string_view body);

struct ReplMsg {
  ReplMsgType type = ReplMsgType::kHeartbeat;
  uint64_t lsn = 0;
  uint64_t send_unix_ms = 0;  // primary wall clock at send, for lag_ms
  std::string payload;
};

std::string EncodeReplMsg(const ReplMsg& msg);
// Returns Corruption when the payload CRC does not match — the caller
// must treat the connection as damaged and reconnect.
common::Result<ReplMsg> DecodeReplMsg(std::string_view body);

}  // namespace xomatiq::repl

#endif  // XOMATIQ_REPLICATION_REPL_WIRE_H_
