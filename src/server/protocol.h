#ifndef XOMATIQ_SERVER_PROTOCOL_H_
#define XOMATIQ_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/query_options.h"
#include "common/query_request.h"
#include "common/result.h"
#include "relational/schema.h"

namespace xomatiq::srv {

// Length-prefixed binary wire protocol between xomatiq_server and its
// clients (see DESIGN.md "Service layer"). Frames are net::WriteFrame /
// net::ReadFrame's u32 body length | body; protocol 2.0 has one shape:
//
//   hello    := "XQWP" | u8 major | u8 minor
//   request  := u64 request_id | u8 mode | string query_text
//               | u8 option_flags | u32 deadline_ms | u64 trace_id
//               | u64 min_lsn
//   response := u64 request_id | u8 status_code
//               | string error_message                  (status_code != 0)
//               | u8 kind | u8 flags | payload | u64 lsn (status_code == 0)
//   payload  := rows: u32 ncols | ncols * string
//                     | u32 nrows | nrows * tuple       (kind == kRows)
//            := string                                  (kind == kText/kXml)
//
// Strings and tuples reuse the rel::serde encoding (u32-length-prefixed
// strings, tagged values), so the wire shares one binary dialect with the
// WAL and snapshots.
//
// Every session opens with a hello. The server answers with its own, or
// with a typed error response (id 0) before closing: kUnsupported for
// another major version, a decode error for a first frame that is not a
// hello.

inline constexpr size_t kDefaultMaxFrameBytes = 16u << 20;  // 16 MiB

// --- protocol version ---

inline constexpr char kWireMagic[4] = {'X', 'Q', 'W', 'P'};
inline constexpr uint8_t kProtocolMajor = 2;
inline constexpr uint8_t kProtocolMinor = 0;

// Hello body, used in both directions.
struct Hello {
  uint8_t major = kProtocolMajor;
  uint8_t minor = kProtocolMinor;
};

std::string EncodeHello(const Hello& hello);
common::Result<Hello> DecodeHello(std::string_view body);

// The mode byte is common::QueryMode's value; the decoder rejects any
// byte above QueryMode::kPing.
struct Request {
  uint64_t id = 0;
  common::QueryMode mode = common::QueryMode::kSql;
  std::string text;
  common::QueryOptions options;
};

enum class PayloadKind : uint8_t {
  kRows = 0,
  kText = 1,
  kXml = 2,
};
inline constexpr uint8_t kMaxPayloadKind =
    static_cast<uint8_t>(PayloadKind::kXml);

// Response flag bits.
inline constexpr uint8_t kFlagCached = 1;  // served from the result cache
inline constexpr uint8_t kFlagTraced = 2;  // a query trace was recorded

// Byte offset of the flags byte inside an OK response *body* (the part
// after the request id): [0]=status, [1]=kind, [2]=flags. The result cache
// stores encoded bodies and patches exactly this byte when re-serving.
inline constexpr size_t kFlagsOffset = 2;

struct Response {
  uint64_t id = 0;
  common::StatusCode code = common::StatusCode::kOk;
  std::string error;  // set when code != kOk
  PayloadKind kind = PayloadKind::kText;
  uint8_t flags = 0;
  std::vector<std::string> columns;  // kRows
  std::vector<rel::Tuple> rows;      // kRows
  std::string text;                  // kText / kXml
  // Database LSN observed by this request. For DML this is the commit
  // LSN — feed it back as min_lsn on a subsequent replica read for
  // read-your-writes. Encoded after the payload, so the result cache's
  // stored bodies (which patch only the flags byte) stay valid.
  uint64_t lsn = 0;

  bool ok() const { return code == common::StatusCode::kOk; }
  bool cached() const { return (flags & kFlagCached) != 0; }
  common::Status status() const {
    return ok() ? common::Status::OK() : common::Status(code, error);
  }
};

// --- body encoding (no framing) ---

std::string EncodeRequest(const Request& request);
common::Result<Request> DecodeRequest(std::string_view body);

// Everything after the request id; what the result cache stores.
std::string EncodeResponseBody(const Response& response);
// id + body.
std::string EncodeResponse(const Response& response);
common::Result<Response> DecodeResponse(std::string_view body);

// Convenience: an error response for `id` carrying `status`.
std::string EncodeErrorResponse(uint64_t id, const common::Status& status);

// --- SQL routing ---

// The first leading identifier of `text`, lowercased ("" when it opens
// with something else).
std::string FirstSqlKeyword(std::string_view text);
// Whether the statement writes (insert, update, delete, create, drop,
// analyze): it must run on a primary, and a read-only replica refuses it.
bool IsSqlWrite(std::string_view text);

}  // namespace xomatiq::srv

#endif  // XOMATIQ_SERVER_PROTOCOL_H_
