#include "server/protocol.h"

#include <cstring>

#include "relational/serde.h"

namespace xomatiq::srv {

using common::Result;
using common::Status;
using common::StatusCode;
using rel::BinaryReader;
using rel::BinaryWriter;

// --- hello ------------------------------------------------------------

namespace {
// Option-flag bits of the request's options block.
constexpr uint8_t kOptTrace = 1;
constexpr uint8_t kOptBypassCache = 2;
}  // namespace

std::string EncodeHello(const Hello& hello) {
  BinaryWriter w;
  std::string out(kWireMagic, sizeof(kWireMagic));
  w.PutU8(hello.major);
  w.PutU8(hello.minor);
  out += w.TakeBuffer();
  return out;
}

Result<Hello> DecodeHello(std::string_view body) {
  if (body.size() < sizeof(kWireMagic) ||
      std::memcmp(body.data(), kWireMagic, sizeof(kWireMagic)) != 0) {
    return Status::InvalidArgument("not a hello frame (bad magic)");
  }
  BinaryReader r(body.substr(sizeof(kWireMagic)));
  Hello hello;
  XQ_ASSIGN_OR_RETURN(hello.major, r.GetU8());
  XQ_ASSIGN_OR_RETURN(hello.minor, r.GetU8());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after hello");
  }
  return hello;
}

// --- requests ---------------------------------------------------------

std::string EncodeRequest(const Request& request) {
  BinaryWriter w;
  w.PutU64(request.id);
  w.PutU8(static_cast<uint8_t>(request.mode));
  w.PutString(request.text);
  const common::QueryOptions& options = request.options;
  w.PutU8((options.trace ? kOptTrace : 0) |
          (options.bypass_cache ? kOptBypassCache : 0));
  w.PutU32(options.deadline_ms);
  w.PutU64(options.trace_id);
  w.PutU64(options.min_lsn);
  return w.TakeBuffer();
}

Result<Request> DecodeRequest(std::string_view body) {
  BinaryReader r(body);
  Request request;
  XQ_ASSIGN_OR_RETURN(request.id, r.GetU64());
  XQ_ASSIGN_OR_RETURN(uint8_t mode, r.GetU8());
  if (mode > static_cast<uint8_t>(common::QueryMode::kPing)) {
    return Status::InvalidArgument("bad request mode " + std::to_string(mode));
  }
  request.mode = static_cast<common::QueryMode>(mode);
  XQ_ASSIGN_OR_RETURN(request.text, r.GetString());
  XQ_ASSIGN_OR_RETURN(uint8_t flags, r.GetU8());
  request.options.trace = (flags & kOptTrace) != 0;
  request.options.bypass_cache = (flags & kOptBypassCache) != 0;
  XQ_ASSIGN_OR_RETURN(request.options.deadline_ms, r.GetU32());
  XQ_ASSIGN_OR_RETURN(request.options.trace_id, r.GetU64());
  XQ_ASSIGN_OR_RETURN(request.options.min_lsn, r.GetU64());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after request");
  }
  return request;
}

std::string EncodeResponseBody(const Response& response) {
  BinaryWriter w;
  w.PutU8(static_cast<uint8_t>(response.code));
  if (!response.ok()) {
    w.PutString(response.error);
    return w.TakeBuffer();
  }
  w.PutU8(static_cast<uint8_t>(response.kind));
  w.PutU8(response.flags);
  if (response.kind == PayloadKind::kRows) {
    w.PutU32(static_cast<uint32_t>(response.columns.size()));
    for (const std::string& col : response.columns) w.PutString(col);
    w.PutU32(static_cast<uint32_t>(response.rows.size()));
    for (const rel::Tuple& row : response.rows) rel::EncodeTuple(row, &w);
  } else {
    w.PutString(response.text);
  }
  // Trailing position keeps cached bodies patchable: the cache rewrites
  // only the flags byte, never this field's offset.
  w.PutU64(response.lsn);
  return w.TakeBuffer();
}

std::string EncodeResponse(const Response& response) {
  BinaryWriter w;
  w.PutU64(response.id);
  std::string out = w.TakeBuffer();
  out += EncodeResponseBody(response);
  return out;
}

std::string EncodeErrorResponse(uint64_t id, const Status& status) {
  Response response;
  response.id = id;
  response.code = status.code();
  response.error = status.message();
  return EncodeResponse(response);
}

Result<Response> DecodeResponse(std::string_view body) {
  BinaryReader r(body);
  Response response;
  XQ_ASSIGN_OR_RETURN(response.id, r.GetU64());
  XQ_ASSIGN_OR_RETURN(uint8_t code, r.GetU8());
  if (code > common::kMaxStatusCode) {
    return Status::Corruption("bad status code " + std::to_string(code));
  }
  response.code = static_cast<StatusCode>(code);
  if (!response.ok()) {
    XQ_ASSIGN_OR_RETURN(response.error, r.GetString());
    return response;
  }
  XQ_ASSIGN_OR_RETURN(uint8_t kind, r.GetU8());
  if (kind > kMaxPayloadKind) {
    return Status::Corruption("bad payload kind " + std::to_string(kind));
  }
  response.kind = static_cast<PayloadKind>(kind);
  XQ_ASSIGN_OR_RETURN(response.flags, r.GetU8());
  if (response.kind == PayloadKind::kRows) {
    XQ_ASSIGN_OR_RETURN(uint32_t ncols, r.GetU32());
    for (uint32_t i = 0; i < ncols; ++i) {
      XQ_ASSIGN_OR_RETURN(std::string col, r.GetString());
      response.columns.push_back(std::move(col));
    }
    XQ_ASSIGN_OR_RETURN(uint32_t nrows, r.GetU32());
    for (uint32_t i = 0; i < nrows; ++i) {
      XQ_ASSIGN_OR_RETURN(rel::Tuple row, rel::DecodeTuple(&r));
      response.rows.push_back(std::move(row));
    }
  } else {
    XQ_ASSIGN_OR_RETURN(response.text, r.GetString());
  }
  XQ_ASSIGN_OR_RETURN(response.lsn, r.GetU64());
  if (!r.AtEnd()) {
    return Status::Corruption("trailing bytes after response");
  }
  return response;
}

// --- SQL routing ------------------------------------------------------

std::string FirstSqlKeyword(std::string_view text) {
  size_t i = text.find_first_not_of(" \t\r\n");
  std::string word;
  for (; i != std::string_view::npos && i < text.size(); ++i) {
    char c = text[i];
    if (!((c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))) break;
    if (c >= 'A' && c <= 'Z') c += 'a' - 'A';
    word.push_back(c);
  }
  return word;
}

bool IsSqlWrite(std::string_view text) {
  const std::string word = FirstSqlKeyword(text);
  return word == "insert" || word == "update" || word == "delete" ||
         word == "create" || word == "drop" || word == "analyze";
}

}  // namespace xomatiq::srv
