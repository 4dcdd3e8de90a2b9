// Wire-protocol robustness: encode/decode round trips, rejection of
// malformed bodies, and the SQL write routing shared by the server and
// the cluster client. The framing these bodies ride on is tested with
// common/net (tests/common/net_test.cc).

#include "server/protocol.h"

#include <gtest/gtest.h>

namespace xomatiq::srv {
namespace {

using common::StatusCode;

TEST(ProtocolTest, RequestRoundTrip) {
  Request request;
  request.id = 0x1122334455667788ull;
  request.mode = common::QueryMode::kXqXml;
  request.text = "FOR $a IN document(\"db\")/root RETURN $a";
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, request.id);
  EXPECT_EQ(decoded->mode, request.mode);
  EXPECT_EQ(decoded->text, request.text);
}

TEST(ProtocolTest, OptionsRoundTrip) {
  Request request;
  request.id = 3;
  request.mode = common::QueryMode::kSql;
  request.text = "SELECT COUNT(*) FROM kv";
  request.options.deadline_ms = 250;
  request.options.trace = true;
  request.options.bypass_cache = true;
  request.options.trace_id = 0xfeedfacecafebeefULL;
  request.options.min_lsn = 0x1000000001ULL;
  auto decoded = DecodeRequest(EncodeRequest(request));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->options, request.options);
  // Default options travel as the same fixed-size block: one shape.
  Request plain = request;
  plain.options = {};
  std::string encoded = EncodeRequest(plain);
  EXPECT_EQ(encoded.size(), EncodeRequest(request).size());
  auto decoded_plain = DecodeRequest(encoded);
  ASSERT_TRUE(decoded_plain.ok());
  EXPECT_EQ(decoded_plain->options, common::QueryOptions{});
}

TEST(ProtocolTest, OptionsTraceIdRoundTrip) {
  Request request;
  request.id = 4;
  request.mode = common::QueryMode::kSql;
  request.text = "SELECT 1";
  request.options.trace = true;
  request.options.deadline_ms = 250;
  request.options.trace_id = 0xfeedfacecafebeefULL;
  std::string with_id = EncodeRequest(request);
  auto decoded = DecodeRequest(with_id);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_TRUE(decoded->options.trace);
  EXPECT_EQ(decoded->options.deadline_ms, 250u);
  EXPECT_EQ(decoded->options.trace_id, 0xfeedfacecafebeefULL);
  // No flag gates the id: without one its slot still travels, as zero.
  request.options.trace_id = 0;
  std::string without_id = EncodeRequest(request);
  EXPECT_EQ(without_id.size(), with_id.size());
  auto decoded_plain = DecodeRequest(without_id);
  ASSERT_TRUE(decoded_plain.ok());
  EXPECT_EQ(decoded_plain->options.trace_id, 0u);
  EXPECT_TRUE(decoded_plain->options.trace);
}

TEST(ProtocolTest, OptionsMinLsnRoundTrip) {
  Request request;
  request.id = 5;
  request.mode = common::QueryMode::kSql;
  request.text = "SELECT COUNT(*) FROM kv";
  request.options.min_lsn = 0x1000000001ULL;
  std::string with_lsn = EncodeRequest(request);
  auto decoded = DecodeRequest(with_lsn);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->options.min_lsn, 0x1000000001ULL);
  // No flag gates the token: without one its slot still travels, as zero.
  request.options.min_lsn = 0;
  std::string without_lsn = EncodeRequest(request);
  EXPECT_EQ(without_lsn.size(), with_lsn.size());
  auto decoded_plain = DecodeRequest(without_lsn);
  ASSERT_TRUE(decoded_plain.ok());
  EXPECT_EQ(decoded_plain->options.min_lsn, 0u);
}

TEST(ProtocolTest, ResponseLsnRoundTrip) {
  Response response;
  response.id = 11;
  response.kind = PayloadKind::kRows;
  response.columns = {"n"};
  response.rows.push_back({rel::Value::Int(5)});
  response.lsn = 987654321;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->lsn, 987654321u);
  ASSERT_EQ(decoded->rows.size(), 1u);
  EXPECT_EQ(decoded->rows[0][0].AsInt(), 5);
}

TEST(ProtocolTest, LsnTrailsPayloadSoCachedBodiesStayPatchable) {
  // The LSN sits AFTER the payload, so the result cache's flags-byte
  // patching remains valid for LSN-stamped bodies: byte kFlagsOffset is
  // still the flags byte.
  Response response;
  response.id = 12;
  response.kind = PayloadKind::kText;
  response.text = "payload";
  response.lsn = 42;
  std::string framed = EncodeResponse(response);
  framed[8 + kFlagsOffset] |= kFlagCached;
  auto decoded = DecodeResponse(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->cached());
  EXPECT_EQ(decoded->lsn, 42u);
  EXPECT_EQ(decoded->text, "payload");
}

TEST(ProtocolTest, HelloRoundTrip) {
  Hello hello;
  hello.minor = 7;
  std::string encoded = EncodeHello(hello);
  auto decoded = DecodeHello(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->major, kProtocolMajor);
  EXPECT_EQ(decoded->minor, 7);
  // A request body is not a hello...
  Request request;
  request.text = "SELECT 1";
  EXPECT_EQ(DecodeHello(EncodeRequest(request)).status().code(),
            StatusCode::kInvalidArgument);
  // ...and a hello carries nothing after its version.
  EXPECT_EQ(DecodeHello(encoded + "x").status().code(),
            StatusCode::kCorruption);
}

// Protocol 2.0 has no feature bits: what 1.x negotiated is part of the
// one wire shape, so the version in the hello is the whole advertisement.
TEST(ProtocolTest, HelloAdvertisesLsnFeature) {
  auto hello = DecodeHello(EncodeHello(Hello{}));
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->major, 2);
  // Every OK response carries its LSN, zero included.
  Response response;
  response.kind = PayloadKind::kText;
  response.text = "t";
  std::string unstamped = EncodeResponseBody(response);
  response.lsn = 42;
  EXPECT_EQ(EncodeResponseBody(response).size(), unstamped.size());
  response.lsn = 0;
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->lsn, 0u);
  EXPECT_EQ(decoded->text, "t");
}

TEST(ProtocolTest, HelloAdvertisesTraceContextFeature) {
  std::string encoded = EncodeHello(Hello{});
  auto hello = DecodeHello(encoded);
  ASSERT_TRUE(hello.ok()) << hello.status().ToString();
  EXPECT_EQ(hello->major, 2);
  // Magic and version only: a 1.x hello's trailing feature word is refused.
  EXPECT_EQ(encoded.size(), sizeof(kWireMagic) + 2);
  Hello legacy;
  legacy.major = 1;
  legacy.minor = 3;
  EXPECT_EQ(DecodeHello(EncodeHello(legacy) + std::string(4, '\x07'))
                .status()
                .code(),
            StatusCode::kCorruption);
  // Every request carries the trace id slot, set or not.
  Request request;
  request.text = "SELECT 1";
  std::string untraced = EncodeRequest(request);
  request.options.trace_id = 99;
  EXPECT_EQ(EncodeRequest(request).size(), untraced.size());
}

TEST(ProtocolTest, RowsResponseRoundTrip) {
  Response response;
  response.id = 7;
  response.kind = PayloadKind::kRows;
  response.columns = {"id", "score", "name"};
  response.rows.push_back(
      {rel::Value::Int(42), rel::Value::Double(1.5), rel::Value::Text("x")});
  response.rows.push_back(
      {rel::Value::Null(), rel::Value::Int(-1), rel::Value::Text("")});
  auto decoded = DecodeResponse(EncodeResponse(response));
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->id, 7u);
  EXPECT_TRUE(decoded->ok());
  EXPECT_FALSE(decoded->cached());
  EXPECT_EQ(decoded->columns, response.columns);
  ASSERT_EQ(decoded->rows.size(), 2u);
  EXPECT_EQ(decoded->rows[0][0].AsInt(), 42);
  EXPECT_EQ(decoded->rows[0][2].AsText(), "x");
  EXPECT_TRUE(decoded->rows[1][0].is_null());
}

TEST(ProtocolTest, ErrorResponseRoundTrip) {
  std::string encoded =
      EncodeErrorResponse(9, common::Status::Overloaded("queue full"));
  auto decoded = DecodeResponse(encoded);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->id, 9u);
  EXPECT_EQ(decoded->code, StatusCode::kOverloaded);
  EXPECT_EQ(decoded->error, "queue full");
}

TEST(ProtocolTest, CachedFlagPatchesAtDocumentedOffset) {
  Response response;
  response.id = 3;
  response.kind = PayloadKind::kText;
  response.text = "hello";
  std::string body = EncodeResponseBody(response);
  ASSERT_GT(body.size(), kFlagsOffset);
  body[kFlagsOffset] |= kFlagCached;
  std::string framed = EncodeResponse(response);
  framed[8 + kFlagsOffset] |= kFlagCached;  // after the u64 id
  auto decoded = DecodeResponse(framed);
  ASSERT_TRUE(decoded.ok());
  EXPECT_TRUE(decoded->cached());
  EXPECT_EQ(decoded->text, "hello");
}

TEST(ProtocolTest, DecodeRejectsBadMode) {
  Request request;
  request.text = "q";
  std::string encoded = EncodeRequest(request);
  encoded[8] = 0x7f;  // mode byte
  EXPECT_FALSE(DecodeRequest(encoded).ok());
}

TEST(ProtocolTest, DecodeRejectsTrailingGarbage) {
  std::string encoded = EncodeRequest(Request{});
  encoded += "zzz";
  auto decoded = DecodeRequest(encoded);
  ASSERT_FALSE(decoded.ok());
  EXPECT_EQ(decoded.status().code(), StatusCode::kCorruption);
}

TEST(ProtocolTest, DecodeRejectsTruncatedBody) {
  std::string encoded =
      EncodeRequest(Request{0, common::QueryMode::kSql, "select", {}});
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(DecodeRequest(std::string_view(encoded.data(), len)).ok())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(ProtocolTest, DecodeResponseRejectsBadStatusAndKind) {
  Response response;
  response.kind = PayloadKind::kText;
  std::string encoded = EncodeResponse(response);
  std::string bad_status = encoded;
  bad_status[8] = 0x7f;
  EXPECT_FALSE(DecodeResponse(bad_status).ok());
  std::string bad_kind = encoded;
  bad_kind[9] = 0x7f;
  EXPECT_FALSE(DecodeResponse(bad_kind).ok());
}

TEST(ProtocolTest, SqlWriteRoutingByFirstKeyword) {
  EXPECT_EQ(FirstSqlKeyword(" \t\r\nSeLeCt * FROM t"), "select");
  EXPECT_EQ(FirstSqlKeyword("(select 1)"), "");
  EXPECT_EQ(FirstSqlKeyword(""), "");
  EXPECT_TRUE(IsSqlWrite("  \n\tINSERT INTO t VALUES (1)"));
  EXPECT_TRUE(IsSqlWrite("UpDaTe t SET a = 1"));
  EXPECT_TRUE(IsSqlWrite("delete FROM t"));
  EXPECT_TRUE(IsSqlWrite("CREATE TABLE t (a INT)"));
  EXPECT_TRUE(IsSqlWrite("drop table t"));
  EXPECT_TRUE(IsSqlWrite("ANALYZE"));
  EXPECT_FALSE(IsSqlWrite("analyzed"));
  EXPECT_FALSE(IsSqlWrite("(select 1)"));
  EXPECT_FALSE(IsSqlWrite("EXPLAIN SELECT * FROM t"));
  EXPECT_FALSE(IsSqlWrite("select * from t"));
  EXPECT_FALSE(IsSqlWrite(""));
}

}  // namespace
}  // namespace xomatiq::srv
