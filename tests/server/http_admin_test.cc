// Ops-plane end-to-end tests: every admin endpoint served over real HTTP,
// slow queries surfacing in /queryz with plan fingerprints and
// est-vs-actual rows, and a traced request whose client and server halves
// merge into one Chrome timeline sharing the wire-propagated trace id.

#include "server/http_admin.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/metrics.h"
#include "common/net.h"
#include "common/query_log.h"
#include "common/trace.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "server/server.h"

namespace xomatiq::srv {
namespace {

constexpr char kEnzymeIdsXq[] =
    "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
    "RETURN $a//enzyme_id";

datagen::Corpus MakeCorpus(size_t enzymes) {
  datagen::CorpusOptions options;
  options.num_enzymes = enzymes;
  options.num_proteins = 5;
  options.num_nucleotides = 0;
  return datagen::GenerateCorpus(options);
}

// Blocking one-shot HTTP exchange against 127.0.0.1:port. Returns the full
// response (status line + headers + body) — the endpoint is HTTP/1.0 with
// Connection: close, so "read until EOF" is the framing.
std::string HttpRequest(uint16_t port, const std::string& request) {
  common::Result<int> dialed = net::Dial("127.0.0.1", port);
  if (!dialed.ok()) return "";
  const int fd = *dialed;
  size_t sent = 0;
  while (sent < request.size()) {
    ssize_t n = ::send(fd, request.data() + sent, request.size() - sent, 0);
    if (n <= 0) break;
    sent += static_cast<size_t>(n);
  }
  std::string response;
  char buf[4096];
  ssize_t n;
  while ((n = ::recv(fd, buf, sizeof buf, 0)) > 0) {
    response.append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return response;
}

std::string HttpGet(uint16_t port, const std::string& target) {
  return HttpRequest(port, "GET " + target + " HTTP/1.0\r\n\r\n");
}

std::string BodyOf(const std::string& response) {
  size_t pos = response.find("\r\n\r\n");
  return pos == std::string::npos ? "" : response.substr(pos + 4);
}

class HttpAdminTest : public ::testing::Test {
 protected:
  void SetUp() override {
    common::QueryLog::Global().set_enabled(true);
    common::QueryLog::Global().set_slow_threshold_ns(
        common::QueryLog::kDefaultSlowThresholdNs);
    common::QueryLog::Global().Clear();
    db_ = rel::Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(warehouse).value();
    hounds::EnzymeXmlTransformer enzyme;
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_enzyme.DEFAULT", enzyme,
                                 datagen::ToEnzymeFlatFile(MakeCorpus(8)))
                    .ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
    common::QueryLog::Global().set_slow_threshold_ns(
        common::QueryLog::kDefaultSlowThresholdNs);
    common::QueryLog::Global().Clear();
  }

  void StartServer() {
    ServerOptions options;
    options.port = 0;
    options.admin_port = 0;  // ephemeral admin endpoint
    options.service.cache = std::make_shared<ResultCache>(64);
    server_ = std::make_unique<QueryServer>(warehouse_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
    ASSERT_NE(server_->admin_port(), 0);
  }

  cli::Client Connect() {
    auto client = cli::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  std::unique_ptr<rel::Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(HttpAdminTest, AdminDisabledByDefault) {
  ServerOptions options;
  options.port = 0;  // admin_port stays at the -1 default
  QueryServer server(warehouse_.get(), options);
  ASSERT_TRUE(server.Start().ok());
  EXPECT_EQ(server.admin_port(), 0);
  server.Shutdown();
}

TEST_F(HttpAdminTest, HealthzReportsServing) {
  StartServer();
  std::string response = HttpGet(server_->admin_port(), "/healthz");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos) << response;
  EXPECT_NE(response.find("Connection: close"), std::string::npos);
  std::string body = BodyOf(response);
  EXPECT_NE(body.find("\"status\":\"ok\""), std::string::npos) << body;
  EXPECT_NE(body.find("\"durable\":false"), std::string::npos);
}

TEST_F(HttpAdminTest, MetricsServesPrometheusText) {
  StartServer();
  cli::Client client = Connect();
  ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM xml_document").ok());
  std::string response = HttpGet(server_->admin_port(), "/metrics");
  EXPECT_NE(response.find("HTTP/1.0 200"), std::string::npos) << response;
  EXPECT_NE(response.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  std::string body = BodyOf(response);
  // The request we just made is visible, with HELP/TYPE metadata.
  EXPECT_NE(body.find("# TYPE server_requests counter"), std::string::npos);
  EXPECT_NE(body.find("# HELP server_requests"), std::string::npos);
  ASSERT_NE(body.find("\nserver_requests "), std::string::npos);
  EXPECT_EQ(body.find("\nserver_requests 0\n"), std::string::npos);
}

TEST_F(HttpAdminTest, StatuszReportsServerVitals) {
  StartServer();
  cli::Client client = Connect();
  ASSERT_TRUE(client.Xq(kEnzymeIdsXq).ok());
  ASSERT_TRUE(client.Xq(kEnzymeIdsXq).ok());  // second hit is cached
  std::string body = BodyOf(HttpGet(server_->admin_port(), "/statusz"));
  for (const char* field :
       {"\"uptime_s\":", "\"active_sessions\":", "\"inflight_requests\":",
        "\"pool_queue_depth\":", "\"requests\":", "\"cache_hit_rate\":",
        "\"slow_queries\":", "\"query_log_total\":"}) {
    EXPECT_NE(body.find(field), std::string::npos) << field << " in " << body;
  }
  // The reader session holding `client` open is counted, and the repeated
  // XQuery registered at least one cache hit (counters are global to the
  // process, so "nonzero" is the portable assertion).
  EXPECT_NE(body.find("\"active_sessions\":1"), std::string::npos) << body;
  EXPECT_EQ(body.find("\"cache_hits\":0,"), std::string::npos) << body;
}

TEST_F(HttpAdminTest, QueryzShowsSlowQueryWithPlanAndRowCounts) {
  StartServer();
  common::QueryLog::Global().set_slow_threshold_ns(0);  // everything is slow
  cli::Client client = Connect();
  ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM xml_document").ok());
  std::string body = BodyOf(HttpGet(server_->admin_port(), "/queryz"));
  EXPECT_NE(body.find("\"slow_threshold_ms\":0.000"), std::string::npos);
  EXPECT_NE(body.find("\"recent\":["), std::string::npos);
  size_t slow = body.find("\"slow\":[");
  ASSERT_NE(slow, std::string::npos);
  std::string slow_json = body.substr(slow);
  EXPECT_NE(slow_json.find("SELECT COUNT(*) FROM xml_document"),
            std::string::npos)
      << body;
  EXPECT_NE(slow_json.find("\"plan_fp\":"), std::string::npos);
  EXPECT_NE(slow_json.find("\"est_rows\":"), std::string::npos);
  EXPECT_NE(slow_json.find("\"actual_rows\":1"), std::string::npos);
  // Slow entries carry the EXPLAIN ANALYZE capture.
  EXPECT_NE(slow_json.find("\"explain\":"), std::string::npos);
  EXPECT_NE(slow_json.find("actual rows="), std::string::npos);
}

TEST_F(HttpAdminTest, QueryzMarksCacheHits) {
  StartServer();
  cli::Client client = Connect();
  ASSERT_TRUE(client.Xq(kEnzymeIdsXq).ok());
  ASSERT_TRUE(client.Xq(kEnzymeIdsXq).ok());
  std::string body = BodyOf(HttpGet(server_->admin_port(), "/queryz"));
  // Newest first: the second (cached) request leads the recent list.
  size_t first = body.find("\"cache_hit\":true");
  size_t second = body.find("\"cache_hit\":false");
  ASSERT_NE(first, std::string::npos) << body;
  ASSERT_NE(second, std::string::npos) << body;
  EXPECT_LT(first, second);
}

TEST_F(HttpAdminTest, TracedRequestMergesIntoOneCrossProcessTimeline) {
  StartServer();
  cli::Client client = Connect();
  common::QueryOptions opts;
  opts.trace = true;
  auto response = client.Execute(common::QueryRequest::Xq(kEnzymeIdsXq, opts));
  ASSERT_TRUE(response.ok());
  ASSERT_TRUE(response->ok());

  // The client generated an id, put it on the wire, and kept its half.
  uint64_t id = client.last_trace_id();
  ASSERT_NE(id, 0u);
  std::string client_half = client.LastTraceJson();
  EXPECT_NE(client_half.find("client.rtt"), std::string::npos);
  EXPECT_NE(client_half.find("\"pid\":2"), std::string::npos);

  // The server's half is retrievable over HTTP by that id.
  char target[64];
  std::snprintf(target, sizeof target, "/tracez?id=%016llx",
                static_cast<unsigned long long>(id));
  std::string http_response = HttpGet(server_->admin_port(), target);
  EXPECT_NE(http_response.find("HTTP/1.0 200"), std::string::npos);
  std::string server_half = BodyOf(http_response);
  EXPECT_EQ(server_half, server_->service()->TraceJsonFor(id));
  EXPECT_NE(server_half.find("\"pid\":1"), std::string::npos) << server_half;

  // Both halves carry the shared id and merge into one timeline.
  char hex[32];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(id));
  EXPECT_NE(client_half.find(hex), std::string::npos);
  EXPECT_NE(server_half.find(hex), std::string::npos);
  std::string merged = common::MergeChromeTraceJson(client_half, server_half);
  EXPECT_NE(merged.find(std::string("\"traceId\":\"") + hex + "\""),
            std::string::npos)
      << merged;
  EXPECT_NE(merged.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(merged.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(merged.find("client.rtt"), std::string::npos);

  // An unknown id is a well-formed miss, not a crash.
  EXPECT_NE(BodyOf(HttpGet(server_->admin_port(), "/tracez?id=ffffffffffffffff"))
                .find("no such trace"),
            std::string::npos);
  // And the bare listing includes our trace's id.
  EXPECT_NE(BodyOf(HttpGet(server_->admin_port(), "/tracez")).find(hex),
            std::string::npos);
}

TEST_F(HttpAdminTest, IndexUnknownPathAndMethodGuards) {
  StartServer();
  uint16_t port = server_->admin_port();
  // "/" serves a plain-text index of the endpoints.
  std::string index = HttpGet(port, "/");
  EXPECT_NE(index.find("HTTP/1.0 200"), std::string::npos);
  EXPECT_NE(index.find("/metrics"), std::string::npos);
  EXPECT_NE(HttpGet(port, "/no-such-endpoint").find("HTTP/1.0 404"),
            std::string::npos);
  EXPECT_NE(HttpRequest(port, "POST /metrics HTTP/1.0\r\n\r\n")
                .find("HTTP/1.0 405"),
            std::string::npos);
  // Garbage that never becomes a request line is dropped without serving.
  EXPECT_EQ(HttpRequest(port, "not http at all\r\n\r\n").find("200"),
            std::string::npos);
  // The endpoint survives all of the above and still serves.
  EXPECT_NE(HttpGet(port, "/healthz").find("HTTP/1.0 200"),
            std::string::npos);
}

}  // namespace
}  // namespace xomatiq::srv
