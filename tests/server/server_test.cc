// End-to-end TCP service tests: concurrent mixed SQL/XQuery clients,
// STATS over the wire, overload rejection, protocol robustness against a
// hostile peer, cache invalidation on warehouse sync, graceful shutdown.

#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/metrics.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"

namespace xomatiq::srv {
namespace {

using common::StatusCode;

constexpr char kEnzymes[] = "hlx_enzyme.DEFAULT";
constexpr char kEnzymeIdsXq[] =
    "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
    "RETURN $a//enzyme_id";

datagen::Corpus MakeCorpus(size_t enzymes) {
  datagen::CorpusOptions options;
  options.num_enzymes = enzymes;
  options.num_proteins = 10;
  options.num_nucleotides = 0;
  return datagen::GenerateCorpus(options);
}

class ServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = rel::Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(warehouse).value();
    ASSERT_TRUE(warehouse_
                    ->LoadSource(kEnzymes, enzyme_,
                                 datagen::ToEnzymeFlatFile(MakeCorpus(12)))
                    .ok());
    hounds::SwissProtXmlTransformer sprot;
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_sprot.DEFAULT", sprot,
                                 datagen::ToSwissProtFlatFile(MakeCorpus(12)))
                    .ok());
  }

  // Ephemeral port; options.port is overridden.
  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    if (options.service.cache == nullptr) {
      options.service.cache = std::make_shared<ResultCache>(128);
    }
    cache_ = options.service.cache;
    server_ = std::make_unique<QueryServer>(warehouse_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  cli::Client Connect() {
    auto client = cli::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // Raw socket for hostile-peer tests.
  int RawConnect() {
    int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(server_->port());
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr),
                        sizeof(addr)),
              0);
    return fd;
  }

  std::unique_ptr<rel::Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  hounds::EnzymeXmlTransformer enzyme_;
  std::shared_ptr<ResultCache> cache_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(ServerTest, MixedWorkloadEightConcurrentClients) {
  StartServer();
  // Ground truth established over the same wire before the storm.
  int64_t doc_count = 0;
  size_t enzyme_rows = 0;
  {
    auto client = Connect();
    auto docs = client.Sql("SELECT COUNT(*) FROM xml_document");
    ASSERT_TRUE(docs.ok() && docs->ok());
    doc_count = docs->rows[0][0].AsInt();
    ASSERT_GT(doc_count, 0);
    auto ids = client.Xq(kEnzymeIdsXq);
    ASSERT_TRUE(ids.ok() && ids->ok());
    enzyme_rows = ids->rows.size();
    ASSERT_EQ(enzyme_rows, 12u);
  }
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&, t] {
      auto client = cli::Client::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < 25; ++i) {
        switch ((t + i) % 3) {
          case 0: {
            auto r = client->Sql("SELECT COUNT(*) FROM xml_document");
            if (!r.ok() || !r->ok() || r->rows.size() != 1 ||
                r->rows[0][0].AsInt() != doc_count) {
              failures.fetch_add(1);
            }
            break;
          }
          case 1: {
            auto r = client->Xq(kEnzymeIdsXq);
            if (!r.ok() || !r->ok() || r->rows.size() != enzyme_rows) {
              failures.fetch_add(1);
            }
            break;
          }
          default: {
            auto r = client->Execute(RequestMode::kXqXml, kEnzymeIdsXq);
            if (!r.ok() || !r->ok() ||
                r->text.find("<enzyme_id>") == std::string::npos) {
              failures.fetch_add(1);
            }
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(failures.load(), 0);

  // The identical queries hammered from 8 threads must have hit the cache.
  auto hits = common::MetricsRegistry::Global()
                  .GetCounter("server.cache.hits")
                  ->Value();
  EXPECT_GT(hits, 0u);
}

TEST_F(ServerTest, StatsOverWireShowsNonzeroCounters) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM xml_node").ok());
  ASSERT_TRUE(client.Xq(kEnzymeIdsXq).ok());
  auto stats = client.Execute(RequestMode::kStats, "");
  ASSERT_TRUE(stats.ok());
  ASSERT_TRUE(stats->ok()) << stats->error;
  const std::string& json = stats->text;
  for (const char* metric :
       {"server.requests", "server.connections", "xq.queries"}) {
    size_t pos = json.find(std::string("\"") + metric + "\":");
    ASSERT_NE(pos, std::string::npos) << metric << " missing\n" << json;
    size_t digits = json.find_first_of("0123456789", pos);
    ASSERT_NE(digits, std::string::npos);
    EXPECT_NE(json[digits], '0') << metric << " is zero";
  }
}

TEST_F(ServerTest, XqExplainOverWireShowsPhysicalPlans) {
  StartServer();
  auto client = Connect();
  // EXPLAIN mode renders, per generated SQL statement, the statement text
  // followed by the physical plan tree the engine will actually run.
  auto plain = client.Execute(RequestMode::kExplain, kEnzymeIdsXq);
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(plain->ok()) << plain->error;
  EXPECT_EQ(plain->kind, PayloadKind::kText);
  EXPECT_NE(plain->text.find("SELECT DISTINCT"), std::string::npos)
      << plain->text;
  EXPECT_NE(plain->text.find("Distinct"), std::string::npos) << plain->text;
  EXPECT_NE(plain->text.find("Sort"), std::string::npos) << plain->text;
  EXPECT_NE(plain->text.find("Scan"), std::string::npos) << plain->text;
  // Before ANALYZE no estimates appear; after ANALYZE over the same wire
  // the plans come back costed.
  EXPECT_EQ(plain->text.find("est rows="), std::string::npos) << plain->text;
  auto analyze = client.Sql("ANALYZE");
  ASSERT_TRUE(analyze.ok());
  ASSERT_TRUE(analyze->ok()) << analyze->error;
  auto costed = client.Execute(RequestMode::kExplain, kEnzymeIdsXq);
  ASSERT_TRUE(costed.ok());
  ASSERT_TRUE(costed->ok()) << costed->error;
  EXPECT_NE(costed->text.find("est rows="), std::string::npos)
      << costed->text;
}

TEST_F(ServerTest, SyncInvalidatesCachedResultsMidRun) {
  StartServer();
  auto client = Connect();

  auto first = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(first.ok() && first->ok());
  EXPECT_EQ(first->rows.size(), 12u);
  EXPECT_FALSE(first->cached());

  auto second = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(second.ok() && second->ok());
  EXPECT_TRUE(second->cached());
  EXPECT_EQ(second->rows.size(), 12u);

  // Sync the warehouse to a larger corpus mid-run; the sync's epoch must
  // strand the cached entry.
  ASSERT_TRUE(warehouse_
                  ->SyncSource(kEnzymes, enzyme_,
                               datagen::ToEnzymeFlatFile(MakeCorpus(16)))
                  .ok());

  auto third = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(third.ok() && third->ok());
  EXPECT_FALSE(third->cached()) << "stale cache entry survived the sync";
  EXPECT_EQ(third->rows.size(), 16u) << "served stale pre-sync rows";

  auto fourth = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(fourth.ok() && fourth->ok());
  EXPECT_TRUE(fourth->cached());
  EXPECT_EQ(fourth->rows.size(), 16u);
}

TEST_F(ServerTest, OverloadGetsTypedError) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.service.allow_sleep = true;
  StartServer(options);
  auto* rejected =
      common::MetricsRegistry::Global().GetCounter("server.rejected_overload");
  uint64_t rejected0 = rejected->Value();

  // Pin the single worker, then fill the single queue slot.
  std::thread t1([&] {
    auto client = Connect();
    auto r = client.Execute(RequestMode::kPing, "#sleep 400");
    EXPECT_TRUE(r.ok() && r->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread t2([&] {
    auto client = Connect();
    auto r = client.Execute(RequestMode::kPing, "#sleep 100");
    EXPECT_TRUE(r.ok() && r->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // Worker busy + queue full: the third request must be refused, typed.
  auto client = Connect();
  auto r = client.Execute(RequestMode::kPing, "");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->code, StatusCode::kOverloaded) << r->error;
  EXPECT_GT(rejected->Value(), rejected0);

  t1.join();
  t2.join();
  // Once drained the same session is served again (backpressure, not a
  // ban).
  auto again = client.Execute(RequestMode::kPing, "");
  ASSERT_TRUE(again.ok());
  EXPECT_TRUE(again->ok());
}

TEST_F(ServerTest, MalformedRequestBodyGetsErrorThenClose) {
  StartServer();
  int fd = RawConnect();
  ASSERT_TRUE(WriteFrame(fd, "\xff garbage that is not a request").ok());
  auto reply = ReadFrame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_FALSE(response->ok());
  EXPECT_EQ(response->id, 0u);
  // The server then drops the connection: next read is a clean EOF.
  auto next = ReadFrame(fd, kDefaultMaxFrameBytes);
  EXPECT_FALSE(next.ok());
  EXPECT_EQ(next.status().code(), StatusCode::kNotFound);
  ::close(fd);
}

TEST_F(ServerTest, OversizedFrameRejected) {
  ServerOptions options;
  options.max_frame_bytes = 1024;
  StartServer(options);
  int fd = RawConnect();
  uint32_t huge = 1u << 28;
  ASSERT_EQ(::send(fd, &huge, 4, 0), 4);
  auto reply = ReadFrame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok());
  auto response = DecodeResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kInvalidArgument);
  ::close(fd);
}

TEST_F(ServerTest, SlowClientMidFrameTimesOut) {
  ServerOptions options;
  options.read_timeout_ms = 100;
  StartServer(options);
  int fd = RawConnect();
  // Declare a 32-byte frame, deliver 3 bytes, then stall.
  uint32_t len = 32;
  ASSERT_EQ(::send(fd, &len, 4, 0), 4);
  ASSERT_EQ(::send(fd, "abc", 3, 0), 3);
  auto reply = ReadFrame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kTimeout);
  auto next = ReadFrame(fd, kDefaultMaxFrameBytes);
  EXPECT_FALSE(next.ok());
  ::close(fd);
}

TEST_F(ServerTest, TruncatedFrameThenHangupClosesCleanly) {
  StartServer();
  int fd = RawConnect();
  uint32_t len = 64;
  ASSERT_EQ(::send(fd, &len, 4, 0), 4);
  ASSERT_EQ(::send(fd, "abc", 3, 0), 3);
  ::close(fd);  // server sees EOF mid-frame; must not crash or hang
  // The server is still healthy for other clients.
  auto client = Connect();
  auto r = client.Execute(RequestMode::kPing, "");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

TEST_F(ServerTest, GracefulShutdownDrainsInFlightQueries) {
  ServerOptions options;
  options.service.allow_sleep = true;
  StartServer(options);
  std::atomic<bool> got_response{false};
  std::thread inflight([&] {
    auto client = Connect();
    auto r = client.Execute(RequestMode::kPing, "#sleep 300");
    if (r.ok() && r->ok() && r->text == "pong") got_response.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  server_->Shutdown();
  inflight.join();
  EXPECT_TRUE(got_response.load())
      << "in-flight request was dropped by shutdown";
  // New connections are refused after shutdown.
  auto late = cli::Client::Connect("127.0.0.1", server_->port());
  if (late.ok()) {
    auto r = late->Execute(RequestMode::kPing, "");
    EXPECT_FALSE(r.ok());
  }
}

}  // namespace
}  // namespace xomatiq::srv
