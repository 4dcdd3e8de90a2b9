// End-to-end replication tests: snapshot bootstrap equivalence, WAL tail
// streaming, primary restart with LSN-tracked resume, corrupt-frame
// recovery, read-only enforcement, min_lsn read-your-writes, cluster
// client routing, cache invalidation on apply, stale-replica health, and
// a concurrent writer/reader hammer (run under TSan in CI).

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "client/client.h"
#include "client/cluster_client.h"
#include "common/fault_injector.h"
#include "common/net.h"
#include "common/query_options.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "replication/repl_server.h"
#include "replication/replica.h"
#include "server/server.h"

namespace xomatiq::repl {
namespace {

using common::StatusCode;

constexpr char kEnzymes[] = "hlx_enzyme.DEFAULT";
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

bool PollUntil(const std::function<bool()>& pred, int timeout_ms) {
  auto deadline = std::chrono::steady_clock::now() +
                  std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return pred();
}

// Blocking one-shot HTTP exchange against 127.0.0.1:port (the admin
// endpoint is HTTP/1.0 with Connection: close, so read-until-EOF frames
// the response).
std::string HttpGet(uint16_t port, const std::string& target) {
  common::Result<int> dialed = net::Dial("127.0.0.1", port);
  if (!dialed.ok()) return "";
  const int fd = *dialed;
  std::string request = "GET " + target + " HTTP/1.0\r\n\r\n";
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

// A primary: database (+ optional warehouse / writable query server) and
// the WAL shipper. Members declare in dependency order so destruction
// tears the servers down before the database.
struct PrimaryNode {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  std::unique_ptr<ReplicationServer> shipper;
  std::unique_ptr<srv::QueryServer> server;
};

// A replica: database, applier, and optionally the read-only serving
// stack wired exactly like server_main.
struct ReplicaNode {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<ReplicaApplier> applier;
  std::unique_ptr<hounds::Warehouse> warehouse;
  std::shared_ptr<srv::ResultCache> cache;
  std::unique_ptr<srv::QueryServer> server;
};

class ReplicationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per test and process: concurrent ctest processes must not share
    // it (under ASan every process gets the same fixture address).
    const auto* test = testing::UnitTest::GetInstance()->current_test_info();
    base_ = testing::TempDir() + "/xq_repl_" +
            test->test_suite_name() + "." + test->name() + "." +
            std::to_string(getpid());
    std::filesystem::remove_all(base_);
    common::FaultInjector::Global().Reset();
  }
  void TearDown() override {
    common::FaultInjector::Global().Reset();
    std::filesystem::remove_all(base_);
  }

  std::string Dir(const std::string& name) { return base_ + "/" + name; }

  // Primary with the warehouse schema installed (so replicas can open a
  // warehouse over replicated state without local writes).
  void StartPrimary(PrimaryNode* node, size_t enzymes = 0) {
    node->db = rel::Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(node->db.get());
    ASSERT_TRUE(warehouse.ok()) << warehouse.status().ToString();
    node->warehouse = std::move(warehouse).value();
    if (enzymes > 0) {
      hounds::EnzymeXmlTransformer enzyme;
      ASSERT_TRUE(node->warehouse
                      ->LoadSource(kEnzymes, enzyme,
                                   datagen::ToEnzymeFlatFile(
                                       MakeCorpus(enzymes)))
                      .ok());
    }
    StartShipper(node);
  }

  void StartShipper(PrimaryNode* node,
                    ReplicationServerOptions sopts = {}) {
    node->shipper =
        std::make_unique<ReplicationServer>(node->db.get(), sopts);
    ASSERT_TRUE(node->shipper->Start().ok());
  }

  // Writable query server on the primary (for cluster-client tests).
  void ServePrimary(PrimaryNode* node) {
    srv::ServerOptions options;
    options.port = 0;
    node->server =
        std::make_unique<srv::QueryServer>(node->warehouse.get(), options);
    ASSERT_TRUE(node->server->Start().ok());
  }

  // Database + applier, caught up past the bootstrap.
  void StartReplica(ReplicaNode* node, uint16_t primary_port,
                    ReplicaApplierOptions ropts = {}) {
    node->db = rel::Database::OpenInMemory();
    ropts.primary_port = primary_port;
    node->applier =
        std::make_unique<ReplicaApplier>(node->db.get(), ropts);
    ASSERT_TRUE(node->applier->Start().ok());
    ASSERT_TRUE(node->applier->WaitUntilCaughtUp(10000).ok());
  }

  // Warehouse + read-only query server over an already caught-up replica,
  // wired exactly as server_main wires one.
  void ServeReplica(ReplicaNode* node, int admin_port = -1,
                    uint32_t min_lsn_wait_ms = 300) {
    auto warehouse = hounds::Warehouse::Open(node->db.get());
    ASSERT_TRUE(warehouse.ok()) << warehouse.status().ToString();
    node->warehouse = std::move(warehouse).value();
    srv::ServerOptions options;
    options.port = 0;
    options.admin_port = admin_port;
    options.service.cache = node->cache;
    options.service.read_only = true;
    options.service.min_lsn_wait_ms = min_lsn_wait_ms;
    ReplicaApplier* applier = node->applier.get();
    options.service.wait_for_lsn = [applier](uint64_t lsn,
                                             uint32_t budget_ms) {
      return applier->WaitForLsn(lsn, budget_ms);
    };
    options.replica_ready = [applier] { return applier->ready(); };
    options.replication_statusz = [applier] {
      return applier->StatuszJson();
    };
    node->server =
        std::make_unique<srv::QueryServer>(node->warehouse.get(), options);
    ASSERT_TRUE(node->server->Start().ok());
  }

  cli::Client Connect(uint16_t port) {
    auto client = cli::Client::Connect("127.0.0.1", port);
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // DDL/DML straight on the database, under the exclusive latch exactly
  // like the engine would hold it.
  void CreateKv(rel::Database* db) {
    std::unique_lock<std::shared_mutex> lock(db->latch());
    ASSERT_TRUE(
        db->CreateTable("kv", rel::Schema({{"k", rel::ValueType::kInt,
                                            false}}))
            .ok());
  }
  void InsertKv(rel::Database* db, int from, int to) {
    std::unique_lock<std::shared_mutex> lock(db->latch());
    for (int i = from; i < to; ++i) {
      ASSERT_TRUE(db->Insert("kv", {rel::Value::Int(i)}).ok());
    }
  }
  size_t KvRows(rel::Database* db) {
    std::shared_lock<std::shared_mutex> lock(db->latch());
    auto table = db->GetTable("kv");
    EXPECT_TRUE(table.ok());
    return table.ok() ? (*table)->num_live_rows() : 0;
  }

  std::string base_;
};

TEST_F(ReplicationTest, SnapshotBootstrapMatchesPrimaryState) {
  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary, /*enzymes=*/12));
  const uint64_t loaded_lsn = primary.db->durable_lsn();
  ASSERT_GT(loaded_lsn, 0u);

  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  EXPECT_EQ(replica.db->applied_lsn(), loaded_lsn);
  EXPECT_EQ(replica.applier->status().snapshots_installed, 1u);
  EXPECT_EQ(primary.shipper->stats().snapshots_shipped, 1u);

  // The installed state is the primary's state, byte for byte.
  std::string primary_state, replica_state;
  {
    std::shared_lock<std::shared_mutex> lock(primary.db->latch());
    primary_state = primary.db->EncodeState();
  }
  {
    std::shared_lock<std::shared_mutex> lock(replica.db->latch());
    replica_state = replica.db->EncodeState();
  }
  EXPECT_EQ(primary_state, replica_state);

  // And the replica serves it through the normal query path.
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica));
  auto client = Connect(replica.server->port());
  auto ids = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(ids.ok()) << ids.status().ToString();
  ASSERT_TRUE(ids->ok()) << ids->error;
  EXPECT_EQ(ids->rows.size(), 12u);
  EXPECT_GT(ids->lsn, 0u);  // responses carry the serving position
}

TEST_F(ReplicationTest, ColdStartTailsRecordsWithoutSnapshot) {
  // Replica connects while the primary is empty: both are at LSN 0, so no
  // snapshot is needed and every subsequent write arrives as a record.
  PrimaryNode primary;
  primary.db = rel::Database::OpenInMemory();
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary));

  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  EXPECT_EQ(replica.applier->status().snapshots_installed, 0u);

  ASSERT_NO_FATAL_FAILURE(CreateKv(primary.db.get()));
  ASSERT_NO_FATAL_FAILURE(InsertKv(primary.db.get(), 0, 25));
  const uint64_t target = primary.db->durable_lsn();
  EXPECT_EQ(target, 26u);  // CREATE + 25 inserts, numbered from 1

  ASSERT_TRUE(replica.applier->WaitForLsn(target, 10000));
  EXPECT_EQ(replica.db->applied_lsn(), target);
  EXPECT_EQ(KvRows(replica.db.get()), 25u);
  ReplicaStatus status = replica.applier->status();
  EXPECT_EQ(status.snapshots_installed, 0u);
  EXPECT_EQ(status.records_applied, target);
  EXPECT_GE(primary.shipper->stats().records_shipped, target);
}

TEST_F(ReplicationTest, FailedBindDetachesTheWalSink) {
  // A shipper whose port is taken reports the error and afterwards copies
  // no commit of its database into its ring.
  PrimaryNode primary;
  primary.db = rel::Database::OpenInMemory();
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary));

  std::unique_ptr<rel::Database> db = rel::Database::OpenInMemory();
  ReplicationServerOptions sopts;
  sopts.port = primary.shipper->port();
  ReplicationServer taken(db.get(), sopts);
  EXPECT_FALSE(taken.Start().ok());
  ASSERT_NO_FATAL_FAILURE(CreateKv(db.get()));
  ASSERT_NO_FATAL_FAILURE(InsertKv(db.get(), 0, 5));
  EXPECT_EQ(db->durable_lsn(), 6u);
  EXPECT_EQ(taken.stats().ring_records, 0u);
}

TEST_F(ReplicationTest, ReplicaResumesAfterPrimaryRestart) {
  const std::string dir = Dir("primary");
  PrimaryNode primary;
  {
    auto opened = rel::Database::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    primary.db = std::move(opened).value();
  }
  ASSERT_NO_FATAL_FAILURE(CreateKv(primary.db.get()));
  ASSERT_NO_FATAL_FAILURE(InsertKv(primary.db.get(), 0, 20));
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary));
  const uint16_t port = primary.shipper->port();

  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, port));
  const uint64_t before_restart = primary.db->durable_lsn();
  EXPECT_EQ(replica.db->applied_lsn(), before_restart);
  EXPECT_EQ(replica.applier->status().snapshots_installed, 1u);

  // Primary crashes and comes back on the same port; the replica keeps
  // running, reconnects, and resumes from its applied LSN.
  primary.shipper->Shutdown();
  primary.shipper.reset();
  primary.db.reset();
  {
    auto opened = rel::Database::Open(dir);
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    primary.db = std::move(opened).value();
  }
  EXPECT_EQ(primary.db->durable_lsn(), before_restart);
  ReplicationServerOptions sopts;
  sopts.port = port;
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary, sopts));
  // Written after the shipper is back up, so the records pass through its
  // ring and the replica can tail from its applied LSN (a write that the
  // ring never saw would correctly force a re-bootstrap instead).
  ASSERT_NO_FATAL_FAILURE(InsertKv(primary.db.get(), 20, 30));

  const uint64_t target = primary.db->durable_lsn();
  ASSERT_TRUE(replica.applier->WaitForLsn(target, 15000));
  EXPECT_EQ(KvRows(replica.db.get()), 30u);
  ReplicaStatus status = replica.applier->status();
  EXPECT_GE(status.reconnects, 1u);
  // Resume streamed from the applied LSN: no second bootstrap.
  EXPECT_EQ(status.snapshots_installed, 1u);
}

TEST_F(ReplicationTest, CorruptShippedFrameReconnectsAndRecovers) {
  PrimaryNode primary;
  primary.db = rel::Database::OpenInMemory();
  ASSERT_NO_FATAL_FAILURE(CreateKv(primary.db.get()));
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary));

  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));

  // Arm the ship-path fault with the XOMATIQ_FAULTS spec syntax: the 3rd
  // outbound message leaves the primary with a flipped payload byte. The
  // replica's CRC check must catch it and treat it like a torn record:
  // drop the stream, reconnect, resume from the applied LSN.
  ASSERT_TRUE(common::FaultInjector::Global()
                  .Configure("repl.ship.corrupt=nth:3@corruption")
                  .ok());
  ASSERT_NO_FATAL_FAILURE(InsertKv(primary.db.get(), 0, 40));

  const uint64_t target = primary.db->durable_lsn();
  ASSERT_TRUE(replica.applier->WaitForLsn(target, 15000));
  EXPECT_EQ(KvRows(replica.db.get()), 40u);
  EXPECT_EQ(common::FaultInjector::Global().fires("repl.ship.corrupt"), 1u);
  ReplicaStatus status = replica.applier->status();
  EXPECT_GE(status.corrupt_frames, 1u);
  EXPECT_GE(status.reconnects, 1u);
}

TEST_F(ReplicationTest, ReplicaRejectsWritesAndReportsWalStatus) {
  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary, /*enzymes=*/8));
  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica));

  auto client = Connect(replica.server->port());
  for (const char* stmt :
       {"INSERT INTO kv VALUES (1)", "CREATE TABLE kv (k INT)",
        "DELETE FROM kv WHERE k = 1", "ANALYZE xml_document"}) {
    auto response = client.Sql(stmt);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->code, StatusCode::kReadOnly) << stmt;
  }

  // Reads still serve, including WAL STATUS, which reports the LSNs.
  auto count = client.Sql("SELECT COUNT(*) FROM xml_document");
  ASSERT_TRUE(count.ok() && count->ok());
  EXPECT_GT(count->rows[0][0].AsInt(), 0);

  auto wal = client.Sql("WAL STATUS");
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  ASSERT_TRUE(wal->ok()) << wal->error;
  bool saw_applied = false;
  for (const auto& row : wal->rows) {
    if (row[0].AsText() == "applied_lsn") {
      saw_applied = true;
      EXPECT_EQ(row[1].AsText(),
                std::to_string(replica.db->applied_lsn()));
    }
  }
  EXPECT_TRUE(saw_applied);
}

TEST_F(ReplicationTest, MinLsnWaitsForCatchUpOrRefusesLagging) {
  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary));
  ASSERT_NO_FATAL_FAILURE(CreateKv(primary.db.get()));
  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica, /*admin_port=*/-1,
                                       /*min_lsn_wait_ms=*/300));
  auto client = Connect(replica.server->port());

  // Freeze the applier, commit on the primary, and demand the commit LSN:
  // the replica waits out its budget, then answers kLagging.
  replica.applier->PauseApply(true);
  ASSERT_NO_FATAL_FAILURE(InsertKv(primary.db.get(), 0, 1));
  const uint64_t commit_lsn = primary.db->durable_lsn();
  ASSERT_GT(commit_lsn, replica.db->applied_lsn());

  common::QueryOptions opts;
  opts.min_lsn = commit_lsn;
  auto lagging =
      client.Execute(common::QueryRequest::Sql("SELECT COUNT(*) FROM kv", opts));
  ASSERT_TRUE(lagging.ok()) << lagging.status().ToString();
  EXPECT_EQ(lagging->code, StatusCode::kLagging);

  // Same read while replication catches up mid-wait: the gate wakes and
  // the response observes the write.
  std::thread unpause([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    replica.applier->PauseApply(false);
  });
  auto served =
      client.Execute(common::QueryRequest::Sql("SELECT COUNT(*) FROM kv", opts));
  unpause.join();
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  ASSERT_TRUE(served->ok()) << served->error;
  EXPECT_EQ(served->rows[0][0].AsInt(), 1);
  EXPECT_GE(served->lsn, commit_lsn);
}

TEST_F(ReplicationTest, ClusterClientSplitsReadsAndWrites) {
  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary));
  ASSERT_NO_FATAL_FAILURE(ServePrimary(&primary));
  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica, /*admin_port=*/-1,
                                       /*min_lsn_wait_ms=*/300));

  cli::ClusterOptions copts;
  copts.primary = {"127.0.0.1", primary.server->port()};
  copts.replicas = {{"127.0.0.1", replica.server->port()}};
  cli::ClusterClient cluster(copts);

  // Writes route to the primary and record the commit LSN.
  auto ddl = cluster.Sql("CREATE TABLE kv (k INT)");
  ASSERT_TRUE(ddl.ok() && ddl->ok()) << ddl.status().ToString();
  for (int i = 0; i < 5; ++i) {
    auto ins =
        cluster.Sql("INSERT INTO kv VALUES (" + std::to_string(i) + ")");
    ASSERT_TRUE(ins.ok() && ins->ok());
  }
  EXPECT_EQ(cluster.last_write_lsn(), primary.db->durable_lsn());
  EXPECT_GE(cluster.stats().primary_requests, 6u);

  // A read right after the writes carries min_lsn, so the replica answer
  // can never be the pre-write state.
  auto count = cluster.Sql("SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(count.ok() && count->ok()) << count.status().ToString();
  EXPECT_EQ(count->rows[0][0].AsInt(), 5);
  EXPECT_GE(cluster.stats().replica_requests, 1u);

  // A lagging replica bounces the read to the primary, which still sees
  // the write.
  replica.applier->PauseApply(true);
  auto ins = cluster.Sql("INSERT INTO kv VALUES (5)");
  ASSERT_TRUE(ins.ok() && ins->ok());
  auto fallback = cluster.Sql("SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(fallback.ok() && fallback->ok())
      << fallback.status().ToString();
  EXPECT_EQ(fallback->rows[0][0].AsInt(), 6);
  EXPECT_GE(cluster.stats().replica_fallbacks, 1u);

  // A write misrouted through Read() is refused by the replica with
  // kReadOnly and lands on the primary.
  auto misrouted = cluster.Read(common::QueryRequest::Sql("INSERT INTO kv VALUES (100)"));
  ASSERT_TRUE(misrouted.ok() && misrouted->ok())
      << misrouted.status().ToString();
  EXPECT_GE(cluster.stats().replica_fallbacks, 2u);

  replica.applier->PauseApply(false);
  ASSERT_TRUE(
      replica.applier->WaitForLsn(primary.db->durable_lsn(), 10000));
  auto final_count = cluster.Sql("SELECT COUNT(*) FROM kv");
  ASSERT_TRUE(final_count.ok() && final_count->ok());
  EXPECT_EQ(final_count->rows[0][0].AsInt(), 7);
}

TEST_F(ReplicationTest, ReplicaCacheInvalidatedOnApply) {
  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary, /*enzymes=*/12));
  ReplicaNode replica;
  replica.cache = std::make_shared<srv::ResultCache>(64);
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica));
  auto client = Connect(replica.server->port());

  auto first = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(first.ok() && first->ok()) << first.status().ToString();
  EXPECT_EQ(first->rows.size(), 12u);
  EXPECT_FALSE(first->cached());
  auto second = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(second.ok() && second->ok());
  EXPECT_TRUE(second->cached());

  // New documents land on the primary; the epochs the applied records
  // publish must strand the replica's cached results before the next read.
  hounds::EnzymeXmlTransformer enzyme;
  ASSERT_TRUE(primary.warehouse
                  ->SyncSource(kEnzymes, enzyme,
                               datagen::ToEnzymeFlatFile(MakeCorpus(20)))
                  .ok());
  ASSERT_TRUE(
      replica.applier->WaitForLsn(primary.db->durable_lsn(), 10000));

  auto third = client.Xq(kEnzymeIdsXq);
  ASSERT_TRUE(third.ok() && third->ok()) << third.status().ToString();
  EXPECT_FALSE(third->cached());
  EXPECT_EQ(third->rows.size(), 20u);
}

TEST_F(ReplicationTest, StaleReplicaTurnsHealthzUnready) {
  PrimaryNode primary;
  ReplicationServerOptions sopts;
  sopts.heartbeat_ms = 50;
  primary.db = rel::Database::OpenInMemory();
  {
    auto warehouse = hounds::Warehouse::Open(primary.db.get());
    ASSERT_TRUE(warehouse.ok());
    primary.warehouse = std::move(warehouse).value();
  }
  ASSERT_NO_FATAL_FAILURE(StartShipper(&primary, sopts));

  ReplicaNode replica;
  ReplicaApplierOptions ropts;
  ropts.stale_after_ms = 400;
  ASSERT_NO_FATAL_FAILURE(
      StartReplica(&replica, primary.shipper->port(), ropts));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica, /*admin_port=*/0));
  const uint16_t admin = replica.server->admin_port();
  ASSERT_NE(admin, 0);

  ASSERT_TRUE(PollUntil([&] { return replica.applier->ready(); }, 5000));
  std::string healthy = HttpGet(admin, "/healthz");
  EXPECT_NE(healthy.find("200"), std::string::npos) << healthy;
  EXPECT_NE(healthy.find("\"replica_ready\":true"), std::string::npos)
      << healthy;

  // Primary disappears: heartbeats stop, the freshness window expires,
  // and the replica reports itself unready (load balancers drain it).
  primary.shipper->Shutdown();
  ASSERT_TRUE(PollUntil([&] { return !replica.applier->ready(); }, 5000));
  std::string stale = HttpGet(admin, "/healthz");
  EXPECT_NE(stale.find("503"), std::string::npos) << stale;
  EXPECT_NE(stale.find("replica_stale"), std::string::npos) << stale;

  // /statusz carries the applier's replication section.
  std::string statusz = HttpGet(admin, "/statusz");
  EXPECT_NE(statusz.find("\"replication\""), std::string::npos) << statusz;
  EXPECT_NE(statusz.find("\"role\":\"replica\""), std::string::npos)
      << statusz;
}

TEST_F(ReplicationTest, ConcurrentWritesStreamToReplicaUnderReads) {
  constexpr int kRows = 200;
  constexpr int kReaders = 3;

  PrimaryNode primary;
  ASSERT_NO_FATAL_FAILURE(StartPrimary(&primary));
  ASSERT_NO_FATAL_FAILURE(CreateKv(primary.db.get()));
  ReplicaNode replica;
  ASSERT_NO_FATAL_FAILURE(StartReplica(&replica, primary.shipper->port()));
  ASSERT_NO_FATAL_FAILURE(ServeReplica(&replica));

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread writer([&] {
    for (int i = 0; i < kRows; ++i) {
      {
        std::unique_lock<std::shared_mutex> lock(primary.db->latch());
        if (!primary.db->Insert("kv", {rel::Value::Int(i)}).ok()) {
          failures.fetch_add(1);
          break;
        }
      }
      if (i % 16 == 0) std::this_thread::yield();
    }
    done.store(true);
  });

  std::vector<std::thread> readers;
  for (int t = 0; t < kReaders; ++t) {
    readers.emplace_back([&] {
      auto client = cli::Client::Connect("127.0.0.1",
                                         replica.server->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      int64_t last = -1;
      while (!done.load()) {
        auto response = client->Sql("SELECT COUNT(*) FROM kv");
        if (!response.ok() || !response->ok()) {
          failures.fetch_add(1);
          return;
        }
        int64_t count = response->rows[0][0].AsInt();
        // A single in-order applier means counts never go backwards.
        if (count < last) {
          failures.fetch_add(1);
          return;
        }
        last = count;
      }
    });
  }
  writer.join();
  for (auto& reader : readers) reader.join();
  EXPECT_EQ(failures.load(), 0);

  const uint64_t target = primary.db->durable_lsn();
  ASSERT_TRUE(replica.applier->WaitForLsn(target, 15000));
  EXPECT_EQ(KvRows(replica.db.get()), static_cast<size_t>(kRows));
  EXPECT_EQ(replica.db->applied_lsn(), target);
}

}  // namespace
}  // namespace xomatiq::repl
