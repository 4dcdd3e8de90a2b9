// srv::Session: per-connection query execution scope. Each session owns
// snapshot acquisition (reads pin an epoch, mutations run unpinned), the
// read-your-writes min_lsn gate, and feeds the epoch into the result
// cache key — so cached bytes can never leak across committed states.

#include "server/session.h"

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "relational/database.h"
#include "server/protocol.h"
#include "server/query_service.h"

namespace xomatiq::srv {
namespace {

constexpr char kEnzymes[] = "hlx_enzyme.DEFAULT";

struct Stack {
  std::unique_ptr<rel::Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  hounds::EnzymeXmlTransformer enzyme;

  Stack() {
    db = rel::Database::OpenInMemory();
    auto opened = hounds::Warehouse::Open(db.get());
    EXPECT_TRUE(opened.ok());
    warehouse = std::move(opened).value();
    datagen::CorpusOptions options;
    options.num_enzymes = 8;
    options.num_proteins = 0;
    options.num_nucleotides = 0;
    datagen::Corpus corpus = datagen::GenerateCorpus(options);
    EXPECT_TRUE(warehouse
                    ->LoadSource(kEnzymes, enzyme,
                                 datagen::ToEnzymeFlatFile(corpus))
                    .ok());
  }
};

Response Roundtrip(Session& session, RequestMode mode, const std::string& text,
                   const common::QueryOptions* opts = nullptr) {
  Request request;
  request.id = 7;
  request.mode = mode;
  request.text = text;
  if (opts != nullptr) {
    request.options = *opts;
    request.has_options = true;
  }
  auto decoded = DecodeResponse(session.Handle(request));
  EXPECT_TRUE(decoded.ok());
  return decoded.ok() ? std::move(*decoded) : Response{};
}

TEST(SessionTest, SessionsHaveDistinctIdsAndCountRequests) {
  Stack stack;
  QueryService service(stack.warehouse.get(), {});
  auto a = service.StartSession();
  auto b = service.StartSession();
  EXPECT_NE(a->id(), b->id());
  EXPECT_NE(a->id(), 0u);  // ids start at 1
  EXPECT_EQ(a->requests_handled(), 0u);
  Response r = Roundtrip(*a, RequestMode::kPing, "");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(a->requests_handled(), 1u);
  EXPECT_EQ(b->requests_handled(), 0u);
}

TEST(SessionTest, CacheIsKeyedBySnapshotEpoch) {
  Stack stack;
  auto cache = std::make_shared<ResultCache>(64);
  ServiceOptions so;
  so.cache = cache;
  QueryService service(stack.warehouse.get(), so);
  auto session = service.StartSession();
  const std::string select = "SELECT doc_id FROM xml_document";

  Response first = Roundtrip(*session, RequestMode::kSql, select);
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first.cached());
  const size_t docs = first.rows.size();
  ASSERT_EQ(docs, 8u);
  Response second = Roundtrip(*session, RequestMode::kSql, select);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second.cached());

  // A committed write advances the epoch: the same text now misses the
  // cache (new key) and the re-executed answer includes the new row —
  // stale bytes are structurally unreachable, no invalidation needed.
  Response insert = Roundtrip(
      *session, RequestMode::kSql,
      "INSERT INTO xml_document (doc_id, collection, uri) "
      "VALUES (999, 'c', 'u')");
  ASSERT_TRUE(insert.ok()) << insert.error;
  Response third = Roundtrip(*session, RequestMode::kSql, select);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third.cached());
  EXPECT_EQ(third.rows.size(), docs + 1);

  // DDL moves the epoch too. A table is created and filled through the
  // session, cached, then dropped: by an embedder straight on the
  // Database (no SQL, so the service never sees a mutation), and by SQL
  // DROP TABLE. The next SELECT must read the dropped catalog and fail,
  // not replay the cached rows.
  auto cache_then_drop = [&](const std::string& table, auto drop) {
    const std::string read = "SELECT x FROM " + table;
    ASSERT_TRUE(Roundtrip(*session, RequestMode::kSql,
                          "CREATE TABLE " + table + " (x INT)")
                    .ok());
    ASSERT_TRUE(Roundtrip(*session, RequestMode::kSql,
                          "INSERT INTO " + table + " (x) VALUES (1)")
                    .ok());
    ASSERT_EQ(Roundtrip(*session, RequestMode::kSql, read).rows.size(), 1u);
    Response hit = Roundtrip(*session, RequestMode::kSql, read);
    ASSERT_TRUE(hit.ok());
    ASSERT_TRUE(hit.cached());
    drop();
    Response gone = Roundtrip(*session, RequestMode::kSql, read);
    EXPECT_FALSE(gone.ok()) << table << " was dropped";
    EXPECT_FALSE(gone.cached()) << "served a dropped table from cache";
  };
  cache_then_drop("embedded_t", [&] {
    rel::WriteGuard guard(stack.db.get());
    ASSERT_TRUE(stack.db->DropTable("embedded_t").ok());
  });
  cache_then_drop("sql_t", [&] {
    ASSERT_TRUE(
        Roundtrip(*session, RequestMode::kSql, "DROP TABLE sql_t").ok());
  });
}

TEST(SessionTest, MutationsRunUnpinnedAndReadYourWrites) {
  Stack stack;
  QueryService service(stack.warehouse.get(), {});
  auto session = service.StartSession();
  // DML and DDL must not pin a snapshot (a pinned DDL would self-deadlock
  // on the DDL latch); both run to completion through the session.
  Response ddl = Roundtrip(*session, RequestMode::kSql,
                           "CREATE TABLE session_t (x INT)");
  ASSERT_TRUE(ddl.ok()) << ddl.error;
  Response dml = Roundtrip(*session, RequestMode::kSql,
                           "INSERT INTO session_t (x) VALUES (1)");
  ASSERT_TRUE(dml.ok()) << dml.error;
  EXPECT_GT(dml.lsn, 0u);  // commit LSN attached for read-your-writes
  // The next read's snapshot is taken after the gate: it sees the write.
  Response read = Roundtrip(*session, RequestMode::kSql,
                            "SELECT x FROM session_t");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read.rows.size(), 1u);
}

TEST(SessionTest, MinLsnGateRefusesUnreachablePosition) {
  Stack stack;
  // No wait_for_lsn hook: a min_lsn the database has not reached is
  // refused immediately with kLagging (the cluster client's signal to
  // bounce the read to another node).
  QueryService service(stack.warehouse.get(), {});
  auto session = service.StartSession();
  common::QueryOptions opts;
  opts.min_lsn = stack.db->committed_lsn() + 1000;
  Response r = Roundtrip(*session, RequestMode::kSql,
                         "SELECT doc_id FROM xml_document", &opts);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.code, common::StatusCode::kLagging);
  // At or below the committed position the gate opens without waiting.
  opts.min_lsn = stack.db->committed_lsn();
  Response ok = Roundtrip(*session, RequestMode::kSql,
                          "SELECT doc_id FROM xml_document", &opts);
  EXPECT_TRUE(ok.ok());
}

}  // namespace
}  // namespace xomatiq::srv
