// The unified common::QueryRequest surface: engines validate the mode and
// honor read_epoch snapshot pinning.

#include <gtest/gtest.h>

#include <memory>
#include <string>

#include "common/query_request.h"
#include "datagen/corpus.h"
#include "relational/snapshot.h"
#include "xomatiq/xomatiq.h"

namespace xomatiq::xq {
namespace {

using rel::Database;

class QueryRequestApiTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CorpusOptions options;
    options.seed = 42;
    options.num_enzymes = 12;
    options.num_proteins = 12;
    options.num_nucleotides = 12;
    corpus_ = datagen::GenerateCorpus(options);
    db_ = Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(*warehouse);
    hounds::EnzymeXmlTransformer transformer;
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                                 datagen::ToEnzymeFlatFile(corpus_))
                    .ok());
    xomatiq_ = std::make_unique<XomatiQ>(warehouse_.get());
  }

  static constexpr const char* kListQuery =
      R"(FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//enzyme_id)";

  datagen::Corpus corpus_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  std::unique_ptr<XomatiQ> xomatiq_;
};

TEST_F(QueryRequestApiTest, FactoriesSetTheMode) {
  EXPECT_EQ(common::QueryRequest::Sql("SELECT 1").mode,
            common::QueryMode::kSql);
  EXPECT_EQ(common::QueryRequest::Xq("FOR ...").mode, common::QueryMode::kXq);
  EXPECT_FALSE(common::QueryRequest::Sql("SELECT 1").read_epoch.has_value());
}

TEST_F(QueryRequestApiTest, EnginesRejectForeignModes) {
  // A request built for one engine handed to the other is a typed error,
  // not a parse failure: the mode is checked before the text is touched.
  auto sql_r = xomatiq_->engine()->Execute(common::QueryRequest::Xq("x"));
  ASSERT_FALSE(sql_r.ok());
  EXPECT_EQ(sql_r.status().code(), common::StatusCode::kInvalidArgument);
  EXPECT_NE(sql_r.status().message().find("mode=sql"), std::string::npos);

  auto xq_r = xomatiq_->Execute(common::QueryRequest::Sql("SELECT 1"));
  ASSERT_FALSE(xq_r.ok());
  EXPECT_EQ(xq_r.status().code(), common::StatusCode::kInvalidArgument);
}

TEST_F(QueryRequestApiTest, ReadEpochPinsXqAcrossSync) {
  rel::Snapshot snap = db_->BeginSnapshot();
  common::QueryRequest pinned = common::QueryRequest::Xq(kListQuery);
  pinned.read_epoch = snap.epoch();
  auto before = xomatiq_->Execute(pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  EXPECT_EQ(before->rows.size(), 12u);

  datagen::Corpus updated = corpus_;
  updated.enzymes.erase(updated.enzymes.begin());
  hounds::EnzymeXmlTransformer transformer;
  ASSERT_TRUE(warehouse_
                  ->SyncSource("hlx_enzyme.DEFAULT", transformer,
                               datagen::ToEnzymeFlatFile(updated))
                  .ok());

  // The pinned request still evaluates at the pre-sync cut; without the
  // token the engine takes a fresh snapshot and sees the removal.
  auto old_read = xomatiq_->Execute(pinned);
  ASSERT_TRUE(old_read.ok());
  EXPECT_EQ(old_read->rows.size(), 12u);
  auto fresh = xomatiq_->Execute(common::QueryRequest::Xq(kListQuery));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), 11u);
}

TEST_F(QueryRequestApiTest, ReadEpochPinsSqlAcrossDml) {
  sql::SqlEngine* engine = xomatiq_->engine();
  rel::Snapshot snap = db_->BeginSnapshot();
  common::QueryRequest pinned = common::QueryRequest::Sql(
      "SELECT doc_id FROM xml_document");
  pinned.read_epoch = snap.epoch();
  auto before = engine->Execute(pinned);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  const size_t docs = before->rows.size();
  ASSERT_EQ(docs, 12u);

  hounds::EnzymeXmlTransformer transformer;
  datagen::Corpus updated = corpus_;
  updated.enzymes.erase(updated.enzymes.begin());
  ASSERT_TRUE(warehouse_
                  ->SyncSource("hlx_enzyme.DEFAULT", transformer,
                               datagen::ToEnzymeFlatFile(updated))
                  .ok());

  auto old_read = engine->Execute(pinned);
  ASSERT_TRUE(old_read.ok());
  EXPECT_EQ(old_read->rows.size(), docs);
  auto fresh = engine->Execute(
      common::QueryRequest::Sql("SELECT doc_id FROM xml_document"));
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(fresh->rows.size(), docs - 1);
}

}  // namespace
}  // namespace xomatiq::xq
