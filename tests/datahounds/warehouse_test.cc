#include "datahounds/warehouse.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <shared_mutex>

#include "datagen/corpus.h"
#include "datahounds/generic_schema.h"

namespace xomatiq::hounds {
namespace {

using rel::Database;

datagen::Corpus SmallCorpus(uint64_t seed = 42) {
  datagen::CorpusOptions options;
  options.seed = seed;
  options.num_enzymes = 12;
  options.num_proteins = 12;
  options.num_nucleotides = 12;
  return datagen::GenerateCorpus(options);
}

TEST(WarehouseTest, LoadSourceShredsAllEntries) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  ASSERT_TRUE(warehouse.ok());
  datagen::Corpus corpus = SmallCorpus();
  EnzymeXmlTransformer transformer;
  auto stats = (*warehouse)
                   ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                                datagen::ToEnzymeFlatFile(corpus));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->documents, 12u);
  EXPECT_GT(stats->nodes, 12u * 8);
  auto ids = (*warehouse)->DocumentsIn("hlx_enzyme.DEFAULT");
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 12u);
}

TEST(WarehouseTest, CollectionMetadataRegistered) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  EnzymeXmlTransformer transformer;
  ASSERT_TRUE(
      (*warehouse)->RegisterCollection("hlx_enzyme.DEFAULT", transformer)
          .ok());
  const Warehouse::Collection* c =
      (*warehouse)->FindCollection("hlx_enzyme.DEFAULT");
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->root_element, "hlx_enzyme");
  EXPECT_EQ(c->source, "enzyme");
  EXPECT_FALSE(c->dtd.elements().empty());
  // Registration is idempotent.
  EXPECT_TRUE(
      (*warehouse)->RegisterCollection("hlx_enzyme.DEFAULT", transformer)
          .ok());
  EXPECT_EQ((*warehouse)->CollectionNames(),
            std::vector<std::string>{"hlx_enzyme.DEFAULT"});
}

TEST(WarehouseTest, InvalidDocumentRejected) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  EnzymeXmlTransformer transformer;
  ASSERT_TRUE(
      (*warehouse)->RegisterCollection("hlx_enzyme.DEFAULT", transformer)
          .ok());
  xml::XmlDocument bogus;
  bogus.CreateRoot("hlx_enzyme")->AddElement("wrong_child");
  auto r = (*warehouse)->LoadDocument("hlx_enzyme.DEFAULT", bogus, "u");
  ASSERT_FALSE(r.ok());
  // DTD violations are typed as constraint violations (Dtd::CheckValid).
  EXPECT_EQ(r.status().code(), common::StatusCode::kConstraintViolation);
  EXPECT_NE(r.status().message().find("DTD"), std::string::npos);
}

TEST(WarehouseTest, UnknownCollectionRejected) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  xml::XmlDocument doc;
  doc.CreateRoot("x");
  EXPECT_FALSE((*warehouse)->LoadDocument("ghost", doc, "u").ok());
}

TEST(WarehouseTest, SyncDetectsAddUpdateRemoveUnchanged) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  datagen::Corpus corpus = SmallCorpus();
  EnzymeXmlTransformer transformer;
  ASSERT_TRUE((*warehouse)
                  ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                               datagen::ToEnzymeFlatFile(corpus))
                  .ok());
  std::vector<ChangeEvent> events;
  (*warehouse)->Subscribe([&](const ChangeEvent& e) { events.push_back(e); });

  // Mutate the remote copy: change entry 0, drop entry 1, add a new one.
  datagen::Corpus updated = corpus;
  updated.enzymes[0].comments.push_back("a brand new comment");
  updated.enzymes.erase(updated.enzymes.begin() + 1);
  flatfile::EnzymeEntry fresh = datagen::Figure2Entry();
  updated.enzymes.push_back(fresh);

  auto stats = (*warehouse)
                   ->SyncSource("hlx_enzyme.DEFAULT", transformer,
                                datagen::ToEnzymeFlatFile(updated));
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->added, 1u);
  EXPECT_EQ(stats->updated, 1u);
  EXPECT_EQ(stats->removed, 1u);
  EXPECT_EQ(stats->unchanged, 10u);

  // Triggers fired once per change (paper §2.2: "sends out triggers to
  // related applications").
  ASSERT_EQ(events.size(), 3u);
  size_t added = 0, updated_count = 0, removed = 0;
  for (const ChangeEvent& e : events) {
    switch (e.kind) {
      case ChangeEvent::Kind::kAdded:
        ++added;
        EXPECT_EQ(e.uri, "enzyme:" + fresh.id);
        break;
      case ChangeEvent::Kind::kUpdated:
        ++updated_count;
        break;
      case ChangeEvent::Kind::kRemoved:
        ++removed;
        break;
    }
  }
  EXPECT_EQ(added, 1u);
  EXPECT_EQ(updated_count, 1u);
  EXPECT_EQ(removed, 1u);

  // Document count adjusted.
  auto ids = (*warehouse)->DocumentsIn("hlx_enzyme.DEFAULT");
  EXPECT_EQ(ids->size(), 12u);
  // The removed entry's uri is gone; the new one resolvable.
  EXPECT_FALSE(
      (*warehouse)->FindDocument("enzyme:" + corpus.enzymes[1].id).ok());
  EXPECT_TRUE((*warehouse)->FindDocument("enzyme:" + fresh.id).ok());
}

// EMBL transformer whose output for one uri carries an element the DTD
// does not allow.
class BreakingEmblTransformer : public EmblXmlTransformer {
 public:
  explicit BreakingEmblTransformer(std::string uri) : uri_(std::move(uri)) {}

  common::Result<std::vector<TransformedDocument>> Transform(
      std::string_view raw) const override {
    XQ_ASSIGN_OR_RETURN(std::vector<TransformedDocument> docs,
                        EmblXmlTransformer::Transform(raw));
    for (TransformedDocument& doc : docs) {
      if (doc.uri == uri_) doc.document.mutable_root()->AddElement("bogus");
    }
    return docs;
  }

 private:
  std::string uri_;
};

TEST(WarehouseTest, SyncRejectsInvalidChangedDocumentAndWritesNothing) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  ASSERT_TRUE(warehouse.ok());
  datagen::Corpus corpus = SmallCorpus();
  EmblXmlTransformer embl;
  ASSERT_TRUE((*warehouse)
                  ->LoadSource("hlx_embl.inv", embl,
                               datagen::ToEmblFlatFile(corpus))
                  .ok());
  // Two revised entries; the second one transforms to an invalid document.
  datagen::Corpus updated = corpus;
  updated.nucleotides[0].description += " (revised)";
  updated.nucleotides[1].description += " (revised)";
  BreakingEmblTransformer breaking("embl:" + updated.nucleotides[1].id);
  std::string raw = datagen::ToEmblFlatFile(updated);

  auto encode = [&] {
    std::shared_lock<std::shared_mutex> lock(db->latch());
    return db->EncodeState();
  };
  std::string before = encode();
  auto rejected = (*warehouse)->SyncSource("hlx_embl.inv", breaking, raw);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(),
            common::StatusCode::kConstraintViolation);
  EXPECT_EQ(encode(), before);

  // The same revision through the plain transformer applies.
  auto applied = (*warehouse)->SyncSource("hlx_embl.inv", embl, raw);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->updated, 2u);
  EXPECT_EQ(applied->unchanged, 10u);
  EXPECT_NE(encode(), before);
}

TEST(WarehouseTest, SyncIsIdempotent) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  datagen::Corpus corpus = SmallCorpus();
  EnzymeXmlTransformer transformer;
  std::string raw = datagen::ToEnzymeFlatFile(corpus);
  ASSERT_TRUE(
      (*warehouse)->LoadSource("hlx_enzyme.DEFAULT", transformer, raw).ok());
  auto stats =
      (*warehouse)->SyncSource("hlx_enzyme.DEFAULT", transformer, raw);
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->added, 0u);
  EXPECT_EQ(stats->updated, 0u);
  EXPECT_EQ(stats->removed, 0u);
  EXPECT_EQ(stats->unchanged, 12u);
}

TEST(WarehouseTest, ReconstructDocumentMatchesSource) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  datagen::Corpus corpus = SmallCorpus();
  EnzymeXmlTransformer transformer;
  ASSERT_TRUE((*warehouse)
                  ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                               datagen::ToEnzymeFlatFile(corpus))
                  .ok());
  auto doc_id =
      (*warehouse)->FindDocument("enzyme:" + corpus.enzymes[3].id);
  ASSERT_TRUE(doc_id.ok());
  auto doc = (*warehouse)->ReconstructDocument(*doc_id);
  ASSERT_TRUE(doc.ok());
  auto entry = EnzymeXmlTransformer::XmlToEntry(*doc->root());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(*entry, corpus.enzymes[3]);
}

TEST(WarehouseTest, PersistsAcrossReopen) {
  std::string dir = testing::TempDir() + "/xq_wh_persist";
  std::filesystem::remove_all(dir);
  datagen::Corpus corpus = SmallCorpus();
  EnzymeXmlTransformer transformer;
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    auto warehouse = Warehouse::Open(db->get());
    ASSERT_TRUE(warehouse.ok());
    ASSERT_TRUE((*warehouse)
                    ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                                 datagen::ToEnzymeFlatFile(corpus))
                    .ok());
  }  // crash before checkpoint: WAL only
  {
    auto db = Database::Open(dir);
    ASSERT_TRUE(db.ok());
    auto warehouse = Warehouse::Open(db->get());
    ASSERT_TRUE(warehouse.ok());
    // Collections come back from the catalog table.
    ASSERT_NE((*warehouse)->FindCollection("hlx_enzyme.DEFAULT"), nullptr);
    auto ids = (*warehouse)->DocumentsIn("hlx_enzyme.DEFAULT");
    ASSERT_TRUE(ids.ok());
    EXPECT_EQ(ids->size(), 12u);
    // Reconstruction works on recovered state.
    auto doc = (*warehouse)->ReconstructDocument(ids->front());
    ASSERT_TRUE(doc.ok());
    auto entry = EnzymeXmlTransformer::XmlToEntry(*doc->root());
    ASSERT_TRUE(entry.ok());
    EXPECT_EQ(*entry, corpus.enzymes[0]);
    // And incremental sync still works after recovery.
    auto stats = (*warehouse)
                     ->SyncSource("hlx_enzyme.DEFAULT", transformer,
                                  datagen::ToEnzymeFlatFile(corpus));
    ASSERT_TRUE(stats.ok());
    EXPECT_EQ(stats->unchanged, 12u);
    ASSERT_TRUE((*db)->Checkpoint().ok());
  }
  std::filesystem::remove_all(dir);
}

TEST(WarehouseTest, DuplicateUriRejected) {
  auto db = Database::OpenInMemory();
  auto warehouse = Warehouse::Open(db.get());
  EnzymeXmlTransformer transformer;
  std::string raw =
      flatfile::FormatEnzymeEntry(datagen::Figure2Entry());
  ASSERT_TRUE(
      (*warehouse)->LoadSource("hlx_enzyme.DEFAULT", transformer, raw).ok());
  // A second full load of the same entry collides on the unique uri
  // index (use SyncSource for refreshes).
  auto again =
      (*warehouse)->LoadSource("hlx_enzyme.DEFAULT", transformer, raw);
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.status().code(),
            common::StatusCode::kConstraintViolation);
  // SyncSource handles it as an unchanged entry.
  auto sync =
      (*warehouse)->SyncSource("hlx_enzyme.DEFAULT", transformer, raw);
  ASSERT_TRUE(sync.ok());
  EXPECT_EQ(sync->unchanged, 1u);
}

TEST(ContentHashTest, SensitiveToContent) {
  xml::XmlDocument a;
  a.CreateRoot("r")->AddTextElement("x", "1");
  xml::XmlDocument b;
  b.CreateRoot("r")->AddTextElement("x", "2");
  xml::XmlDocument a2;
  a2.CreateRoot("r")->AddTextElement("x", "1");
  EXPECT_NE(ContentHash(a), ContentHash(b));
  EXPECT_EQ(ContentHash(a), ContentHash(a2));
}

}  // namespace
}  // namespace xomatiq::hounds
