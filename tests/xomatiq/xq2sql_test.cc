#include "xomatiq/xq2sql.h"

#include <gtest/gtest.h>

#include "datagen/corpus.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "xomatiq/xq_parser.h"

namespace xomatiq::xq {
namespace {

using rel::Database;

class Xq2SqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CorpusOptions options;
    options.num_enzymes = 8;
    options.num_proteins = 8;
    options.num_nucleotides = 8;
    Load(options);
  }

  // Loads ENZYME, EMBL and Swiss-Prot generated from `options`.
  void Load(const datagen::CorpusOptions& options) {
    db_ = Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(*warehouse);
    datagen::Corpus corpus = datagen::GenerateCorpus(options);
    hounds::EnzymeXmlTransformer enzyme_tf;
    hounds::EmblXmlTransformer embl_tf;
    hounds::SwissProtXmlTransformer sprot_tf;
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_enzyme.DEFAULT", enzyme_tf,
                                 datagen::ToEnzymeFlatFile(corpus))
                    .ok());
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_embl.inv", embl_tf,
                                 datagen::ToEmblFlatFile(corpus))
                    .ok());
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_sprot.all", sprot_tf,
                                 datagen::ToSwissProtFlatFile(corpus))
                    .ok());
    translator_ = std::make_unique<Xq2SqlTranslator>(warehouse_.get());
    engine_ = std::make_unique<sql::SqlEngine>(db_.get());
  }

  // Translates `query` and checks the round trip of every statement.
  Translation MustTranslate(const std::string& query) {
    auto ast = ParseXQuery(query);
    EXPECT_TRUE(ast.ok()) << ast.status().ToString();
    auto translation = translator_->Translate(*ast);
    EXPECT_TRUE(translation.ok()) << translation.status().ToString();
    if (!translation.ok()) return Translation{};
    ExpectRoundTrip(*translation);
    return std::move(*translation);
  }

  // The rendered text stands for its statement: it parses, renders back
  // to the same text, and returns the same rows in the same order.
  void ExpectRoundTrip(const Translation& t) {
    ASSERT_EQ(t.sql.size(), t.stmts.size());
    for (size_t i = 0; i < t.sql.size(); ++i) {
      auto parsed = sql::ParseStatement(t.sql[i]);
      ASSERT_TRUE(parsed.ok())
          << t.sql[i] << "\n" << parsed.status().ToString();
      ASSERT_EQ(parsed->kind, sql::StatementKind::kSelect) << t.sql[i];
      EXPECT_EQ(RenderSql(parsed->select), t.sql[i]);
      EXPECT_EQ(Rows(parsed->select), Rows(*t.stmts[i])) << t.sql[i];
    }
  }

  std::vector<rel::Tuple> Rows(const sql::SelectStmt& stmt) {
    std::vector<rel::Tuple> rows;
    auto schema = engine_->ExecuteSelectStmtBatched(
        stmt, [&](rel::RowBatch& batch) {
          for (size_t i = 0; i < batch.size(); ++i) {
            rows.push_back(batch.row(i));
          }
          return true;
        });
    EXPECT_TRUE(schema.ok()) << schema.status().ToString();
    return rows;
  }

  std::unique_ptr<Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  std::unique_ptr<Xq2SqlTranslator> translator_;
  std::unique_ptr<sql::SqlEngine> engine_;
};

TEST_F(Xq2SqlTest, GeneratedSqlParses) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description)");
  ASSERT_EQ(t.sql.size(), 1u);
  auto stmt = sql::ParseStatement(t.sql[0]);
  EXPECT_TRUE(stmt.ok()) << t.sql[0] << "\n" << stmt.status().ToString();
  EXPECT_EQ(t.column_names,
            (std::vector<std::string>{"enzyme_id", "enzyme_description"}));
}

TEST_F(Xq2SqlTest, CollectionConstraintPresent) {
  Translation t = MustTranslate(
      "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
      "RETURN $a//enzyme_id");
  EXPECT_NE(t.sql[0].find("collection = 'hlx_enzyme.DEFAULT'"),
            std::string::npos)
      << t.sql[0];
  EXPECT_NE(t.sql[0].find("SELECT DISTINCT"), std::string::npos);
  EXPECT_NE(t.sql[0].find("ORDER BY d_a.doc_id"), std::string::npos);
}

TEST_F(Xq2SqlTest, ContainsUsesSqlContains) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "copper", any)
RETURN $a//enzyme_id)");
  EXPECT_NE(t.sql[0].find("CONTAINS("), std::string::npos) << t.sql[0];
  // Subtree search joins an extra node alias with interval containment.
  EXPECT_NE(t.sql[0].find(".ordinal >="), std::string::npos) << t.sql[0];
}

TEST_F(Xq2SqlTest, OrProducesTwoStatements) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//enzyme_description, "kinase")
   OR contains($a//enzyme_description, "oxidase")
RETURN $a//enzyme_id)");
  EXPECT_EQ(t.sql.size(), 2u);
  for (const std::string& sql : t.sql) {
    EXPECT_TRUE(sql::ParseStatement(sql).ok()) << sql;
  }
}

TEST_F(Xq2SqlTest, NotPushesIntoComparison) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE NOT $a/enzyme_id = "1.1.1.1"
RETURN $a/enzyme_id)");
  ASSERT_EQ(t.sql.size(), 1u);
  EXPECT_NE(t.sql[0].find("!= '1.1.1.1'"), std::string::npos) << t.sql[0];
}

TEST_F(Xq2SqlTest, NotContainsUnsupported) {
  auto ast = ParseXQuery(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE NOT contains($a, "x", any)
RETURN $a//enzyme_id)");
  ASSERT_TRUE(ast.ok());
  auto t = translator_->Translate(*ast);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), common::StatusCode::kUnsupported);
}

TEST_F(Xq2SqlTest, UnknownCollectionRejected) {
  auto ast =
      ParseXQuery("FOR $a IN document(\"nope\")/r RETURN $a/x");
  ASSERT_TRUE(ast.ok());
  auto t = translator_->Translate(*ast);
  ASSERT_FALSE(t.ok());
  EXPECT_EQ(t.status().code(), common::StatusCode::kNotFound);
}

TEST_F(Xq2SqlTest, UnresolvedPathStillValidSql) {
  // A path that matches nothing in the dictionary yields an always-false
  // constraint, not an error (queries over absent structure return empty).
  Translation t = MustTranslate(
      "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
      "RETURN $a//no_such_element");
  EXPECT_NE(t.sql[0].find("path_id = -1"), std::string::npos) << t.sql[0];
  EXPECT_TRUE(sql::ParseStatement(t.sql[0]).ok());
}

TEST_F(Xq2SqlTest, NumericComparisonUsesNumberTable) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE $a//sequence/@length > 100
RETURN $a//embl_accession_number)");
  EXPECT_NE(t.sql[0].find("xml_number"), std::string::npos) << t.sql[0];
}

TEST_F(Xq2SqlTest, StringEqualityUsesTextTable) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = "1.14.17.3"
RETURN $a/enzyme_id)");
  EXPECT_NE(t.sql[0].find("xml_text"), std::string::npos);
  EXPECT_NE(t.sql[0].find("= '1.14.17.3'"), std::string::npos) << t.sql[0];
}

TEST_F(Xq2SqlTest, OrderConditionComparesOrdinals) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id BEFORE $a/disease_list
RETURN $a/enzyme_id)");
  EXPECT_NE(t.sql[0].find(".ordinal <"), std::string::npos) << t.sql[0];
}

TEST_F(Xq2SqlTest, ReturnWholeVariableYieldsDocId) {
  Translation t = MustTranslate(
      "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme RETURN $a");
  EXPECT_EQ(t.column_names, std::vector<std::string>{"a_doc"});
  EXPECT_NE(t.sql[0].find("d_a.doc_id AS a_doc"), std::string::npos)
      << t.sql[0];
}

TEST_F(Xq2SqlTest, EscapesQuotesInLiterals) {
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = "it's"
RETURN $a/enzyme_id)");
  EXPECT_NE(t.sql[0].find("'it''s'"), std::string::npos) << t.sql[0];
  EXPECT_TRUE(sql::ParseStatement(t.sql[0]).ok());
}

TEST_F(Xq2SqlTest, DeepOrNestingWithinLimit) {
  // (c1 OR c2) AND (c3 OR c4) -> 4 disjuncts.
  Translation t = MustTranslate(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE (contains($a//enzyme_description, "a")
       OR contains($a//enzyme_description, "b"))
  AND (contains($a//cofactor, "c") OR contains($a//cofactor, "d"))
RETURN $a//enzyme_id)");
  EXPECT_EQ(t.sql.size(), 4u);
}

TEST_F(Xq2SqlTest, FigureQueriesRoundTrip) {
  // A corpus large enough that every figure returns rows.
  datagen::CorpusOptions options;
  options.num_enzymes = 60;
  options.num_proteins = 80;
  options.num_nucleotides = 100;
  options.keyword_fraction = 0.1;
  options.ketone_fraction = 0.15;
  options.ec_link_fraction = 0.4;
  Load(options);
  const char* figures[] = {
      // Fig 8: keyword search across EMBL and Swiss-Prot.
      R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)",
      // Fig 9: sub-tree keyword search.
      R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description)",
      // Fig 11: EC-number join between EMBL and ENZYME.
      R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description)",
  };
  for (const char* query : figures) {
    Translation t = MustTranslate(query);
    ASSERT_EQ(t.stmts.size(), 1u) << query;
    EXPECT_FALSE(Rows(*t.stmts[0]).empty()) << t.sql[0];
  }
}

}  // namespace
}  // namespace xomatiq::xq
