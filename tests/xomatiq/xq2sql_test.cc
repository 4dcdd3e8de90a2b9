#include "xomatiq/xq2sql.h"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "datagen/corpus.h"
#include "sql/engine.h"
#include "sql/parser.h"
#include "xomatiq/xq_parser.h"

namespace xomatiq::xq {
namespace {

using rel::Database;

// The paper's figure queries.
// Fig 8: keyword search across EMBL and Swiss-Prot.
constexpr const char* kFig8 = R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)";
// Fig 9: sub-tree keyword search.
constexpr const char* kFig9 = R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description)";
// Fig 11: EC-number join between EMBL and ENZYME.
constexpr const char* kFig11 = R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description)";
// Fig 11 with a keyword filter on the EMBL side.
constexpr const char* kFig11Filtered = R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
  AND contains($a//description, "kinase")
RETURN $c0 = $a//embl_accession_number, $c1 = $a//description)";

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
  for (const char* query : {kFig8, kFig9, kFig11}) {
    Translation t = MustTranslate(query);
    ASSERT_EQ(t.stmts.size(), 1u) << query;
    EXPECT_FALSE(Rows(*t.stmts[0]).empty()) << t.sql[0];
  }
}

// Drops the Filter nodes of an EXPLAIN tree, lifting their children one
// level, so what remains is the access paths, join order and methods.
std::string WithoutFilters(const std::string& plan) {
  std::istringstream in(plan);
  std::string out;
  std::vector<size_t> dropped;  // depths of the Filters dropped above
  for (std::string line; std::getline(in, line);) {
    size_t depth = line.find_first_not_of(' ') / 2;
    while (!dropped.empty() && dropped.back() >= depth) dropped.pop_back();
    if (line.compare(depth * 2, 7, "Filter ") == 0) {
      dropped.push_back(depth);
      continue;
    }
    out += std::string((depth - dropped.size()) * 2, ' ') +
           line.substr(depth * 2) + "\n";
  }
  return out;
}

// Pins the figure plans: by rules (unanalyzed) up to filter placement,
// and costed (after ANALYZE) in full.
TEST_F(Xq2SqlTest, FigurePlanShapes) {
  struct Figure {
    const char* query;
    const char* rule_plan;      // Filter nodes dropped
    const char* costed_plan;
  };
  const Figure figures[] = {
      {kFig8, R"plan(
Distinct
  Project [sprot_accession_number, embl_accession_number]
    Sort by d_a.doc_id
      NestedLoopJoin
        Distinct
          Project [d_a.doc_id, txt7.value]
            IndexNLJoin inner=xml_text USING idx_text_node key=(n6.node_id)
              HashJoin on n_a.doc_id = n6.doc_id
                HashJoin on n_a.doc_id = d_a.doc_id
                  HashJoin on na0.doc_id = n_a.doc_id
                    IndexNLJoin inner=xml_node USING idx_node_id key=(txt1.node_id)
                      KeywordScan xml_text USING idx_text_keyword keyword='cdc6'
                    IndexScan xml_node USING idx_node_path key=(19)
                  IndexScan xml_document USING idx_doc_collection key=(hlx_embl.inv)
                IndexScan xml_node USING idx_node_path key=(24)
        Distinct
          Project [txt5.value]
            IndexNLJoin inner=xml_text USING idx_text_node key=(n4.node_id)
              HashJoin on n_b.doc_id = n4.doc_id
                HashJoin on n_b.doc_id = d_b.doc_id
                  HashJoin on na2.doc_id = n_b.doc_id
                    IndexNLJoin inner=xml_node USING idx_node_id key=(txt3.node_id)
                      KeywordScan xml_text USING idx_text_keyword keyword='cdc6'
                    IndexScan xml_node USING idx_node_path key=(19)
                  IndexScan xml_document USING idx_doc_collection key=(hlx_sprot.all)
                IndexScan xml_node USING idx_node_path key=(40)
)plan",
       R"plan(
Distinct (est rows=1 cost=140)
  Project [sprot_accession_number, embl_accession_number] (est rows=1 cost=139)
    Sort by d_a.doc_id (est rows=1 cost=139)
      NestedLoopJoin (est rows=1 cost=139)
        Distinct (est rows=1 cost=69)
          Project [d_a.doc_id, txt7.value] (est rows=0 cost=69)
            Filter CONTAINS(txt1.value, 'cdc6') (est rows=0 cost=69)
              IndexNLJoin inner=xml_text USING idx_text_node key=(na0.node_id) (est rows=0 cost=69)
                Filter ((na0.ordinal >= n_a.ordinal) AND (na0.ordinal <= n_a.end_ordinal)) (est rows=0 cost=69)
                  IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=69)
                    IndexNLJoin inner=xml_text USING idx_text_node key=(n6.node_id) (est rows=0 cost=68)
                      Filter (d_a.collection = 'hlx_embl.inv') (est rows=0 cost=68)
                        IndexNLJoin inner=xml_document USING idx_doc_id key=(n_a.doc_id) (est rows=0 cost=68)
                          Filter ((n6.ordinal > n_a.ordinal) AND (n6.ordinal <= n_a.end_ordinal)) (est rows=0 cost=67)
                            HashJoin on n6.doc_id = n_a.doc_id (est rows=2 cost=67)
                              IndexScan xml_node USING idx_node_path key=(24) (est rows=10 cost=23)
                              Filter (n_a.kind = 1) (est rows=5 cost=25)
                                IndexScan xml_node USING idx_node_path key=(19) (est rows=10 cost=25)
        Distinct (est rows=1 cost=69)
          Project [txt5.value] (est rows=0 cost=69)
            Filter CONTAINS(txt3.value, 'cdc6') (est rows=0 cost=69)
              IndexNLJoin inner=xml_text USING idx_text_node key=(na2.node_id) (est rows=0 cost=69)
                Filter ((na2.ordinal >= n_b.ordinal) AND (na2.ordinal <= n_b.end_ordinal)) (est rows=0 cost=69)
                  IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_b.doc_id) (est rows=0 cost=69)
                    IndexNLJoin inner=xml_text USING idx_text_node key=(n4.node_id) (est rows=0 cost=68)
                      Filter (d_b.collection = 'hlx_sprot.all') (est rows=0 cost=68)
                        IndexNLJoin inner=xml_document USING idx_doc_id key=(n_b.doc_id) (est rows=0 cost=68)
                          Filter ((n4.ordinal > n_b.ordinal) AND (n4.ordinal <= n_b.end_ordinal)) (est rows=0 cost=67)
                            HashJoin on n4.doc_id = n_b.doc_id (est rows=2 cost=67)
                              IndexScan xml_node USING idx_node_path key=(40) (est rows=10 cost=23)
                              Filter (n_b.kind = 1) (est rows=5 cost=25)
                                IndexScan xml_node USING idx_node_path key=(19) (est rows=10 cost=25)
)plan"},
      {kFig9, R"plan(
Distinct
  Project [enzyme_id, enzyme_description]
    Sort by d_a.doc_id
      IndexNLJoin inner=xml_text USING idx_text_node key=(n4.node_id)
        HashJoin on n_a.doc_id = n4.doc_id
          IndexNLJoin inner=xml_text USING idx_text_node key=(n2.node_id)
            HashJoin on n_a.doc_id = n2.doc_id
              HashJoin on n_a.doc_id = d_a.doc_id
                HashJoin on n0.doc_id = n_a.doc_id
                  HashJoin on txt1.node_id = n0.node_id
                    KeywordScan xml_text USING idx_text_keyword keyword='ketone'
                    IndexScan xml_node USING idx_node_path key=(6)
                  IndexScan xml_node USING idx_node_path key=(1)
                IndexScan xml_document USING idx_doc_collection key=(hlx_enzyme.DEFAULT)
              IndexScan xml_node USING idx_node_path key=(3)
          IndexScan xml_node USING idx_node_path key=(4)
)plan",
       R"plan(
Distinct (est rows=1 cost=68)
  Project [enzyme_id, enzyme_description] (est rows=0 cost=68)
    Sort by d_a.doc_id (est rows=0 cost=68)
      IndexNLJoin inner=xml_text USING idx_text_node key=(n4.node_id) (est rows=0 cost=68)
        Filter (((n4.ordinal > n_a.ordinal) AND (n4.ordinal <= n_a.end_ordinal)) AND (n4.path_id = 4)) (est rows=0 cost=68)
          IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=68)
            IndexNLJoin inner=xml_text USING idx_text_node key=(n2.node_id) (est rows=0 cost=68)
              Filter (((n2.ordinal > n_a.ordinal) AND (n2.ordinal <= n_a.end_ordinal)) AND (n2.path_id = 3)) (est rows=0 cost=68)
                IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=68)
                  Filter (d_a.collection = 'hlx_enzyme.DEFAULT') (est rows=0 cost=68)
                    IndexNLJoin inner=xml_document USING idx_doc_id key=(n_a.doc_id) (est rows=0 cost=68)
                      Filter CONTAINS(txt1.value, 'ketone') (est rows=0 cost=68)
                        IndexNLJoin inner=xml_text USING idx_text_node key=(n0.node_id) (est rows=0 cost=68)
                          Filter ((n0.ordinal > n_a.ordinal) AND (n0.ordinal <= n_a.end_ordinal)) (est rows=0 cost=67)
                            HashJoin on n0.doc_id = n_a.doc_id (est rows=2 cost=67)
                              IndexScan xml_node USING idx_node_path key=(6) (est rows=10 cost=23)
                              Filter (n_a.kind = 1) (est rows=5 cost=25)
                                IndexScan xml_node USING idx_node_path key=(1) (est rows=10 cost=25)
)plan"},
      {kFig11, R"plan(
Distinct
  Project [Accession_Number, Accession_Description]
    Sort by d_a.doc_id
      IndexNLJoin inner=xml_text USING idx_text_node key=(n8.node_id)
        HashJoin on n_a.doc_id = n8.doc_id
          IndexNLJoin inner=xml_text USING idx_text_node key=(n6.node_id)
            HashJoin on n_a.doc_id = n6.doc_id
              HashJoin on n_b.doc_id = d_b.doc_id
                HashJoin on n3.doc_id = n_b.doc_id
                  HashJoin on txt5.node_id = n3.node_id
                    IndexNLJoin inner=xml_text USING idx_text_value key=(txt4.value)
                      IndexNLJoin inner=xml_text USING idx_text_node key=(n0.node_id)
                        HashJoin on np1.node_id = txt2.node_id
                          HashJoin on n0.doc_id = np1.doc_id
                            HashJoin on n_a.doc_id = n0.doc_id
                              HashJoin on d_a.doc_id = n_a.doc_id
                                IndexScan xml_document USING idx_doc_collection key=(hlx_embl.inv)
                                IndexScan xml_node USING idx_node_path key=(20)
                              IndexScan xml_node USING idx_node_path key=(35)
                            IndexScan xml_node USING idx_node_path key=(36)
                          IndexScan xml_text USING idx_text_value key=(EC number)
                    IndexScan xml_node USING idx_node_path key=(3)
                  IndexScan xml_node USING idx_node_path key=(2)
                IndexScan xml_document USING idx_doc_collection key=(hlx_enzyme.DEFAULT)
              IndexScan xml_node USING idx_node_path key=(24)
          IndexScan xml_node USING idx_node_path key=(25)
)plan",
       R"plan(
Distinct (est rows=1 cost=26)
  Project [Accession_Number, Accession_Description] (est rows=0 cost=26)
    Sort by d_a.doc_id (est rows=0 cost=26)
      Filter (d_b.collection = 'hlx_enzyme.DEFAULT') (est rows=0 cost=26)
        IndexNLJoin inner=xml_document USING idx_doc_id key=(n_b.doc_id) (est rows=0 cost=26)
          Filter ((((n3.ordinal > n_b.ordinal) AND (n3.ordinal <= n_b.end_ordinal)) AND (n_b.kind = 1)) AND (n_b.path_id = 2)) (est rows=0 cost=26)
            IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n3.doc_id) (est rows=0 cost=26)
              IndexNLJoin inner=xml_text USING idx_text_node key=(n8.node_id) (est rows=0 cost=26)
                Filter (((n8.ordinal > n_a.ordinal) AND (n8.ordinal <= n_a.end_ordinal)) AND (n8.path_id = 25)) (est rows=0 cost=26)
                  IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=26)
                    IndexNLJoin inner=xml_text USING idx_text_node key=(n6.node_id) (est rows=0 cost=26)
                      Filter (((n6.ordinal > n_a.ordinal) AND (n6.ordinal <= n_a.end_ordinal)) AND (n6.path_id = 24)) (est rows=0 cost=26)
                        IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=26)
                          Filter (d_a.collection = 'hlx_embl.inv') (est rows=0 cost=26)
                            IndexNLJoin inner=xml_document USING idx_doc_id key=(n_a.doc_id) (est rows=0 cost=26)
                              Filter ((((n0.ordinal > n_a.ordinal) AND (n0.ordinal <= n_a.end_ordinal)) AND (n_a.kind = 1)) AND (n_a.path_id = 20)) (est rows=0 cost=26)
                                IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n0.doc_id) (est rows=0 cost=26)
                                  Filter (n3.path_id = 3) (est rows=0 cost=26)
                                    IndexNLJoin inner=xml_node USING idx_node_id key=(txt5.node_id) (est rows=0 cost=26)
                                      IndexNLJoin inner=xml_text USING idx_text_value key=(txt4.value) (est rows=0 cost=26)
                                        IndexNLJoin inner=xml_text USING idx_text_node key=(n0.node_id) (est rows=0 cost=26)
                                          Filter (((np1.ordinal > n0.ordinal) AND (np1.ordinal <= n0.end_ordinal)) AND (n0.path_id = 35)) (est rows=0 cost=26)
                                            IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(np1.doc_id) (est rows=1 cost=26)
                                              Filter (np1.path_id = 36) (est rows=0 cost=24)
                                                IndexNLJoin inner=xml_node USING idx_node_id key=(txt2.node_id) (est rows=2 cost=24)
                                                  IndexScan xml_text USING idx_text_value key=(EC number) (est rows=2 cost=11)
)plan"},
      {kFig11Filtered, R"plan(
Distinct
  Project [c0, c1]
    Sort by d_a.doc_id
      IndexNLJoin inner=xml_text USING idx_text_node key=(n10.node_id)
        HashJoin on n_a.doc_id = n10.doc_id
          IndexNLJoin inner=xml_text USING idx_text_node key=(n8.node_id)
            HashJoin on n_a.doc_id = n8.doc_id
              HashJoin on n_b.doc_id = d_b.doc_id
                HashJoin on n3.doc_id = n_b.doc_id
                  HashJoin on txt5.node_id = n3.node_id
                    IndexNLJoin inner=xml_text USING idx_text_value key=(txt4.value)
                      IndexNLJoin inner=xml_text USING idx_text_node key=(n0.node_id)
                        HashJoin on np1.node_id = txt2.node_id
                          HashJoin on n0.doc_id = np1.doc_id
                            HashJoin on n_a.doc_id = n0.doc_id
                              HashJoin on n_a.doc_id = d_a.doc_id
                                HashJoin on n6.doc_id = n_a.doc_id
                                  HashJoin on txt7.node_id = n6.node_id
                                    KeywordScan xml_text USING idx_text_keyword keyword='kinase'
                                    IndexScan xml_node USING idx_node_path key=(25)
                                  IndexScan xml_node USING idx_node_path key=(20)
                                IndexScan xml_document USING idx_doc_collection key=(hlx_embl.inv)
                              IndexScan xml_node USING idx_node_path key=(35)
                            IndexScan xml_node USING idx_node_path key=(36)
                          IndexScan xml_text USING idx_text_value key=(EC number)
                    IndexScan xml_node USING idx_node_path key=(3)
                  IndexScan xml_node USING idx_node_path key=(2)
                IndexScan xml_document USING idx_doc_collection key=(hlx_enzyme.DEFAULT)
              IndexScan xml_node USING idx_node_path key=(24)
          IndexScan xml_node USING idx_node_path key=(25)
)plan",
       R"plan(
Distinct (est rows=1 cost=26)
  Project [c0, c1] (est rows=0 cost=26)
    Sort by d_a.doc_id (est rows=0 cost=26)
      Filter (d_b.collection = 'hlx_enzyme.DEFAULT') (est rows=0 cost=26)
        IndexNLJoin inner=xml_document USING idx_doc_id key=(n_b.doc_id) (est rows=0 cost=26)
          Filter ((((n3.ordinal > n_b.ordinal) AND (n3.ordinal <= n_b.end_ordinal)) AND (n_b.kind = 1)) AND (n_b.path_id = 2)) (est rows=0 cost=26)
            IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n3.doc_id) (est rows=0 cost=26)
              IndexNLJoin inner=xml_text USING idx_text_node key=(n10.node_id) (est rows=0 cost=26)
                Filter (((n10.ordinal > n_a.ordinal) AND (n10.ordinal <= n_a.end_ordinal)) AND (n10.path_id = 25)) (est rows=0 cost=26)
                  IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=26)
                    IndexNLJoin inner=xml_text USING idx_text_node key=(n8.node_id) (est rows=0 cost=26)
                      Filter (((n8.ordinal > n_a.ordinal) AND (n8.ordinal <= n_a.end_ordinal)) AND (n8.path_id = 24)) (est rows=0 cost=26)
                        IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=26)
                          Filter CONTAINS(txt7.value, 'kinase') (est rows=0 cost=26)
                            IndexNLJoin inner=xml_text USING idx_text_node key=(n6.node_id) (est rows=0 cost=26)
                              Filter (((n6.ordinal > n_a.ordinal) AND (n6.ordinal <= n_a.end_ordinal)) AND (n6.path_id = 25)) (est rows=0 cost=26)
                                IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n_a.doc_id) (est rows=0 cost=26)
                                  Filter (d_a.collection = 'hlx_embl.inv') (est rows=0 cost=26)
                                    IndexNLJoin inner=xml_document USING idx_doc_id key=(n_a.doc_id) (est rows=0 cost=26)
                                      Filter ((((n0.ordinal > n_a.ordinal) AND (n0.ordinal <= n_a.end_ordinal)) AND (n_a.kind = 1)) AND (n_a.path_id = 20)) (est rows=0 cost=26)
                                        IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(n0.doc_id) (est rows=0 cost=26)
                                          Filter (n3.path_id = 3) (est rows=0 cost=26)
                                            IndexNLJoin inner=xml_node USING idx_node_id key=(txt5.node_id) (est rows=0 cost=26)
                                              IndexNLJoin inner=xml_text USING idx_text_value key=(txt4.value) (est rows=0 cost=26)
                                                IndexNLJoin inner=xml_text USING idx_text_node key=(n0.node_id) (est rows=0 cost=26)
                                                  Filter (((np1.ordinal > n0.ordinal) AND (np1.ordinal <= n0.end_ordinal)) AND (n0.path_id = 35)) (est rows=0 cost=26)
                                                    IndexNLJoin inner=xml_node USING idx_node_doc_ord key=(np1.doc_id) (est rows=1 cost=26)
                                                      Filter (np1.path_id = 36) (est rows=0 cost=24)
                                                        IndexNLJoin inner=xml_node USING idx_node_id key=(txt2.node_id) (est rows=2 cost=24)
                                                          IndexScan xml_text USING idx_text_value key=(EC number) (est rows=2 cost=11)
)plan"},
  };
  std::vector<Translation> translations;
  for (const Figure& f : figures) {
    translations.push_back(MustTranslate(f.query));
    ASSERT_EQ(translations.back().stmts.size(), 1u) << f.query;
    auto plan = engine_->ExplainSelectStmt(*translations.back().stmts[0]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ("\n" + WithoutFilters(*plan), f.rule_plan) << f.query;
  }
  ASSERT_TRUE(engine_->Execute("ANALYZE").ok());
  for (size_t i = 0; i < translations.size(); ++i) {
    auto plan = engine_->ExplainSelectStmt(*translations[i].stmts[0]);
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_EQ("\n" + *plan, figures[i].costed_plan) << figures[i].query;
  }
}

}  // namespace
}  // namespace xomatiq::xq
