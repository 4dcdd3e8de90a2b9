#include "xomatiq/xomatiq.h"

#include <gtest/gtest.h>

#include <set>

#include "datagen/corpus.h"
#include "xml/writer.h"

namespace xomatiq::xq {
namespace {

using rel::Database;

// Full query-level tests over a warehoused corpus with known ground truth.
class XomatiqQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::CorpusOptions options;
    options.num_enzymes = 60;
    options.num_proteins = 80;
    options.num_nucleotides = 100;
    options.keyword_fraction = 0.1;
    options.ketone_fraction = 0.15;
    options.ec_link_fraction = 0.4;
    corpus_ = datagen::GenerateCorpus(options);

    db_ = Database::OpenInMemory();
    auto warehouse = hounds::Warehouse::Open(db_.get());
    ASSERT_TRUE(warehouse.ok());
    warehouse_ = std::move(*warehouse);
    hounds::EnzymeXmlTransformer enzyme_tf;
    hounds::EmblXmlTransformer embl_tf;
    hounds::SwissProtXmlTransformer sprot_tf;
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_enzyme.DEFAULT", enzyme_tf,
                                 datagen::ToEnzymeFlatFile(corpus_))
                    .ok());
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_embl.inv", embl_tf,
                                 datagen::ToEmblFlatFile(corpus_))
                    .ok());
    ASSERT_TRUE(warehouse_
                    ->LoadSource("hlx_sprot.all", sprot_tf,
                                 datagen::ToSwissProtFlatFile(corpus_))
                    .ok());
    xomatiq_ = std::make_unique<XomatiQ>(warehouse_.get());
  }

  XqResult MustExecute(const std::string& query) {
    auto r = xomatiq_->Execute(query);
    EXPECT_TRUE(r.ok()) << query << "\n" << r.status().ToString();
    return r.ok() ? std::move(*r) : XqResult{};
  }

  datagen::Corpus corpus_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<hounds::Warehouse> warehouse_;
  std::unique_ptr<XomatiQ> xomatiq_;
};

TEST_F(XomatiqQueryTest, Figure9SubtreeQueryMatchesGroundTruth) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id, $a//enzyme_description)");
  EXPECT_EQ(r.rows.size(), corpus_.enzymes_with_ketone);
  // Every returned id really has a "ketone" catalytic activity.
  std::set<std::string> ketone_ids;
  for (const auto& e : corpus_.enzymes) {
    for (const auto& ca : e.catalytic_activities) {
      if (ca.find("ketone") != std::string::npos) ketone_ids.insert(e.id);
    }
  }
  for (const auto& row : r.rows) {
    EXPECT_TRUE(ketone_ids.count(row[0].AsText()) > 0) << row[0].AsText();
  }
}

TEST_F(XomatiqQueryTest, Figure8KeywordQueryMatchesGroundTruth) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)");
  // Cross product of matching documents from the two databases.
  EXPECT_EQ(r.rows.size(), corpus_.proteins_with_keyword *
                               corpus_.nucleotides_with_keyword);
  ASSERT_EQ(r.columns.size(), 2u);
  EXPECT_EQ(r.columns[0], "sprot_accession_number");
}

TEST_F(XomatiqQueryTest, Figure11JoinQueryMatchesGroundTruth) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence/db_entry,
    $b IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a//qualifier[@qualifier_type = "EC number"] = $b/enzyme_id
RETURN $Accession_Number = $a//embl_accession_number,
       $Accession_Description = $a//description)");
  EXPECT_EQ(r.rows.size(), corpus_.nucleotides_with_ec_link);
  EXPECT_EQ(r.columns,
            (std::vector<std::string>{"Accession_Number",
                                      "Accession_Description"}));
  // Spot check one row against the corpus.
  std::set<std::string> linked;
  for (const auto& n : corpus_.nucleotides) {
    for (const auto& f : n.features) {
      for (const auto& q : f.qualifiers) {
        if (q.name == "EC_number") linked.insert(n.accessions.front());
      }
    }
  }
  for (const auto& row : r.rows) {
    EXPECT_TRUE(linked.count(row[0].AsText()) > 0) << row[0].AsText();
  }
}

TEST_F(XomatiqQueryTest, ValueEqualityQuery) {
  const std::string& target = corpus_.enzymes[5].id;
  XqResult r = MustExecute(
      "FOR $a IN document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme/db_entry "
      "WHERE $a/enzyme_id = \"" + target + "\" "
      "RETURN $a/enzyme_id, $a//enzyme_description");
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(r.rows[0][0].AsText(), target);
  EXPECT_EQ(r.rows[0][1].AsText(), corpus_.enzymes[5].descriptions[0]);
}

TEST_F(XomatiqQueryTest, NumericComparisonOnAttribute) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
WHERE $a//sequence/@length > 0
RETURN $a//entry_name)");
  // Every protein has a positive length.
  EXPECT_EQ(r.rows.size(), corpus_.proteins.size());
}

TEST_F(XomatiqQueryTest, OrUnionsDisjunctsWithoutDuplicates) {
  // description contains kinase OR description contains kinase: identical
  // disjuncts must not duplicate rows.
  XqResult once = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//enzyme_description, "kinase")
RETURN $a//enzyme_id)");
  XqResult twice = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//enzyme_description, "kinase")
   OR contains($a//enzyme_description, "kinase")
RETURN $a//enzyme_id)");
  EXPECT_EQ(once.rows.size(), twice.rows.size());
}

// Execute returns one statement's rows as the statement streams them (it
// is already DISTINCT over the returned columns) and a DNF union's rows
// in first-seen order without duplicates: the same rows in the same order
// as a seen-set union over every statement.
TEST_F(XomatiqQueryTest, RowsFollowTheStatementsFirstSeenOrder) {
  const char* queries[] = {
      R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)",
      R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//enzyme_description, "kinase")
   OR contains($a//enzyme_description, "kinase")
RETURN $a//enzyme_id, $a//enzyme_description)",
  };
  const size_t statements[] = {1, 2};
  for (size_t q = 0; q < 2; ++q) {
    auto translation = xomatiq_->Translate(queries[q]);
    ASSERT_TRUE(translation.ok()) << translation.status().ToString();
    ASSERT_EQ(translation->stmts.size(), statements[q]);
    std::set<rel::CompositeKey, rel::CompositeKeyLess> seen;
    std::vector<rel::Tuple> want;
    size_t streamed = 0;
    for (const auto& stmt : translation->stmts) {
      auto run = xomatiq_->engine()->ExecuteSelectStmtBatched(
          *stmt, [&](rel::RowBatch& batch) {
            for (size_t i = 0; i < batch.size(); ++i) {
              ++streamed;
              if (seen.insert(batch.row(i)).second) {
                want.push_back(batch.row(i));
              }
            }
            return true;
          });
      ASSERT_TRUE(run.ok()) << run.status().ToString();
    }
    ASSERT_FALSE(want.empty()) << queries[q];
    // One statement streams no duplicate; the repeated disjunct streams
    // every row twice.
    EXPECT_EQ(streamed, want.size() * statements[q]) << queries[q];
    EXPECT_EQ(MustExecute(queries[q]).rows, want) << queries[q];
  }
}

TEST_F(XomatiqQueryTest, BeforeAfterOrderOperators) {
  // enzyme_id precedes disease_list in every document (Fig 5 DTD order).
  XqResult before = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id BEFORE $a/disease_list
RETURN $a/enzyme_id)");
  EXPECT_EQ(before.rows.size(), corpus_.enzymes.size());
  XqResult after = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id AFTER $a/disease_list
RETURN $a/enzyme_id)");
  EXPECT_EQ(after.rows.size(), 0u);
}

TEST_F(XomatiqQueryTest, SequenceDataExcludedFromKeywordSearch) {
  // Nucleotide sequences are lowercase acgt; a keyword query for a random
  // 4-mer must not match sequence content (it lives in xml_sequence).
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence
WHERE contains($a, "acgt", any)
RETURN $a//entry_name)");
  EXPECT_EQ(r.rows.size(), 0u);
}

TEST_F(XomatiqQueryTest, PlansSeedFromSelectiveIndexes) {
  // Fig 9: the inverted-index KeywordScan must be the leaf the plan grows
  // from (deepest operator), not a late filter over a document scan.
  auto fig9 = xomatiq_->Explain(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id)");
  ASSERT_TRUE(fig9.ok());
  // The deepest (= last printed, most indented) access path is the
  // keyword scan; assert it appears after every join operator.
  size_t kw = fig9->find("KeywordScan");
  ASSERT_NE(kw, std::string::npos) << *fig9;
  EXPECT_GT(kw, fig9->rfind("IndexNLJoin")) << *fig9;
  // Fig 8's two keyword legs must both be filtered below the single
  // cross product (exactly one NestedLoopJoin, two KeywordScans).
  auto fig8 = xomatiq_->Explain(R"(
FOR $a IN document("hlx_embl.inv")/hlx_n_sequence,
    $b IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any) AND contains($b, "cdc6", any)
RETURN $b//sprot_accession_number, $a//embl_accession_number)");
  ASSERT_TRUE(fig8.ok());
  size_t first_nl = fig8->find("NestedLoopJoin");
  ASSERT_NE(first_nl, std::string::npos) << *fig8;
  EXPECT_EQ(fig8->find("NestedLoopJoin", first_nl + 1), std::string::npos)
      << "more than one cross product:\n" << *fig8;
  size_t first_kw = fig8->find("KeywordScan");
  ASSERT_NE(first_kw, std::string::npos);
  EXPECT_NE(fig8->find("KeywordScan", first_kw + 1), std::string::npos)
      << *fig8;
  // Both keyword scans sit below the cross product in the printed tree.
  EXPECT_GT(first_kw, first_nl) << *fig8;
}

TEST_F(XomatiqQueryTest, ExplainShowsRelationalPlans) {
  auto explain = xomatiq_->Explain(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a//catalytic_activity, "ketone")
RETURN $a//enzyme_id)");
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->find("KeywordScan"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("IndexScan"), std::string::npos) << *explain;
}

TEST_F(XomatiqQueryTest, ReturnConstructorNamesRowElements) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = ")" + corpus_.enzymes[0].id + R"("
RETURN <enzyme_hit>{ $a/enzyme_id, $a//enzyme_description }</enzyme_hit>)");
  EXPECT_EQ(r.constructor_name, "enzyme_hit");
  xml::XmlDocument doc = xomatiq_->ResultsAsXml(r);
  auto hits = doc.root()->ChildElements("enzyme_hit");
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(hits[0]->ChildText("enzyme_id"), corpus_.enzymes[0].id);
}

TEST_F(XomatiqQueryTest, ResultsAsXmlTagsRows) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = ")" + corpus_.enzymes[0].id + R"("
RETURN $a/enzyme_id, $a//enzyme_description)");
  xml::XmlDocument doc = xomatiq_->ResultsAsXml(r);
  ASSERT_NE(doc.root(), nullptr);
  EXPECT_EQ(doc.root()->name(), "results");
  auto results = doc.root()->ChildElements("result");
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results[0]->ChildText("enzyme_id"), corpus_.enzymes[0].id);
}

TEST_F(XomatiqQueryTest, ToTableRenders) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = ")" + corpus_.enzymes[0].id + R"("
RETURN $a/enzyme_id)");
  std::string table = r.ToTable();
  EXPECT_NE(table.find("enzyme_id"), std::string::npos);
  EXPECT_NE(table.find(corpus_.enzymes[0].id), std::string::npos);
  EXPECT_NE(table.find("1 row(s)"), std::string::npos);
}

TEST_F(XomatiqQueryTest, DtdTreePanel) {
  auto tree = xomatiq_->FormatDtdTree("hlx_enzyme.DEFAULT");
  ASSERT_TRUE(tree.ok());
  EXPECT_EQ(tree->find("hlx_enzyme"), 0u);
  EXPECT_NE(tree->find("catalytic_activity"), std::string::npos);
  EXPECT_FALSE(xomatiq_->FormatDtdTree("ghost").ok());
}

TEST_F(XomatiqQueryTest, ViewDocumentReconstructs) {
  auto doc_id = warehouse_->FindDocument("enzyme:" + corpus_.enzymes[2].id);
  ASSERT_TRUE(doc_id.ok());
  auto doc = xomatiq_->ViewDocument(*doc_id);
  ASSERT_TRUE(doc.ok());
  auto entry = hounds::EnzymeXmlTransformer::XmlToEntry(*doc->root());
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(*entry, corpus_.enzymes[2]);
}

TEST(XomatiqPositionalTest, PositionalPredicateSelectsNthSibling) {
  auto db = Database::OpenInMemory();
  auto warehouse = hounds::Warehouse::Open(db.get());
  ASSERT_TRUE(warehouse.ok());
  hounds::EnzymeXmlTransformer transformer;
  // Fig 2's entry has two alternate names in document order.
  ASSERT_TRUE((*warehouse)
                  ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                               flatfile::FormatEnzymeEntry(
                                   datagen::Figure2Entry()))
                  .ok());
  xq::XomatiQ xomatiq(warehouse->get());
  auto first = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//alternate_name[1])");
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->rows.size(), 1u);
  EXPECT_EQ(first->rows[0][0].AsText(), "Peptidyl alpha-amidating enzyme");
  auto second = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//alternate_name[2])");
  ASSERT_TRUE(second.ok());
  ASSERT_EQ(second->rows.size(), 1u);
  EXPECT_EQ(second->rows[0][0].AsText(), "Peptidylglycine 2-hydroxylase");
  auto third = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//alternate_name[3])");
  ASSERT_TRUE(third.ok());
  EXPECT_TRUE(third->rows.empty());
  // Positional composes with a value predicate elsewhere in the query.
  auto combined = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme/db_entry
WHERE $a/enzyme_id = "1.14.17.3"
RETURN $a//reference[5]/@swissprot_accession_number)");
  ASSERT_TRUE(combined.ok()) << combined.status().ToString();
  ASSERT_EQ(combined->rows.size(), 1u);
  EXPECT_EQ(combined->rows[0][0].AsText(), "P12890");
}

TEST(XomatiqRelativeBindingTest, AlignsValuesOfOneElement) {
  auto db = Database::OpenInMemory();
  auto warehouse = hounds::Warehouse::Open(db.get());
  ASSERT_TRUE(warehouse.ok());
  hounds::EnzymeXmlTransformer transformer;
  ASSERT_TRUE((*warehouse)
                  ->LoadSource("hlx_enzyme.DEFAULT", transformer,
                               flatfile::FormatEnzymeEntry(
                                   datagen::Figure2Entry()))
                  .ok());
  xq::XomatiQ xomatiq(warehouse->get());
  // Independent paths cross-multiply: 5 references -> 25 pairs.
  auto crossed = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
RETURN $a//reference/@swissprot_accession_number, $a//reference/@name)");
  ASSERT_TRUE(crossed.ok());
  EXPECT_EQ(crossed->rows.size(), 25u);
  // A variable-relative binding keeps the pairs aligned: 5 rows.
  auto aligned = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme,
    $r IN $a//reference
RETURN $r/@swissprot_accession_number, $r/@name)");
  ASSERT_TRUE(aligned.ok()) << aligned.status().ToString();
  ASSERT_EQ(aligned->rows.size(), 5u);
  // Verify one known pair stays together.
  bool found = false;
  for (const auto& row : aligned->rows) {
    if (row[0].AsText() == "P10731") {
      EXPECT_EQ(row[1].AsText(), "AMD_BOVIN");
      found = true;
    }
  }
  EXPECT_TRUE(found);
  // Relative bindings compose with predicates.
  auto filtered = xomatiq.Execute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme,
    $r IN $a//reference[@name = "AMD_RAT"]
RETURN $r/@swissprot_accession_number)");
  ASSERT_TRUE(filtered.ok());
  ASSERT_EQ(filtered->rows.size(), 1u);
  EXPECT_EQ(filtered->rows[0][0].AsText(), "P14925");
  // Base variable must be bound before use.
  EXPECT_FALSE(xomatiq
                   .Execute("FOR $r IN $a//reference, $a IN "
                            "document(\"hlx_enzyme.DEFAULT\")/hlx_enzyme "
                            "RETURN $r/@name")
                   .ok());
}

TEST_F(XomatiqQueryTest, EmptyResultForUnmatchedKeyword) {
  XqResult r = MustExecute(R"(
FOR $a IN document("hlx_enzyme.DEFAULT")/hlx_enzyme
WHERE contains($a, "zzznotthere", any)
RETURN $a//enzyme_id)");
  EXPECT_TRUE(r.rows.empty());
}

TEST_F(XomatiqQueryTest, MultiKeywordContainsIsConjunctive) {
  // Fig 8-style extension: "keywords ... implicitly meant to be located
  // close to one another in the same XML document".
  size_t single = MustExecute(R"(
FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6", any)
RETURN $a//entry_name)").rows.size();
  size_t both = MustExecute(R"(
FOR $a IN document("hlx_sprot.all")/hlx_n_sequence
WHERE contains($a, "cdc6 replication", any)
RETURN $a//entry_name)").rows.size();
  EXPECT_EQ(single, corpus_.proteins_with_keyword);
  EXPECT_LE(both, single);
  EXPECT_GT(both, 0u);  // generator plants "replication licensing" text
}

}  // namespace
}  // namespace xomatiq::xq
