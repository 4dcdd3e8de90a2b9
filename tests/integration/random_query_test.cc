// Randomized differential testing: XomatiQ (shred + XQ2SQL + relational
// evaluation) must agree with the native DOM evaluator on generated
// sub-tree keyword queries, value-equality queries and two-binding keyword
// queries (Fig 8's shape) over the same corpus, both with rule plans and
// with costed plans after ANALYZE.
// Random paths come from the documents themselves; random keywords are
// drawn from real text values (plus misses), so both hit and empty
// results are exercised.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baseline/native_xml.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "datagen/corpus.h"
#include "datahounds/warehouse.h"
#include "sql/expr_eval.h"
#include "xomatiq/xomatiq.h"

namespace xomatiq {
namespace {

using rel::Database;

// One loaded warehouse and the XomatiQ instance over it.
struct Stack {
  std::unique_ptr<Database> db;
  std::unique_ptr<hounds::Warehouse> warehouse;
  std::unique_ptr<xq::XomatiQ> xomatiq;
};

struct CorpusFixture {
  Stack plain;     // never analyzed: rule plans
  Stack analyzed;  // the same load, then ANALYZE: costed plans
  baseline::NativeXmlStore native;
  // Leaf element names with their observed text values (per collection).
  std::map<std::string, std::vector<std::pair<std::string, std::string>>>
      leaf_values;
};

CorpusFixture* BuildFixture() {
  static CorpusFixture* fixture = [] {
    auto* f = new CorpusFixture();
    datagen::CorpusOptions options;
    options.seed = 99;
    options.num_enzymes = 30;
    options.num_proteins = 40;
    options.num_nucleotides = 50;
    datagen::Corpus corpus = datagen::GenerateCorpus(options);
    hounds::EnzymeXmlTransformer enzyme_tf;
    hounds::EmblXmlTransformer embl_tf;
    hounds::SwissProtXmlTransformer sprot_tf;
    struct Source {
      const char* collection;
      const hounds::XmlTransformer* transformer;
      std::string raw;
    };
    const Source sources[] = {
        {"hlx_enzyme.DEFAULT", &enzyme_tf, datagen::ToEnzymeFlatFile(corpus)},
        {"hlx_embl.inv", &embl_tf, datagen::ToEmblFlatFile(corpus)},
        {"hlx_sprot.all", &sprot_tf, datagen::ToSwissProtFlatFile(corpus)},
    };
    for (Stack* stack : {&f->plain, &f->analyzed}) {
      stack->db = Database::OpenInMemory();
      auto wh = hounds::Warehouse::Open(stack->db.get());
      EXPECT_TRUE(wh.ok());
      stack->warehouse = std::move(*wh);
      for (const Source& s : sources) {
        auto stats = stack->warehouse->LoadSource(s.collection,
                                                  *s.transformer, s.raw);
        EXPECT_TRUE(stats.ok()) << stats.status().ToString();
      }
      stack->xomatiq = std::make_unique<xq::XomatiQ>(stack->warehouse.get());
    }
    auto analyze = f->analyzed.xomatiq->engine()->Execute("ANALYZE");
    EXPECT_TRUE(analyze.ok()) << analyze.status().ToString();
    for (const Source& s : sources) {
      auto docs = s.transformer->Transform(s.raw);
      EXPECT_TRUE(docs.ok());
      for (auto& d : *docs) {
        // Collect leaf (element name, text value) pairs for query seeds;
        // skip sequences (not keyword-searchable by design).
        d.document.root()->Visit([&](const xml::XmlNode& node) {
          if (node.kind() == xml::NodeKind::kElement &&
              node.name() != "sequence" && !node.Text().empty() &&
              node.ChildElements().empty()) {
            f->leaf_values[s.collection].emplace_back(node.name(),
                                                      node.Text());
          }
          return true;
        });
        f->native.Load(s.collection, std::move(d.document));
      }
    }
    return f;
  }();
  return fixture;
}

std::multiset<std::string> Sorted(const std::vector<rel::Tuple>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(rel::TupleToString(row));
  return out;
}

std::multiset<std::string> Sorted(
    const std::vector<std::vector<std::string>>& rows) {
  std::multiset<std::string> out;
  for (const auto& row : rows) out.insert(common::Join(row, ", "));
  return out;
}

// Runs `query` on both warehouses; each answer must equal `expected`.
void ExpectBothAgree(CorpusFixture* f, const std::string& query,
                     const std::multiset<std::string>& expected) {
  for (const Stack* stack : {&f->plain, &f->analyzed}) {
    const bool costed = stack == &f->analyzed;
    const char* plans = costed ? "costed plans" : "rule plans";
    auto explain = stack->xomatiq->Explain(query);
    ASSERT_TRUE(explain.ok()) << query << "\n" << explain.status().ToString();
    EXPECT_EQ(explain->find("est rows=") != std::string::npos, costed)
        << query << " (" << plans << ")\n"
        << *explain;
    auto result = stack->xomatiq->Execute(query);
    ASSERT_TRUE(result.ok()) << query << " (" << plans << ")\n"
                             << result.status().ToString();
    EXPECT_EQ(Sorted(result->rows), expected)
        << query << " (" << plans << ")";
  }
}

struct RootInfo {
  const char* collection;
  const char* root;
  const char* id_path;
};
constexpr RootInfo kRoots[] = {
    {"hlx_enzyme.DEFAULT", "hlx_enzyme", "enzyme_id"},
    {"hlx_embl.inv", "hlx_n_sequence", "entry_name"},
    {"hlx_sprot.all", "hlx_n_sequence", "entry_name"},
};

// A token from a real text value of `collection`, or a guaranteed miss.
std::string RandomKeyword(CorpusFixture* f, const std::string& collection,
                          common::Rng* rng) {
  const auto& leaves = f->leaf_values[collection];
  const std::string& text = leaves[rng->Uniform(leaves.size())].second;
  std::vector<std::string> tokens = common::TokenizeKeywords(text);
  return tokens.empty() || rng->Bernoulli(0.2)
             ? "zz_definitely_absent"
             : tokens[rng->Uniform(tokens.size())];
}

class RandomQueryTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(RandomQueryTest, SubtreeKeywordQueriesAgreeWithNativeDom) {
  CorpusFixture* f = BuildFixture();
  common::Rng rng(GetParam());
  for (int round = 0; round < 25; ++round) {
    const RootInfo& info = kRoots[rng.Uniform(3)];
    const auto& leaves = f->leaf_values[info.collection];
    ASSERT_FALSE(leaves.empty());
    const auto& [element, text] = leaves[rng.Uniform(leaves.size())];
    // Pick a token from a real value, or a guaranteed miss.
    std::vector<std::string> tokens = common::TokenizeKeywords(text);
    std::string keyword = tokens.empty() || rng.Bernoulli(0.2)
                              ? "zz_definitely_absent"
                              : tokens[rng.Uniform(tokens.size())];
    xq::SubtreeQueryBuilder builder(info.collection, info.root);
    builder.AddCondition(element, keyword).AddReturn(info.id_path);
    std::string query = builder.Build();

    auto native = f->native.SubtreeQuery(info.collection, element, keyword,
                                         {std::string("//") + info.id_path});
    ASSERT_TRUE(native.ok()) << query;
    ExpectBothAgree(f, query, Sorted(*native));
  }
}

TEST_P(RandomQueryTest, ValueEqualityQueriesAgreeWithNativeDom) {
  CorpusFixture* f = BuildFixture();
  common::Rng rng(GetParam() + 5000);
  for (int round = 0; round < 25; ++round) {
    const RootInfo& info = kRoots[rng.Uniform(3)];
    const auto& leaves = f->leaf_values[info.collection];
    const auto& [element, text] = leaves[rng.Uniform(leaves.size())];
    std::string literal =
        rng.Bernoulli(0.2) ? "no such value anywhere" : text;
    // Escape is unnecessary: generator values contain no quotes.
    std::string query = std::string("FOR $a IN document(\"") +
                        info.collection + "\")/" + info.root +
                        " WHERE $a//" + element + " = \"" + literal +
                        "\" RETURN $a//" + info.id_path;
    // Native evaluation: docs with any matching element value.
    std::vector<std::vector<std::string>> native_rows;
    auto cond_steps = baseline::ParseNativePath(std::string("//") + element);
    auto ret_steps =
        baseline::ParseNativePath(std::string("//") + info.id_path);
    ASSERT_TRUE(cond_steps.ok());
    ASSERT_TRUE(ret_steps.ok());
    for (const xml::XmlDocument& doc : f->native.Docs(info.collection)) {
      bool match = false;
      for (const std::string& value :
           baseline::EvalPathValues(*doc.root(), *cond_steps)) {
        if (value == literal) match = true;
      }
      if (!match) continue;
      auto ids = baseline::EvalPathValues(*doc.root(), *ret_steps);
      native_rows.push_back({ids.empty() ? "" : ids.front()});
    }
    ExpectBothAgree(f, query, Sorted(native_rows));
  }
}

// Fig 8's shape: two bindings, a keyword on each, no predicate linking
// them, so the join graph has two components. The native answer crosses
// the two keyword searches' return values the way paperbench's oracle
// does.
TEST_P(RandomQueryTest, TwoBindingKeywordQueriesAgreeWithNativeDom) {
  CorpusFixture* f = BuildFixture();
  common::Rng rng(GetParam() + 9000);
  for (int round = 0; round < 10; ++round) {
    const RootInfo& a = kRoots[rng.Uniform(3)];
    const RootInfo& b = kRoots[rng.Uniform(3)];
    std::string a_word = RandomKeyword(f, a.collection, &rng);
    std::string b_word = RandomKeyword(f, b.collection, &rng);
    std::string query = std::string("FOR $a IN document(\"") + a.collection +
                        "\")/" + a.root + ", $b IN document(\"" +
                        b.collection + "\")/" + b.root +
                        " WHERE contains($a, \"" + a_word +
                        "\", any) AND contains($b, \"" + b_word +
                        "\", any) RETURN $a//" + a.id_path + ", $b//" +
                        b.id_path;

    auto a_steps = baseline::ParseNativePath(std::string("//") + a.id_path);
    auto b_steps = baseline::ParseNativePath(std::string("//") + b.id_path);
    ASSERT_TRUE(a_steps.ok());
    ASSERT_TRUE(b_steps.ok());
    std::set<std::vector<std::string>> rows;  // XQ answers are DISTINCT
    for (const xml::XmlDocument* a_doc :
         f->native.KeywordSearch(a.collection, a_word)) {
      for (const xml::XmlDocument* b_doc :
           f->native.KeywordSearch(b.collection, b_word)) {
        for (const std::string& av :
             baseline::EvalPathValues(*a_doc->root(), *a_steps)) {
          for (const std::string& bv :
               baseline::EvalPathValues(*b_doc->root(), *b_steps)) {
            rows.insert({av, bv});
          }
        }
      }
    }
    ExpectBothAgree(f, query, Sorted(std::vector<std::vector<std::string>>(
                                  rows.begin(), rows.end())));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomQueryTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6));

}  // namespace
}  // namespace xomatiq
