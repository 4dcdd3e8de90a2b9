#include "xml/dtd.h"

#include <gtest/gtest.h>

#include "common/string_util.h"
#include "xml/parser.h"

namespace xomatiq::xml {
namespace {

constexpr char kEnzymeDtd[] = R"(
<!ELEMENT hlx_enzyme (db_entry)>
<!ELEMENT db_entry (enzyme_id, enzyme_description+, alternate_name_list,
  catalytic_activity*, cofactor_list?)>
<!ELEMENT enzyme_id (#PCDATA)>
<!ELEMENT enzyme_description (#PCDATA)>
<!ELEMENT alternate_name_list (alternate_name*)>
<!ELEMENT alternate_name (#PCDATA)>
<!ELEMENT catalytic_activity (#PCDATA)>
<!ELEMENT cofactor_list (cofactor*)>
<!ELEMENT cofactor (#PCDATA)>
<!ATTLIST cofactor
  role (primary | secondary) "primary"
  code NMTOKEN #REQUIRED
  note CDATA #IMPLIED
  fixed_val CDATA #FIXED "constant">
)";

Dtd MustParse(std::string_view text) {
  auto dtd = ParseDtd(text);
  EXPECT_TRUE(dtd.ok()) << dtd.status().ToString();
  return dtd.ok() ? std::move(*dtd) : Dtd();
}

TEST(DtdParserTest, ParsesDeclarations) {
  Dtd dtd = MustParse(kEnzymeDtd);
  EXPECT_EQ(dtd.elements().size(), 9u);
  const DtdElement* entry = dtd.FindElement("db_entry");
  ASSERT_NE(entry, nullptr);
  EXPECT_EQ(entry->content, ContentKind::kModel);
  EXPECT_EQ(entry->model.ToString(),
            "(enzyme_id, enzyme_description+, alternate_name_list, "
            "catalytic_activity*, cofactor_list?)");
  const DtdElement* id = dtd.FindElement("enzyme_id");
  ASSERT_NE(id, nullptr);
  EXPECT_EQ(id->content, ContentKind::kPcdataOnly);
}

TEST(DtdParserTest, ParsesAttributes) {
  Dtd dtd = MustParse(kEnzymeDtd);
  const DtdElement* cofactor = dtd.FindElement("cofactor");
  ASSERT_NE(cofactor, nullptr);
  ASSERT_EQ(cofactor->attributes.size(), 4u);
  EXPECT_EQ(cofactor->attributes[0].type, AttrType::kEnum);
  EXPECT_EQ(cofactor->attributes[0].enum_values,
            (std::vector<std::string>{"primary", "secondary"}));
  EXPECT_EQ(cofactor->attributes[0].def, AttrDefault::kDefault);
  EXPECT_EQ(cofactor->attributes[0].default_value, "primary");
  EXPECT_EQ(cofactor->attributes[1].type, AttrType::kNmtoken);
  EXPECT_EQ(cofactor->attributes[1].def, AttrDefault::kRequired);
  EXPECT_EQ(cofactor->attributes[3].def, AttrDefault::kFixed);
  EXPECT_EQ(cofactor->attributes[3].default_value, "constant");
}

TEST(DtdParserTest, MixedEmptyAnyChoice) {
  Dtd dtd = MustParse(R"(
<!ELEMENT para (#PCDATA | em | strong)*>
<!ELEMENT em (#PCDATA)>
<!ELEMENT strong (#PCDATA)>
<!ELEMENT hr EMPTY>
<!ELEMENT anybox ANY>
<!ELEMENT choice ((a | b), c)>
<!ELEMENT a (#PCDATA)> <!ELEMENT b (#PCDATA)> <!ELEMENT c (#PCDATA)>
)");
  EXPECT_EQ(dtd.FindElement("para")->content, ContentKind::kMixed);
  EXPECT_EQ(dtd.FindElement("para")->mixed_names,
            (std::vector<std::string>{"em", "strong"}));
  EXPECT_EQ(dtd.FindElement("hr")->content, ContentKind::kEmpty);
  EXPECT_EQ(dtd.FindElement("anybox")->content, ContentKind::kAny);
  EXPECT_EQ(dtd.FindElement("choice")->model.ToString(), "((a | b), c)");
}

TEST(DtdParserTest, Errors) {
  EXPECT_FALSE(ParseDtd("<!ELEMENT broken").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT x (a,|b)>").ok());
  EXPECT_FALSE(ParseDtd("<!WEIRD x>").ok());
  EXPECT_FALSE(ParseDtd("<!ELEMENT x (#PCDATA)>\n<!ELEMENT x (#PCDATA)>").ok());
  EXPECT_FALSE(ParseDtd("<!ATTLIST e a BADTYPE #REQUIRED>").ok());
}

TEST(DtdParserTest, InferRootElement) {
  Dtd dtd = MustParse(kEnzymeDtd);
  EXPECT_EQ(dtd.InferRootElement(), "hlx_enzyme");
}

TEST(DtdParserTest, ToStringRoundTrips) {
  Dtd dtd = MustParse(kEnzymeDtd);
  std::string emitted = dtd.ToString();
  Dtd reparsed = MustParse(emitted);
  EXPECT_EQ(reparsed.elements().size(), dtd.elements().size());
  EXPECT_EQ(reparsed.ToString(), emitted);
}

// --- validation ---------------------------------------------------------

class DtdValidatorTest : public ::testing::Test {
 protected:
  DtdValidatorTest() : dtd_(MustParse(kEnzymeDtd)) {}

  bool Valid(const std::string& xml_text,
             std::vector<std::string>* errors = nullptr) {
    auto doc = ParseXml(xml_text);
    EXPECT_TRUE(doc.ok()) << doc.status().ToString();
    std::vector<std::string> local;
    bool ok = dtd_.Validate(*doc, errors != nullptr ? errors : &local);
    return ok;
  }

  Dtd dtd_;
};

TEST_F(DtdValidatorTest, AcceptsConformingDocument) {
  EXPECT_TRUE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1.1.1.1</enzyme_id>
  <enzyme_description>one</enzyme_description>
  <enzyme_description>two</enzyme_description>
  <alternate_name_list/>
  <catalytic_activity>a = b</catalytic_activity>
  <cofactor_list><cofactor code="CU">Copper</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, OptionalPartsMayBeAbsent) {
  // catalytic_activity* and cofactor_list? can both be missing.
  EXPECT_TRUE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1.1.1.1</enzyme_id>
  <enzyme_description>one</enzyme_description>
  <alternate_name_list/>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, MissingRequiredChildFails) {
  std::vector<std::string> errors;
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1.1.1.1</enzyme_id>
  <alternate_name_list/>
</db_entry></hlx_enzyme>)",
                     &errors));
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("do not match model"), std::string::npos);
}

TEST_F(DtdValidatorTest, WrongOrderFails) {
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_description>one</enzyme_description>
  <enzyme_id>1.1.1.1</enzyme_id>
  <alternate_name_list/>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, UndeclaredElementFails) {
  std::vector<std::string> errors;
  EXPECT_FALSE(Valid("<mystery/>", &errors));
  EXPECT_NE(errors[0].find("undeclared element"), std::string::npos);
}

TEST_F(DtdValidatorTest, TextInsideElementContentFails) {
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>stray text<enzyme_id>1</enzyme_id>
  <enzyme_description>d</enzyme_description><alternate_name_list/>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, ElementInsidePcdataFails) {
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id><alternate_name/></enzyme_id>
  <enzyme_description>d</enzyme_description><alternate_name_list/>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, AttributeChecks) {
  std::vector<std::string> errors;
  // Missing #REQUIRED code.
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1</enzyme_id><enzyme_description>d</enzyme_description>
  <alternate_name_list/>
  <cofactor_list><cofactor>Cu</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)",
                     &errors));
  EXPECT_NE(errors.back().find("required attribute"), std::string::npos);
  // Enum violation.
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1</enzyme_id><enzyme_description>d</enzyme_description>
  <alternate_name_list/>
  <cofactor_list><cofactor code="CU" role="tertiary">x</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)"));
  // NMTOKEN violation (space inside).
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1</enzyme_id><enzyme_description>d</enzyme_description>
  <alternate_name_list/>
  <cofactor_list><cofactor code="C U">x</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)"));
  // Fixed value violation.
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1</enzyme_id><enzyme_description>d</enzyme_description>
  <alternate_name_list/>
  <cofactor_list><cofactor code="CU" fixed_val="other">x</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)"));
  // Undeclared attribute.
  EXPECT_FALSE(Valid(R"(
<hlx_enzyme><db_entry>
  <enzyme_id>1</enzyme_id><enzyme_description>d</enzyme_description>
  <alternate_name_list/>
  <cofactor_list><cofactor code="CU" bogus="1">x</cofactor></cofactor_list>
</db_entry></hlx_enzyme>)"));
}

TEST_F(DtdValidatorTest, CollectsMultipleErrors) {
  std::vector<std::string> errors;
  Valid("<hlx_enzyme><db_entry><unknown1/><unknown2/></db_entry></hlx_enzyme>",
        &errors);
  EXPECT_GE(errors.size(), 2u);
}

// Content-model matching corner cases exercised through tiny DTDs.
struct ModelCase {
  const char* model;
  const char* children;  // comma-separated child names, "" = none
  bool valid;
};

// Names each case by its content, which also makes its ctest name stable;
// gtest would otherwise print the struct's raw bytes, pointers included.
void PrintTo(const ModelCase& c, std::ostream* os) {
  *os << c.model << " with "
      << (c.children[0] == '\0' ? "no children" : c.children)
      << (c.valid ? " is valid" : " is invalid");
}

class ContentModelTest : public ::testing::TestWithParam<ModelCase> {};

TEST_P(ContentModelTest, Matches) {
  const ModelCase& c = GetParam();
  std::string dtd_text = std::string("<!ELEMENT r ") + c.model + ">";
  for (const char* name : {"a", "b", "c"}) {
    dtd_text += std::string("\n<!ELEMENT ") + name + " (#PCDATA)>";
  }
  Dtd dtd = MustParse(dtd_text);
  std::string xml_text = "<r>";
  if (c.children[0] != '\0') {
    for (const std::string& name :
         common::Split(c.children, ',')) {
      xml_text += "<" + name + "/>";
    }
  }
  xml_text += "</r>";
  auto doc = ParseXml(xml_text);
  ASSERT_TRUE(doc.ok());
  std::vector<std::string> errors;
  EXPECT_EQ(dtd.Validate(*doc, &errors), c.valid)
      << c.model << " vs " << c.children << ": "
      << (errors.empty() ? "" : errors[0]);
}

INSTANTIATE_TEST_SUITE_P(
    Cases, ContentModelTest,
    ::testing::Values(
        ModelCase{"(a, b)", "a,b", true},
        ModelCase{"(a, b)", "a", false},
        ModelCase{"(a, b)", "b,a", false},
        ModelCase{"(a | b)", "a", true},
        ModelCase{"(a | b)", "b", true},
        ModelCase{"(a | b)", "c", false},
        ModelCase{"(a*)", "", true},
        ModelCase{"(a*)", "a,a,a", true},
        ModelCase{"(a+)", "", false},
        ModelCase{"(a+)", "a,a", true},
        ModelCase{"(a?, b)", "b", true},
        ModelCase{"(a?, b)", "a,b", true},
        ModelCase{"(a?, b)", "a,a,b", false},
        ModelCase{"((a | b)*, c)", "a,b,b,a,c", true},
        ModelCase{"((a | b)*, c)", "c", true},
        ModelCase{"((a | b)*, c)", "a,c,b", false},
        ModelCase{"((a, b)+)", "a,b,a,b", true},
        ModelCase{"((a, b)+)", "a,b,a", false},
        ModelCase{"((a?)*)", "", true},       // empty-matching star must
        ModelCase{"((a?)*)", "a,a", true},    // terminate
        ModelCase{"(a, (b | c)+)", "a,b,c,b", true},
        ModelCase{"(a, (b | c)+)", "a", false}));

TEST(DtdTreeTest, FormatTreeShowsStructure) {
  Dtd dtd = MustParse(kEnzymeDtd);
  std::string tree = dtd.FormatTree("hlx_enzyme");
  EXPECT_EQ(tree.find("hlx_enzyme"), 0u);
  EXPECT_NE(tree.find("+- db_entry"), std::string::npos) << tree;
  EXPECT_NE(tree.find("enzyme_id (#PCDATA)"), std::string::npos) << tree;
  EXPECT_NE(tree.find("@code"), std::string::npos) << tree;
  EXPECT_EQ(dtd.FormatTree("nonexistent"), "(unknown element nonexistent)\n");
}

TEST(DtdTreeTest, RecursiveModelsDoNotLoop) {
  Dtd dtd = MustParse(R"(
<!ELEMENT tree (leaf | tree)*>
<!ELEMENT leaf (#PCDATA)>
)");
  std::string out = dtd.FormatTree("tree");
  EXPECT_FALSE(out.empty());
  EXPECT_LT(out.size(), 10000u);
}

}  // namespace
}  // namespace xomatiq::xml
