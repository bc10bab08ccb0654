#include <gtest/gtest.h>

#include "src/xml/parser.h"
#include "src/xml/serializer.h"
#include "tests/test_util.h"

namespace xpe::xml {
namespace {

using test::MustParse;

TEST(XmlParserTest, MinimalDocument) {
  Document doc = MustParse("<a/>");
  ASSERT_EQ(doc.size(), 2u);  // root + <a>
  EXPECT_EQ(doc.kind(0), NodeKind::kRoot);
  EXPECT_EQ(doc.kind(1), NodeKind::kElement);
  EXPECT_EQ(doc.name(1), "a");
  EXPECT_EQ(doc.parent(1), 0u);
}

TEST(XmlParserTest, NestedElements) {
  Document doc = MustParse("<a><b><c/></b><d/></a>");
  ASSERT_EQ(doc.size(), 5u);
  EXPECT_EQ(doc.name(1), "a");
  EXPECT_EQ(doc.name(2), "b");
  EXPECT_EQ(doc.name(3), "c");
  EXPECT_EQ(doc.name(4), "d");
  EXPECT_EQ(doc.parent(3), 2u);
  EXPECT_EQ(doc.next_sibling(2), 4u);
  EXPECT_EQ(doc.prev_sibling(4), 2u);
  EXPECT_EQ(doc.subtree_end(2), 4u);
  EXPECT_EQ(doc.subtree_end(1), 5u);
}

TEST(XmlParserTest, TextContent) {
  Document doc = MustParse("<a>hello</a>");
  ASSERT_EQ(doc.size(), 3u);
  EXPECT_EQ(doc.kind(2), NodeKind::kText);
  EXPECT_EQ(doc.content(2), "hello");
  EXPECT_EQ(doc.StringValue(1), "hello");
}

TEST(XmlParserTest, MixedContent) {
  Document doc = MustParse("<a>x<b>y</b>z</a>");
  EXPECT_EQ(doc.StringValue(1), "xyz");
  EXPECT_EQ(doc.StringValue(0), "xyz");
}

TEST(XmlParserTest, Attributes) {
  Document doc = MustParse("<a x=\"1\" y='two'/>");
  EXPECT_EQ(doc.AttrEnd(1) - doc.AttrBegin(1), 2u);
  EXPECT_EQ(*doc.Attribute(1, "x"), "1");
  EXPECT_EQ(*doc.Attribute(1, "y"), "two");
  EXPECT_FALSE(doc.Attribute(1, "z").has_value());
  EXPECT_EQ(doc.kind(2), NodeKind::kAttribute);
  EXPECT_EQ(doc.parent(2), 1u);
}

TEST(XmlParserTest, AttributeValueNormalization) {
  // Tabs/newlines in attribute values become spaces.
  Document doc = MustParse("<a x=\"1\t2\n3\"/>");
  EXPECT_EQ(*doc.Attribute(1, "x"), "1 2 3");
}

TEST(XmlParserTest, PredefinedEntities) {
  Document doc = MustParse("<a>&lt;&gt;&amp;&apos;&quot;</a>");
  EXPECT_EQ(doc.StringValue(1), "<>&'\"");
}

TEST(XmlParserTest, NumericCharacterReferences) {
  Document doc = MustParse("<a>&#65;&#x42;&#xe9;</a>");
  EXPECT_EQ(doc.StringValue(1), "AB\xC3\xA9");  // A B é(UTF-8)
}

TEST(XmlParserTest, EntitiesInAttributes) {
  Document doc = MustParse("<a x=\"&lt;&amp;&quot;\"/>");
  EXPECT_EQ(*doc.Attribute(1, "x"), "<&\"");
}

TEST(XmlParserTest, CData) {
  Document doc = MustParse("<a><![CDATA[<not>&parsed;]]></a>");
  EXPECT_EQ(doc.StringValue(1), "<not>&parsed;");
}

TEST(XmlParserTest, CDataJoinsAdjacentText) {
  Document doc = MustParse("<a>x<![CDATA[y]]>z</a>");
  ASSERT_EQ(doc.size(), 3u);  // one coalesced text node
  EXPECT_EQ(doc.content(2), "xyz");
}

TEST(XmlParserTest, Comments) {
  Document doc = MustParse("<a><!-- hi --><b/></a>");
  EXPECT_EQ(doc.kind(2), NodeKind::kComment);
  EXPECT_EQ(doc.content(2), " hi ");
  // Comments do not contribute to string-value.
  EXPECT_EQ(doc.StringValue(1), "");
}

TEST(XmlParserTest, ProcessingInstructions) {
  Document doc = MustParse("<a><?php echo 1; ?></a>");
  EXPECT_EQ(doc.kind(2), NodeKind::kProcessingInstruction);
  EXPECT_EQ(doc.name(2), "php");
  EXPECT_EQ(doc.content(2), "echo 1; ");
}

TEST(XmlParserTest, XmlDeclarationAndDoctype) {
  Document doc = MustParse(
      "<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n"
      "<!DOCTYPE a [<!ELEMENT a ANY>]>\n"
      "<a/>");
  EXPECT_EQ(doc.size(), 2u);
}

TEST(XmlParserTest, PrologAndTailComments) {
  Document doc = MustParse("<!--pre--><a/><!--post-->");
  // Prolog/tail comments become children of the root.
  EXPECT_EQ(doc.kind(1), NodeKind::kComment);
  EXPECT_EQ(doc.kind(2), NodeKind::kElement);
  EXPECT_EQ(doc.kind(3), NodeKind::kComment);
}

TEST(XmlParserTest, WhitespacePreserveVsDiscard) {
  const char* text = "<a>\n  <b/>\n</a>";
  Document keep = MustParse(text);
  EXPECT_EQ(keep.size(), 5u);  // root, a, text, b, text
  ParseOptions discard;
  discard.whitespace = WhitespaceMode::kDiscard;
  Document drop = MustParse(text, discard);
  EXPECT_EQ(drop.size(), 3u);  // root, a, b
}

TEST(XmlParserTest, IdIndexFromIdAttributes) {
  Document doc = MustParse("<a id=\"10\"><b id=\"11\"/></a>");
  EXPECT_EQ(*doc.GetElementById("10"), 1u);
  auto b = doc.GetElementById("11");
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(doc.name(*b), "b");
  EXPECT_FALSE(doc.GetElementById("99").has_value());
}

TEST(XmlParserTest, CustomIdAttributeName) {
  ParseOptions options;
  options.id_attribute_name = "key";
  Document doc = MustParse("<a key=\"k1\" id=\"ignored\"/>", options);
  EXPECT_TRUE(doc.GetElementById("k1").has_value());
  EXPECT_FALSE(doc.GetElementById("ignored").has_value());
}

TEST(XmlParserTest, DerefIdsSplitsOnWhitespace) {
  Document doc = MustParse("<a id=\"x\"><b id=\"y\"/><c id=\"z\"/></a>");
  std::vector<NodeId> nodes = doc.DerefIds(" z \n x x ");
  ASSERT_EQ(nodes.size(), 2u);  // deduplicated, document order
  EXPECT_EQ(doc.name(nodes[0]), "a");
  EXPECT_EQ(doc.name(nodes[1]), "c");
}

TEST(XmlParserTest, Utf8Passthrough) {
  Document doc = MustParse("<a>grüße ≤ ≥</a>");
  EXPECT_EQ(doc.StringValue(1), "grüße ≤ ≥");
}

TEST(XmlParserTest, BomIsSkipped) {
  Document doc = MustParse("\xEF\xBB\xBF<a/>");
  EXPECT_EQ(doc.size(), 2u);
}

TEST(XmlParserTest, DeepNesting) {
  std::string text;
  for (int i = 0; i < 500; ++i) text += "<d>";
  for (int i = 0; i < 500; ++i) text += "</d>";
  Document doc = MustParse(text);
  EXPECT_EQ(doc.size(), 501u);
}

// --- Malformed documents ----------------------------------------------------

struct BadXmlCase {
  const char* name;
  const char* text;
};

class XmlParserErrorTest : public testing::TestWithParam<BadXmlCase> {};

TEST_P(XmlParserErrorTest, IsRejected) {
  StatusOr<Document> doc = Parse(GetParam().text);
  EXPECT_FALSE(doc.ok()) << "accepted: " << GetParam().text;
  if (!doc.ok()) {
    EXPECT_EQ(doc.status().code(), StatusCode::kParseError);
    EXPECT_GT(doc.status().column(), 0);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Malformed, XmlParserErrorTest,
    testing::Values(
        BadXmlCase{"Empty", ""},
        BadXmlCase{"TextOnly", "just text"},
        BadXmlCase{"UnclosedTag", "<a>"},
        BadXmlCase{"MismatchedTags", "<a></b>"},
        BadXmlCase{"CrossedTags", "<a><b></a></b>"},
        BadXmlCase{"TwoRoots", "<a/><b/>"},
        BadXmlCase{"TextAfterRoot", "<a/>tail"},
        BadXmlCase{"UnquotedAttr", "<a x=1/>"},
        BadXmlCase{"DuplicateAttr", "<a x=\"1\" x=\"2\"/>"},
        BadXmlCase{"MissingAttrEquals", "<a x\"1\"/>"},
        BadXmlCase{"LtInAttr", "<a x=\"<\"/>"},
        BadXmlCase{"UnknownEntity", "<a>&nope;</a>"},
        BadXmlCase{"BareAmp", "<a>a & b</a>"},
        BadXmlCase{"BadCharRef", "<a>&#xZZ;</a>"},
        BadXmlCase{"HugeCharRef", "<a>&#x110000;</a>"},
        BadXmlCase{"NulCharRef", "<a>&#0;</a>"},
        BadXmlCase{"UnterminatedComment", "<a><!-- x</a>"},
        BadXmlCase{"DoubleDashComment", "<a><!-- a -- b --></a>"},
        BadXmlCase{"UnterminatedCData", "<a><![CDATA[x</a>"},
        BadXmlCase{"CDataCloseInText", "<a>]]></a>"},
        BadXmlCase{"UnterminatedPi", "<a><?pi x</a>"},
        BadXmlCase{"PiNamedXml", "<a><?xml ?></a>"},
        BadXmlCase{"UnterminatedDoctype", "<!DOCTYPE a <a/>"},
        BadXmlCase{"BadName", "<1a/>"},
        BadXmlCase{"SpaceBeforeName", "< a/>"},
        BadXmlCase{"EofInAttrValue", "<a x=\"1"},
        BadXmlCase{"EofAfterAttrEquals", "<a x="},
        BadXmlCase{"EofAfterAttrEqualsSpace", "<a x= "}),
    [](const testing::TestParamInfo<BadXmlCase>& info) {
      return info.param.name;
    });

// --- Serializer round-trips -------------------------------------------------

TEST(SerializerTest, RoundTripsCompact) {
  const char* text =
      "<a id=\"1\"><b>text &amp; more</b><c x=\"&quot;q&quot;\"/>"
      "<!--note--><?pi data?></a>";
  Document doc = MustParse(text);
  const std::string out = Serialize(doc);
  Document again = MustParse(out);
  EXPECT_EQ(Serialize(again), out);
  EXPECT_EQ(again.size(), doc.size());
}

TEST(SerializerTest, EscapesTextAndAttributes) {
  EXPECT_EQ(EscapeText("a<b>&c"), "a&lt;b&gt;&amp;c");
  EXPECT_EQ(EscapeAttribute("say \"hi\" & <go>"),
            "say &quot;hi&quot; &amp; &lt;go>");
}

TEST(SerializerTest, EmptyElementUsesSelfClosing) {
  Document doc = MustParse("<a><b></b></a>");
  EXPECT_EQ(Serialize(doc), "<a><b/></a>");
}

TEST(SerializerTest, PrettyPrintSkipsMixedContent) {
  Document doc = MustParse("<a><b>keep me</b><c/></a>");
  SerializeOptions options;
  options.indent = "  ";
  const std::string out = Serialize(doc, options);
  EXPECT_NE(out.find("<b>keep me</b>"), std::string::npos);
  EXPECT_NE(out.find("\n  <c/>"), std::string::npos);
}

TEST(SerializerTest, XmlDeclaration) {
  Document doc = MustParse("<a/>");
  SerializeOptions options;
  options.xml_declaration = true;
  EXPECT_EQ(Serialize(doc, options), "<?xml version=\"1.0\"?><a/>");
}

TEST(SerializerTest, PaperDocumentRoundTrip) {
  Document doc = xml::MakePaperDocument();
  Document again = MustParse(Serialize(doc));
  EXPECT_EQ(again.size(), doc.size());
  EXPECT_EQ(Serialize(again), Serialize(doc));
}

}  // namespace
}  // namespace xpe::xml
