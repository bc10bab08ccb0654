// Behavioural tests of the effective semantics function F (Figure 1 plus
// the string/number library of [18]), exercised through full query
// evaluation so every conversion path in the engine is covered too.

#include <gtest/gtest.h>

#include <cmath>

#include "tests/test_util.h"

namespace xpe {
namespace {

using test::EvalValue;
using test::MustParse;

class FunctionsTest : public testing::Test {
 protected:
  FunctionsTest()
      : doc_(MustParse(
            "<r><a>1</a><a>2</a><a>3</a>"
            "<s>hello world</s><e/>"
            "<n> 42 </n><neg>-7.5</neg><bad>x1</bad>"
            "<w>  a  b  </w>"
            "<k id=\"k1\">first</k><k id=\"k2\">second</k>"
            "<ref>k2 k1</ref></r>")) {}

  double Num(std::string_view q) {
    Value v = EvalValue(q, doc_);
    EXPECT_EQ(v.type(), ValueType::kNumber) << q;
    return v.number();
  }
  std::string Str(std::string_view q) {
    Value v = EvalValue(q, doc_);
    EXPECT_EQ(v.type(), ValueType::kString) << q;
    return v.string();
  }
  bool Bool(std::string_view q) {
    Value v = EvalValue(q, doc_);
    EXPECT_EQ(v.type(), ValueType::kBoolean) << q;
    return v.boolean();
  }

  xml::Document doc_;
};

// --- Node-set functions -----------------------------------------------------

TEST_F(FunctionsTest, CountAndSum) {
  EXPECT_EQ(Num("count(//a)"), 3);
  EXPECT_EQ(Num("count(//nothing)"), 0);
  EXPECT_EQ(Num("sum(//a)"), 6);
  EXPECT_EQ(Num("sum(//nothing)"), 0);        // empty sum
  EXPECT_TRUE(std::isnan(Num("sum(//e)")));   // strval "" → NaN
  EXPECT_TRUE(std::isnan(Num("sum(//s)")));   // "hello world" → NaN
}

TEST_F(FunctionsTest, IdFunction) {
  EXPECT_EQ(Num("count(id('k1'))"), 1);
  EXPECT_EQ(Num("count(id('k1 k2'))"), 2);
  EXPECT_EQ(Num("count(id('missing'))"), 0);
  // id(nset): the §4 id-axis — uses each node's string-value as keys.
  EXPECT_EQ(Num("count(id(//ref))"), 2);
  EXPECT_EQ(Str("string(id(//ref))"), "first");  // doc order: k1 first
}

TEST_F(FunctionsTest, NameFunctions) {
  EXPECT_EQ(Str("name(//s)"), "s");
  EXPECT_EQ(Str("local-name(//s)"), "s");
  EXPECT_EQ(Str("name(//nothing)"), "");
  EXPECT_EQ(Str("name(/)"), "");  // root has no name
}

// --- String functions --------------------------------------------------------

TEST_F(FunctionsTest, StringConversion) {
  EXPECT_EQ(Str("string(//a)"), "1");          // first node in doc order
  EXPECT_EQ(Str("string(//nothing)"), "");
  EXPECT_EQ(Str("string(12.5)"), "12.5");
  EXPECT_EQ(Str("string(true())"), "true");
  EXPECT_EQ(Str("string(false())"), "false");
  EXPECT_EQ(Str("string(1 div 0)"), "Infinity");
  EXPECT_EQ(Str("string(0 div 0)"), "NaN");
}

TEST_F(FunctionsTest, ConcatAndFriends) {
  EXPECT_EQ(Str("concat('a', 'b', 'c', 'd')"), "abcd");
  EXPECT_EQ(Str("concat(//s, '!')"), "hello world!");
  EXPECT_TRUE(Bool("starts-with(//s, 'hello')"));
  EXPECT_FALSE(Bool("starts-with(//s, 'world')"));
  EXPECT_TRUE(Bool("contains(//s, 'lo wo')"));
  EXPECT_FALSE(Bool("contains(//s, 'xyz')"));
}

TEST_F(FunctionsTest, SubstringFamily) {
  EXPECT_EQ(Str("substring-before(//s, ' ')"), "hello");
  EXPECT_EQ(Str("substring-after(//s, ' ')"), "world");
  EXPECT_EQ(Str("substring(//s, 7)"), "world");
  EXPECT_EQ(Str("substring(//s, 1, 5)"), "hello");
  EXPECT_EQ(Str("substring('12345', 1.5, 2.6)"), "234");
}

TEST_F(FunctionsTest, StringLengthAndNormalize) {
  EXPECT_EQ(Num("string-length(//s)"), 11);
  EXPECT_EQ(Num("string-length('')"), 0);
  EXPECT_EQ(Str("normalize-space(//w)"), "a b");
  EXPECT_EQ(Str("normalize-space('  x  ')"), "x");
  // Zero-argument forms use the context node (here: an <e/> element).
  EXPECT_EQ(Num("count(//e[string-length() = 0])"), 1);
  EXPECT_EQ(Num("count(//s[string-length() = 11])"), 1);
}

TEST_F(FunctionsTest, Translate) {
  EXPECT_EQ(Str("translate('bar', 'abc', 'ABC')"), "BAr");
  EXPECT_EQ(Str("translate('--aaa--', 'abc-', 'ABC')"), "AAA");
}

TEST_F(FunctionsTest, StringOfNumberLocksSection42EdgeCases) {
  // XPath 1.0 §4.2, audited end to end through string(number):
  // both zeros print "0" — including the -0 results of rounding and
  // multiplication, which naive sign propagation would print as "-0".
  EXPECT_EQ(Str("string(0)"), "0");
  EXPECT_EQ(Str("string(-0)"), "0");
  EXPECT_EQ(Str("string(0 * -1)"), "0");
  EXPECT_EQ(Str("string(round(-0.4))"), "0");  // round's [-0.5, 0) window
  // The three specials use exactly these spellings.
  EXPECT_EQ(Str("string(0 div 0)"), "NaN");
  EXPECT_EQ(Str("string(1 div 0)"), "Infinity");
  EXPECT_EQ(Str("string(-1 div 0)"), "-Infinity");
  // Integer-valued doubles print without a decimal point, at any
  // magnitude (the large ones exercise the exponent-expansion path).
  EXPECT_EQ(Str("string(1.0)"), "1");
  EXPECT_EQ(Str("string(-17)"), "-17");
  EXPECT_EQ(Str("string(6 div 3)"), "2");
  EXPECT_EQ(Str("string(100000000000000000000)"), "100000000000000000000");
  // Non-integers print the shortest round-tripping decimal and never
  // exponent notation, however small.
  EXPECT_EQ(Str("string(0.5)"), "0.5");
  EXPECT_EQ(Str("string(-0.5)"), "-0.5");
  EXPECT_EQ(Str("string(1 div 10000000)"), "0.0000001");
}

// --- Boolean functions --------------------------------------------------------

TEST_F(FunctionsTest, BooleanConversion) {
  EXPECT_TRUE(Bool("boolean(//a)"));
  EXPECT_FALSE(Bool("boolean(//nothing)"));
  EXPECT_TRUE(Bool("boolean(1)"));
  EXPECT_FALSE(Bool("boolean(0)"));
  EXPECT_FALSE(Bool("boolean(0 div 0)"));  // NaN
  EXPECT_TRUE(Bool("boolean('x')"));
  EXPECT_FALSE(Bool("boolean('')"));
  EXPECT_TRUE(Bool("not(false())"));
  EXPECT_FALSE(Bool("not(//a)"));
}

// --- Number functions ---------------------------------------------------------

TEST_F(FunctionsTest, NumberConversion) {
  EXPECT_EQ(Num("number(' 42 ')"), 42);
  EXPECT_EQ(Num("number(//n)"), 42);
  EXPECT_EQ(Num("number(//neg)"), -7.5);
  EXPECT_TRUE(std::isnan(Num("number(//bad)")));
  EXPECT_TRUE(std::isnan(Num("number(//nothing)")));
  EXPECT_EQ(Num("number(true())"), 1);
  EXPECT_EQ(Num("number(false())"), 0);
}

TEST_F(FunctionsTest, FloorCeilingRound) {
  EXPECT_EQ(Num("floor(2.7)"), 2);
  EXPECT_EQ(Num("floor(-2.1)"), -3);
  EXPECT_EQ(Num("ceiling(2.1)"), 3);
  EXPECT_EQ(Num("ceiling(-2.7)"), -2);
  EXPECT_EQ(Num("round(2.5)"), 3);
  EXPECT_EQ(Num("round(-2.5)"), -2);
  EXPECT_TRUE(std::isnan(Num("round(0 div 0)")));
}

TEST_F(FunctionsTest, Arithmetic) {
  EXPECT_EQ(Num("1 + 2 * 3"), 7);
  EXPECT_EQ(Num("10 div 4"), 2.5);
  EXPECT_EQ(Num("5 mod 2"), 1);
  EXPECT_EQ(Num("5 mod -2"), 1);    // sign of dividend
  EXPECT_EQ(Num("-5 mod 2"), -1);
  EXPECT_EQ(Num("1.5 mod 0.5"), 0);
  EXPECT_EQ(Num("-3 - -4"), 1);
  EXPECT_TRUE(std::isinf(Num("1 div 0")));
  EXPECT_TRUE(std::isnan(Num("0 div 0")));
}

// --- Comparison dispatch (Figure 1) -----------------------------------------

TEST_F(FunctionsTest, NodeSetVersusNumber) {
  EXPECT_TRUE(Bool("//a = 2"));    // existential
  EXPECT_FALSE(Bool("//a = 4"));
  EXPECT_TRUE(Bool("//a != 2"));   // some node differs — both can hold!
  EXPECT_TRUE(Bool("//a > 2"));
  EXPECT_FALSE(Bool("//a > 3"));
  EXPECT_TRUE(Bool("2 < //a"));
  EXPECT_FALSE(Bool("//nothing = 0"));
  EXPECT_FALSE(Bool("//nothing != 0"));  // empty set: no witness
}

TEST_F(FunctionsTest, NodeSetVersusString) {
  EXPECT_TRUE(Bool("//s = 'hello world'"));
  EXPECT_FALSE(Bool("//s = 'hello'"));
  EXPECT_TRUE(Bool("//a = '2'"));
}

TEST(NodeScalarTestTest, ComparesElementTextAcrossChunks) {
  // strval(m) = "abcdef" arrives in four text nodes, split by a child
  // element and a comment; strval(r) is the same string.
  const xml::Document doc =
      MustParse("<r><m>ab<i>cd</i>e<!--x-->f</m><e/></r>");
  for (EngineKind engine : test::ConformanceEngines()) {
    const char* name = EngineKindToString(engine);
    EXPECT_TRUE(EvalValue("//m = 'abcdef'", doc, engine).boolean()) << name;
    EXPECT_FALSE(EvalValue("//m = 'abcde'", doc, engine).boolean()) << name;
    EXPECT_FALSE(EvalValue("//m = 'abcdefg'", doc, engine).boolean()) << name;
    EXPECT_FALSE(EvalValue("//m = 'abXdef'", doc, engine).boolean()) << name;
    EXPECT_TRUE(EvalValue("'abcde' != //m", doc, engine).boolean()) << name;
    EXPECT_TRUE(EvalValue("//e = ''", doc, engine).boolean()) << name;
    EXPECT_EQ(EvalValue("count(//*[. = 'abcdef'])", doc, engine).number(), 2)
        << name;
  }
}

TEST_F(FunctionsTest, NodeSetVersusNodeSet) {
  // ∃ pair with equal string-values.
  EXPECT_TRUE(Bool("//a = //a"));
  EXPECT_FALSE(Bool("//a = //s"));
  EXPECT_TRUE(Bool("//a < //a"));  // 1 < 3
  EXPECT_FALSE(Bool("//nothing = //a"));
}

TEST_F(FunctionsTest, NodeSetVersusBoolean) {
  EXPECT_TRUE(Bool("//a = true()"));        // non-empty = true
  EXPECT_TRUE(Bool("//nothing = false()"));
  EXPECT_FALSE(Bool("//nothing = true()"));
}

TEST_F(FunctionsTest, ScalarComparisons) {
  EXPECT_TRUE(Bool("1 = 1"));
  EXPECT_FALSE(Bool("1 = 2"));
  EXPECT_TRUE(Bool("'a' = 'a'"));
  EXPECT_FALSE(Bool("'a' = 'b'"));
  EXPECT_TRUE(Bool("true() = 1"));      // boolean dominates equality
  EXPECT_TRUE(Bool("false() = ''"));
  EXPECT_TRUE(Bool("1 = '1'"));         // number dominates string
  EXPECT_TRUE(Bool("'2' > '1'"));       // order ops compare numbers
  EXPECT_FALSE(Bool("'a' < 'b'"));      // NaN comparisons are false
  EXPECT_TRUE(Bool("'a' != 'b'"));
}

TEST_F(FunctionsTest, LangFunction) {
  xml::Document doc = MustParse(
      "<doc xml:lang=\"en\"><para id=\"p1\"/>"
      "<para id=\"p2\" xml:lang=\"en-GB\"/>"
      "<para id=\"p3\" xml:lang=\"DE\"><s id=\"s1\"/></para></doc>");
  // Inherited from <doc>.
  EXPECT_EQ(test::EvalIds("//para[lang('en')]", doc),
            (std::vector<std::string>{"p1", "p2"}));  // en-GB is a sub-lang
  // Case-insensitive.
  EXPECT_EQ(test::EvalIds("//para[lang('de')]", doc),
            (std::vector<std::string>{"p3"}));
  // Nested inheritance.
  EXPECT_EQ(test::EvalIds("//s[lang('de')]", doc),
            (std::vector<std::string>{"s1"}));
  // Sublanguage does not match the other way around.
  EXPECT_EQ(test::EvalIds("//para[lang('en-GB')]", doc),
            (std::vector<std::string>{"p2"}));
  // No xml:lang in scope → false.
  xml::Document bare = MustParse("<a><b id=\"b1\"/></a>");
  EXPECT_TRUE(test::EvalIds("//b[lang('en')]", bare).empty());
}

TEST_F(FunctionsTest, LangAgreesAcrossEngines) {
  xml::Document doc = MustParse(
      "<doc xml:lang=\"en\"><p id=\"a\"/><p id=\"b\" xml:lang=\"fr\"/></doc>");
  for (EngineKind engine : test::ConformanceEngines()) {
    EXPECT_EQ(test::EvalIds("//p[lang('en')]", doc, engine),
              (std::vector<std::string>{"a"}))
        << EngineKindToString(engine);
  }
}

TEST_F(FunctionsTest, NaNNeverEqual) {
  EXPECT_FALSE(Bool("(0 div 0) = (0 div 0)"));
  EXPECT_TRUE(Bool("(0 div 0) != (0 div 0)"));
  EXPECT_FALSE(Bool("(0 div 0) < 1"));
  EXPECT_FALSE(Bool("(0 div 0) > 1"));
}

// --- position()/last() within predicates --------------------------------------

TEST_F(FunctionsTest, PositionalPredicates) {
  EXPECT_EQ(Num("count(//a[position() = 1])"), 1);
  EXPECT_EQ(Num("count(//a[position() < 3])"), 2);
  EXPECT_EQ(Num("count(//a[last()])"), 1);
  EXPECT_EQ(Str("string(//a[last()])"), "3");
  EXPECT_EQ(Str("string(//a[position() = last() - 1])"), "2");
  // Positions are recomputed between predicates.
  EXPECT_EQ(Str("string(//a[position() > 1][1])"), "2");
  EXPECT_EQ(Str("string(//a[position() > 1][position() = last()])"), "3");
}

TEST_F(FunctionsTest, ReverseAxisPositions) {
  // For reverse axes, position counts in reverse document order.
  EXPECT_EQ(Str("string(//a[3]/preceding-sibling::a[1])"), "2");
  EXPECT_EQ(Str("string(//a[3]/preceding-sibling::a[2])"), "1");
  EXPECT_EQ(Str("string(//s/preceding-sibling::a[last()])"), "1");
}

TEST_F(FunctionsTest, WholeQueryContextPositions) {
  // The evaluation context's position/size feed position()/last().
  xpath::CompiledQuery q = test::MustCompile("position() + last()");
  EvalContext ctx;
  ctx.node = 1;
  ctx.position = 3;
  ctx.size = 8;
  StatusOr<Value> v = Evaluate(q, doc_, ctx);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->number(), 11);
}

}  // namespace
}  // namespace xpe
