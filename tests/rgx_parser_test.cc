// Parser + printer tests, including round-trip properties.
#include <gtest/gtest.h>

#include <string>

#include "rgx/analysis.h"
#include "rgx/ast.h"
#include "rgx/parser.h"
#include "rgx/printer.h"

namespace spanners {
namespace {

RgxPtr MustParse(std::string_view p) {
  Result<RgxPtr> r = ParseRgx(p);
  EXPECT_TRUE(r.ok()) << p << " -> " << r.status().ToString();
  return r.ValueOrDie();
}

/// `open` + `n` × "(" + `core` + `n` × ")" + `close`.
std::string Nested(size_t n, const std::string& open, const std::string& core,
                   const std::string& close) {
  return open + std::string(n, '(') + core + std::string(n, ')') + close;
}

/// Parsing must fail with InvalidArgument naming the nesting limit — not
/// overflow the stack.
void ExpectTooDeep(const std::string& pattern) {
  Result<RgxPtr> r = ParseRgx(pattern);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(r.status().message().find("nests deeper than"), std::string::npos)
      << r.status().ToString();
}

TEST(RgxParserTest, Literal) {
  RgxPtr e = MustParse("a");
  EXPECT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_TRUE(e->chars().Contains('a'));
  EXPECT_EQ(e->chars().size(), 1u);
}

TEST(RgxParserTest, EmptyPatternIsEpsilon) {
  EXPECT_EQ(MustParse("")->kind(), RgxKind::kEpsilon);
  EXPECT_EQ(MustParse("\\e")->kind(), RgxKind::kEpsilon);
}

TEST(RgxParserTest, ConcatFlattens) {
  RgxPtr e = MustParse("abc");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->children().size(), 3u);
}

TEST(RgxParserTest, DisjunctionAndPrecedence) {
  RgxPtr e = MustParse("ab|c");
  ASSERT_EQ(e->kind(), RgxKind::kDisj);
  EXPECT_EQ(e->children().size(), 2u);
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kConcat);
}

TEST(RgxParserTest, StarBindsTightest) {
  RgxPtr e = MustParse("ab*");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->child(1)->kind(), RgxKind::kStar);
}

TEST(RgxParserTest, PlusAndOptionalDesugar) {
  RgxPtr plus = MustParse("a+");
  ASSERT_EQ(plus->kind(), RgxKind::kConcat);
  EXPECT_EQ(plus->child(1)->kind(), RgxKind::kStar);

  RgxPtr opt = MustParse("a?");
  ASSERT_EQ(opt->kind(), RgxKind::kDisj);
  EXPECT_EQ(opt->child(1)->kind(), RgxKind::kEpsilon);
}

TEST(RgxParserTest, Variable) {
  RgxPtr e = MustParse("x{a*}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  EXPECT_EQ(Variable::Name(e->var()), "x");
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kStar);
}

TEST(RgxParserTest, MultiCharVariableName) {
  RgxPtr e = MustParse("tax_2024{b}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  EXPECT_EQ(Variable::Name(e->var()), "tax_2024");
}

TEST(RgxParserTest, IdentNotFollowedByBraceIsLiteralChars) {
  // "ab" is two letters, not a variable.
  RgxPtr e = MustParse("ab");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_EQ(e->child(0)->kind(), RgxKind::kChars);
}

TEST(RgxParserTest, NestedVariables) {
  RgxPtr e = MustParse("x{a y{b} c}");
  ASSERT_EQ(e->kind(), RgxKind::kVar);
  ASSERT_EQ(e->child(0)->kind(), RgxKind::kConcat);
}

TEST(RgxParserTest, DotIsFullAlphabet) {
  RgxPtr e = MustParse(".");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_EQ(e->chars(), CharSet::Any());
}

TEST(RgxParserTest, CharClassWithRange) {
  RgxPtr e = MustParse("[a-c_]");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_TRUE(e->chars().Contains('a'));
  EXPECT_TRUE(e->chars().Contains('b'));
  EXPECT_TRUE(e->chars().Contains('c'));
  EXPECT_TRUE(e->chars().Contains('_'));
  EXPECT_FALSE(e->chars().Contains('d'));
}

TEST(RgxParserTest, NegatedCharClass) {
  // The paper's (Σ − {,}) idiom.
  RgxPtr e = MustParse("[^,]");
  ASSERT_EQ(e->kind(), RgxKind::kChars);
  EXPECT_FALSE(e->chars().Contains(','));
  EXPECT_TRUE(e->chars().Contains('a'));
}

TEST(RgxParserTest, PaperSellerExample) {
  // Σ* · "Seller: " · x{(Σ−{,})*} · "," · Σ*  from §3.1.
  RgxPtr e = MustParse(".*Seller: (x{[^,]*}),.*");
  EXPECT_TRUE(RgxVars(e).Contains(Variable::Intern("x")));
  EXPECT_TRUE(IsSequential(e));
  EXPECT_TRUE(IsFunctional(e));
}

TEST(RgxParserTest, Escapes) {
  RgxPtr e = MustParse("\\*\\|\\\\\\n");
  ASSERT_EQ(e->kind(), RgxKind::kConcat);
  EXPECT_TRUE(e->child(0)->chars().Contains('*'));
  EXPECT_TRUE(e->child(1)->chars().Contains('|'));
  EXPECT_TRUE(e->child(2)->chars().Contains('\\'));
  EXPECT_TRUE(e->child(3)->chars().Contains('\n'));
}

TEST(RgxParserTest, HexEscape) {
  RgxPtr e = MustParse("\\x41");
  EXPECT_TRUE(e->chars().Contains('A'));
}

TEST(RgxParserTest, ErrorUnbalancedParen) {
  EXPECT_FALSE(ParseRgx("(ab").ok());
  EXPECT_FALSE(ParseRgx("ab)").ok());
  // Nesting past the limit is refused, balanced or not.
  ExpectTooDeep(Nested(20000, "x{", "a", "}"));
  ExpectTooDeep(std::string(20000, '(') + "a");
  ExpectTooDeep(Nested(kMaxNestingDepth, "x{", "a", "}"));
}

TEST(RgxParserTest, ErrorUnbalancedVariableBrace) {
  EXPECT_FALSE(ParseRgx("x{ab").ok());
  EXPECT_FALSE(ParseRgx("ab}").ok());
  std::string deep;
  for (int i = 0; i < 20000; ++i) deep += "v" + std::to_string(i) + "{";
  ExpectTooDeep(deep + "a");
}

TEST(RgxParserTest, ErrorDanglingQuantifier) {
  EXPECT_FALSE(ParseRgx("*a").ok());
  EXPECT_FALSE(ParseRgx("|*").ok());
  // Stacked quantifiers nest the tree without nesting the parser.
  ExpectTooDeep("a" + std::string(50000, '*'));
  ExpectTooDeep("a" + std::string(kMaxNestingDepth, '*'));
}

// The deepest patterns the limit admits still parse, to exactly the limit.
TEST(RgxParserTest, DeepestAcceptedNestingParses) {
  // kMaxNestingDepth open groups/braces (the variable's brace is one).
  RgxPtr groups = MustParse(Nested(kMaxNestingDepth - 1, "x{", "a", "}"));
  EXPECT_EQ(groups->depth(), 2u);
  // A tree exactly kMaxNestingDepth levels deep.
  RgxPtr stars = MustParse("a" + std::string(kMaxNestingDepth - 1, '*'));
  EXPECT_EQ(stars->depth(), kMaxNestingDepth);
  std::string starred_groups = "a";
  for (size_t i = 1; i < kMaxNestingDepth; ++i)
    starred_groups = "(" + starred_groups + ")*";
  EXPECT_EQ(MustParse(starred_groups)->depth(), kMaxNestingDepth);
}

TEST(RgxParserTest, ErrorBadClass) {
  EXPECT_FALSE(ParseRgx("[z-a]").ok());
  EXPECT_FALSE(ParseRgx("[abc").ok());
  EXPECT_FALSE(ParseRgx("[]").ok());
}

TEST(RgxParserTest, ErrorDanglingEscape) {
  EXPECT_FALSE(ParseRgx("ab\\").ok());
}

TEST(RgxParserTest, ErrorMessagesCarryPosition) {
  Result<RgxPtr> r = ParseRgx("ab)");
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().message().find("position 2"), std::string::npos)
      << r.status().ToString();
}

class RoundTripTest : public ::testing::TestWithParam<const char*> {};

TEST_P(RoundTripTest, ParsePrintParse) {
  RgxPtr once = MustParse(GetParam());
  std::string printed = ToPattern(once);
  RgxPtr twice = MustParse(printed);
  EXPECT_TRUE(RgxNode::Equals(once, twice))
      << GetParam() << " printed as " << printed;
}

INSTANTIATE_TEST_SUITE_P(
    Patterns, RoundTripTest,
    ::testing::Values(
        "a", "", "\\e", "abc", "a|b", "a|b|c", "(a|b)c", "a*", "(ab)*",
        "(a|b)*", "a**", "x{a*}", "x{y{a}b}", "a+b?", ".", "[a-z]", "[^,]",
        "ax{b}",  // literal then variable: needs parens when printed
        ".*Seller: (x{[^,]*}),.*",
        "x{(a|b)*}|y{(a|b)*}",
        "(x{.*}|y{.*})(z{.*}|w{.*})",
        "\\*\\|\\\\\\n\\x41",
        "a(x{b})(y{c})d"));

TEST(RgxPrinterTest, VariableAfterLiteralIsParenthesised) {
  RgxPtr e = RgxNode::Concat(RgxNode::Lit('a'),
                             RgxNode::Var("x", RgxNode::Lit('b')));
  std::string p = ToPattern(e);
  RgxPtr back = MustParse(p);
  EXPECT_TRUE(RgxNode::Equals(e, back)) << p;
}

}  // namespace
}  // namespace spanners
