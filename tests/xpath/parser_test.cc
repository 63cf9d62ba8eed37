#include "xpath/parser.h"

#include <gtest/gtest.h>

namespace vitex::xpath {
namespace {

Path MustParse(std::string_view q) {
  auto r = ParseXPath(q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status();
  return std::move(r).value();
}

TEST(ParserTest, SingleChildStep) {
  Path p = MustParse("/a");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_TRUE(p.absolute);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[0].test, NodeTestKind::kName);
  EXPECT_EQ(p.steps[0].name, "a");
}

TEST(ParserTest, SingleDescendantStep) {
  Path p = MustParse("//a");
  ASSERT_EQ(p.steps.size(), 1u);
  EXPECT_EQ(p.steps[0].axis, Axis::kDescendant);
}

TEST(ParserTest, MixedAxes) {
  Path p = MustParse("/a//b/c");
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].axis, Axis::kChild);
  EXPECT_EQ(p.steps[1].axis, Axis::kDescendant);
  EXPECT_EQ(p.steps[2].axis, Axis::kChild);
}

TEST(ParserTest, Wildcard) {
  Path p = MustParse("//*");
  EXPECT_EQ(p.steps[0].test, NodeTestKind::kWildcard);
}

TEST(ParserTest, AttributeStep) {
  Path p = MustParse("//a/@id");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, Axis::kAttribute);
  EXPECT_EQ(p.steps[1].name, "id");
  EXPECT_FALSE(p.steps[1].descendant_attribute);
}

TEST(ParserTest, DescendantAttributeStep) {
  Path p = MustParse("//a//@id");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].axis, Axis::kAttribute);
  EXPECT_TRUE(p.steps[1].descendant_attribute);
}

TEST(ParserTest, AttributeWildcard) {
  Path p = MustParse("//a/@*");
  EXPECT_EQ(p.steps[1].test, NodeTestKind::kWildcard);
}

TEST(ParserTest, TextStep) {
  Path p = MustParse("//a/text()");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[1].test, NodeTestKind::kText);
}

TEST(ParserTest, ElementNamedTextWithoutParens) {
  Path p = MustParse("//text");
  EXPECT_EQ(p.steps[0].test, NodeTestKind::kName);
  EXPECT_EQ(p.steps[0].name, "text");
}

TEST(ParserTest, PaperQueryStructure) {
  Path p = MustParse("//section[author]//table[position]//cell");
  ASSERT_EQ(p.steps.size(), 3u);
  EXPECT_EQ(p.steps[0].name, "section");
  ASSERT_EQ(p.steps[0].predicates.size(), 1u);
  EXPECT_EQ(p.steps[0].predicates[0]->kind, PredExpr::Kind::kPath);
  EXPECT_EQ(p.steps[0].predicates[0]->path.steps[0].name, "author");
  EXPECT_EQ(p.steps[2].name, "cell");
  EXPECT_TRUE(p.steps[2].predicates.empty());
}

TEST(ParserTest, ProteinQuery) {
  Path p = MustParse("//ProteinEntry[reference]/@id");
  ASSERT_EQ(p.steps.size(), 2u);
  EXPECT_EQ(p.steps[0].name, "ProteinEntry");
  EXPECT_EQ(p.steps[1].axis, Axis::kAttribute);
}

TEST(ParserTest, MultiplePredicatesOnOneStep) {
  Path p = MustParse("//a[b][c]");
  ASSERT_EQ(p.steps[0].predicates.size(), 2u);
}

TEST(ParserTest, PredicateWithNestedPath) {
  Path p = MustParse("//a[b/c//d]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  ASSERT_EQ(pred.path.steps.size(), 3u);
  EXPECT_EQ(pred.path.steps[0].axis, Axis::kChild);
  EXPECT_EQ(pred.path.steps[2].axis, Axis::kDescendant);
}

TEST(ParserTest, PredicateLeadingDoubleSlashIsRelative) {
  Path p = MustParse("//a[//b]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_FALSE(pred.path.absolute);
  EXPECT_EQ(pred.path.steps[0].axis, Axis::kDescendant);
}

TEST(ParserTest, PredicateDotSlashPath) {
  Path p = MustParse("//a[./b]");
  EXPECT_EQ(p.steps[0].predicates[0]->path.steps[0].name, "b");
  Path p2 = MustParse("//a[.//b]");
  EXPECT_EQ(p2.steps[0].predicates[0]->path.steps[0].axis, Axis::kDescendant);
}

TEST(ParserTest, ValueComparisonString) {
  Path p = MustParse("//a[b = 'x']");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, PredExpr::Kind::kCompare);
  EXPECT_EQ(pred.op, CompareOp::kEq);
  EXPECT_EQ(pred.literal, "x");
  EXPECT_FALSE(pred.literal_is_number);
}

TEST(ParserTest, ValueComparisonNumber) {
  Path p = MustParse("//a[b > 10]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.op, CompareOp::kGt);
  EXPECT_TRUE(pred.literal_is_number);
  EXPECT_DOUBLE_EQ(pred.number, 10.0);
}

TEST(ParserTest, SelfComparison) {
  Path p = MustParse("//a[. = 'x']");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, PredExpr::Kind::kCompare);
  EXPECT_TRUE(pred.path.steps.empty());
}

TEST(ParserTest, AttributeComparison) {
  Path p = MustParse("//a[@id = 'x7']");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.path.steps[0].axis, Axis::kAttribute);
  EXPECT_EQ(pred.path.steps[0].name, "id");
}

TEST(ParserTest, TextComparison) {
  Path p = MustParse("//a[text() = 'x']");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.path.steps[0].test, NodeTestKind::kText);
}

TEST(ParserTest, LiteralFirstComparisonNormalized) {
  // '5 < b' must become 'b > 5'.
  Path p = MustParse("//a[5 < b]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, PredExpr::Kind::kCompare);
  EXPECT_EQ(pred.op, CompareOp::kGt);
  EXPECT_EQ(pred.path.steps[0].name, "b");
  EXPECT_DOUBLE_EQ(pred.number, 5.0);
}

TEST(ParserTest, AndOrNot) {
  Path p = MustParse("//a[b and c or not(d)]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  // 'and' binds tighter than 'or'.
  EXPECT_EQ(pred.kind, PredExpr::Kind::kOr);
  EXPECT_EQ(pred.left->kind, PredExpr::Kind::kAnd);
  EXPECT_EQ(pred.right->kind, PredExpr::Kind::kNot);
}

TEST(ParserTest, ParenthesesOverridePrecedence) {
  Path p = MustParse("//a[b and (c or d)]");
  const PredExpr& pred = *p.steps[0].predicates[0];
  EXPECT_EQ(pred.kind, PredExpr::Kind::kAnd);
  EXPECT_EQ(pred.right->kind, PredExpr::Kind::kOr);
}

TEST(ParserTest, NotIsNameUnlessCalled) {
  // An element named 'not' is legal.
  Path p = MustParse("//not");
  EXPECT_EQ(p.steps[0].name, "not");
}

TEST(ParserTest, NestedPredicates) {
  Path p = MustParse("//a[b[c]]");
  const PredExpr& outer = *p.steps[0].predicates[0];
  ASSERT_EQ(outer.path.steps.size(), 1u);
  ASSERT_EQ(outer.path.steps[0].predicates.size(), 1u);
  EXPECT_EQ(outer.path.steps[0].predicates[0]->path.steps[0].name, "c");
}

TEST(ParserTest, RoundTripToString) {
  const char* queries[] = {
      "//section[author]//table[position]//cell",
      "/a/b/c",
      "//a[b = 'x']",
      "//ProteinEntry[reference]/@id",
      "//a[not(b)]",
      "//a/text()",
  };
  for (const char* q : queries) {
    Path p1 = MustParse(q);
    std::string rendered = PathToString(p1);
    Path p2 = MustParse(rendered);
    EXPECT_EQ(PathToString(p2), rendered) << q;
  }
}

TEST(ParserTest, UnionBranchCountAndIntrospection) {
  auto branches = ParseXPathUnion("//a | //b[c]//d");
  ASSERT_TRUE(branches.ok()) << branches.status();
  ASSERT_EQ(branches->size(), 2u);
  EXPECT_EQ(PathToString((*branches)[0]), "//a");
  ASSERT_EQ((*branches)[1].steps.size(), 2u);
  EXPECT_EQ((*branches)[1].steps[0].predicates.size(), 1u);
  // A plain path is a one-branch union; ParseXPath accepts only that.
  auto single = ParseXPathUnion("//a");
  ASSERT_TRUE(single.ok());
  EXPECT_EQ(single->size(), 1u);
  Status rejected = ParseXPath("//a | //b").status();
  EXPECT_TRUE(rejected.IsParseError());
  EXPECT_NE(rejected.message().find("MultiQueryEngine"), std::string::npos);
}

// --- Errors -----------------------------------------------------------------

TEST(ParserErrorTest, MustStartWithSlash) {
  EXPECT_TRUE(ParseXPath("a/b").status().IsParseError());
}

TEST(ParserErrorTest, EmptyQuery) {
  EXPECT_TRUE(ParseXPath("").status().IsParseError());
  EXPECT_TRUE(ParseXPath("/").status().IsParseError());
}

TEST(ParserErrorTest, TrailingGarbage) {
  EXPECT_TRUE(ParseXPath("//a]").status().IsParseError());
  EXPECT_TRUE(ParseXPath("//a b").status().IsParseError());
}

TEST(ParserErrorTest, StepsAfterAttribute) {
  EXPECT_TRUE(ParseXPath("//a/@id/b").status().IsParseError());
}

TEST(ParserErrorTest, StepsAfterText) {
  EXPECT_TRUE(ParseXPath("//a/text()/b").status().IsParseError());
}

TEST(ParserErrorTest, PredicateOnText) {
  EXPECT_TRUE(ParseXPath("//a/text()[b]").status().IsParseError());
}

TEST(ParserErrorTest, AbsolutePathInPredicate) {
  EXPECT_TRUE(ParseXPath("//a[/b]").status().IsParseError());
}

TEST(ParserErrorTest, UnclosedPredicate) {
  EXPECT_TRUE(ParseXPath("//a[b").status().IsParseError());
}

TEST(ParserErrorTest, ComparisonNeedsLiteralRhs) {
  EXPECT_TRUE(ParseXPath("//a[b = c]").status().IsParseError());
}

TEST(ParserErrorTest, BareDotPredicate) {
  EXPECT_TRUE(ParseXPath("//a[.]").status().IsParseError());
}

TEST(ParserErrorTest, MissingAttributeName) {
  EXPECT_TRUE(ParseXPath("//a/@").status().IsParseError());
  EXPECT_TRUE(ParseXPath("//a/@[b]").status().IsParseError());
}

}  // namespace
}  // namespace vitex::xpath
