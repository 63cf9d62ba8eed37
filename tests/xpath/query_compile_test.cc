#include "xpath/query.h"

#include <gtest/gtest.h>

namespace vitex::xpath {
namespace {

Query MustCompile(std::string_view q) {
  auto r = ParseAndCompile(q);
  EXPECT_TRUE(r.ok()) << q << ": " << r.status();
  return std::move(r).value();
}

TEST(FormulaTest, TrueAlwaysHolds) {
  EXPECT_TRUE(Formula::True().Evaluate(0));
  EXPECT_TRUE(Formula::True().Evaluate(~0ull));
}

TEST(FormulaTest, AtomChecksBit) {
  Formula f = Formula::Atom(3);
  EXPECT_FALSE(f.Evaluate(0));
  EXPECT_TRUE(f.Evaluate(1ull << 3));
  EXPECT_FALSE(f.Evaluate(1ull << 2));
}

TEST(FormulaTest, AndOrNotSemantics) {
  std::vector<Formula> ab;
  ab.push_back(Formula::Atom(0));
  ab.push_back(Formula::Atom(1));
  Formula both = Formula::And(std::move(ab));
  EXPECT_TRUE(both.Evaluate(0b11));
  EXPECT_FALSE(both.Evaluate(0b01));

  std::vector<Formula> cd;
  cd.push_back(Formula::Atom(0));
  cd.push_back(Formula::Atom(1));
  Formula either = Formula::Or(std::move(cd));
  EXPECT_TRUE(either.Evaluate(0b10));
  EXPECT_FALSE(either.Evaluate(0b00));

  Formula neither = Formula::Not(Formula::Atom(0));
  EXPECT_TRUE(neither.Evaluate(0b10));
  EXPECT_FALSE(neither.Evaluate(0b01));
}

TEST(FormulaTest, SingletonAndOrCollapse) {
  std::vector<Formula> one;
  one.push_back(Formula::Atom(5));
  Formula f = Formula::And(std::move(one));
  EXPECT_EQ(f.kind, Formula::Kind::kAtom);
}

TEST(FormulaTest, ContainsNot) {
  EXPECT_FALSE(Formula::Atom(0).ContainsNot());
  std::vector<Formula> fs;
  fs.push_back(Formula::Atom(0));
  fs.push_back(Formula::Not(Formula::Atom(1)));
  EXPECT_TRUE(Formula::And(std::move(fs)).ContainsNot());
}

TEST(CompileTest, SingleStep) {
  Query q = MustCompile("//a");
  EXPECT_EQ(q.size(), 1u);
  EXPECT_EQ(q.root(), q.output());
  EXPECT_TRUE(q.root()->is_output);
  EXPECT_TRUE(q.root()->on_main_path);
  EXPECT_EQ(q.root()->axis, Axis::kDescendant);
}

TEST(CompileTest, MainPathChain) {
  Query q = MustCompile("/a//b/c");
  EXPECT_EQ(q.size(), 3u);
  const QueryNode* a = q.root();
  EXPECT_EQ(a->name, "a");
  ASSERT_EQ(a->children.size(), 1u);
  const QueryNode* b = a->children[0];
  EXPECT_EQ(b->name, "b");
  EXPECT_EQ(b->axis, Axis::kDescendant);
  const QueryNode* c = b->children[0];
  EXPECT_TRUE(c->is_output);
  // Non-output main nodes require their main child.
  EXPECT_EQ(a->formula.kind, Formula::Kind::kAtom);
  EXPECT_EQ(b->formula.kind, Formula::Kind::kAtom);
  EXPECT_EQ(c->formula.kind, Formula::Kind::kTrue);
}

TEST(CompileTest, PaperQueryTwig) {
  Query q = MustCompile("//section[author]//table[position]//cell");
  EXPECT_EQ(q.size(), 5u);
  const QueryNode* section = q.root();
  ASSERT_EQ(section->children.size(), 2u);
  // Predicate child `author` and main child `table`, in compile order.
  const QueryNode* author = section->children[0];
  EXPECT_EQ(author->name, "author");
  EXPECT_FALSE(author->on_main_path);
  const QueryNode* table = section->children[1];
  EXPECT_EQ(table->name, "table");
  EXPECT_TRUE(table->on_main_path);
  // section requires both.
  EXPECT_EQ(section->formula.kind, Formula::Kind::kAnd);
  const QueryNode* cell = q.output();
  EXPECT_EQ(cell->name, "cell");
  EXPECT_EQ(cell->parent, table);
}

TEST(CompileTest, PreorderIds) {
  Query q = MustCompile("//a[b][c]//d");
  for (size_t i = 0; i < q.size(); ++i) {
    EXPECT_EQ(q.nodes()[i]->id, static_cast<int>(i));
    if (q.nodes()[i]->parent != nullptr) {
      EXPECT_LT(q.nodes()[i]->parent->id, q.nodes()[i]->id);
    }
  }
}

TEST(CompileTest, AttributeOutput) {
  Query q = MustCompile("//ProteinEntry[reference]/@id");
  const QueryNode* id = q.output();
  EXPECT_TRUE(id->IsAttributeNode());
  EXPECT_EQ(id->name, "id");
  EXPECT_FALSE(id->descendant_attribute);
  const QueryNode* pe = q.root();
  EXPECT_EQ(pe->children.size(), 2u);
}

TEST(CompileTest, DescendantAttributeFlag) {
  Query q = MustCompile("//a//@id");
  EXPECT_TRUE(q.output()->descendant_attribute);
}

TEST(CompileTest, ValueComparisonOnElementDesugarsToText) {
  Query q = MustCompile("//a[b = 'x']");
  const QueryNode* a = q.root();
  ASSERT_EQ(a->children.size(), 1u);
  const QueryNode* b = a->children[0];
  EXPECT_EQ(b->name, "b");
  ASSERT_EQ(b->children.size(), 1u);
  const QueryNode* text = b->children[0];
  EXPECT_TRUE(text->IsTextNode());
  EXPECT_EQ(text->value_op, CompareOp::kEq);
  EXPECT_EQ(text->literal.text, "x");
  // b requires its text child.
  EXPECT_EQ(b->formula.kind, Formula::Kind::kAtom);
}

TEST(CompileTest, SelfComparisonDesugarsToText) {
  Query q = MustCompile("//a[. = '5']");
  const QueryNode* a = q.root();
  ASSERT_EQ(a->children.size(), 1u);
  EXPECT_TRUE(a->children[0]->IsTextNode());
}

TEST(CompileTest, AttributeComparisonStaysOnAttribute) {
  Query q = MustCompile("//a[@id != 'x']");
  const QueryNode* attr = q.root()->children[0];
  EXPECT_TRUE(attr->IsAttributeNode());
  EXPECT_EQ(attr->value_op, CompareOp::kNe);
}

TEST(CompileTest, NumericLiteralMarked) {
  Query q = MustCompile("//a[b >= 3.5]");
  const QueryNode* text = q.root()->children[0]->children[0];
  EXPECT_TRUE(text->literal.is_number);
  EXPECT_DOUBLE_EQ(text->literal.number, 3.5);
}

TEST(CompileTest, OrFormulaShape) {
  Query q = MustCompile("//a[b or c]");
  const QueryNode* a = q.root();
  EXPECT_EQ(a->children.size(), 2u);
  EXPECT_EQ(a->formula.kind, Formula::Kind::kOr);
  EXPECT_FALSE(q.has_negation());
}

TEST(CompileTest, NotFormulaShape) {
  Query q = MustCompile("//a[not(b)]");
  EXPECT_TRUE(q.has_negation());
  EXPECT_EQ(q.root()->formula.kind, Formula::Kind::kNot);
}

TEST(CompileTest, AndOfPredicatesAndMainChild) {
  Query q = MustCompile("//a[b]//c");
  const QueryNode* a = q.root();
  // Formula must require both b (predicate) and c (main child).
  ASSERT_EQ(a->children.size(), 2u);
  uint64_t b_bit = 1ull << a->children[0]->index_in_parent;
  uint64_t c_bit = 1ull << a->children[1]->index_in_parent;
  EXPECT_TRUE(a->formula.Evaluate(b_bit | c_bit));
  EXPECT_FALSE(a->formula.Evaluate(b_bit));
  EXPECT_FALSE(a->formula.Evaluate(c_bit));
}

TEST(CompileTest, NestedPredicatePath) {
  Query q = MustCompile("//a[b/c]");
  const QueryNode* b = q.root()->children[0];
  EXPECT_EQ(b->name, "b");
  ASSERT_EQ(b->children.size(), 1u);
  EXPECT_EQ(b->children[0]->name, "c");
  // b requires c.
  EXPECT_FALSE(b->formula.Evaluate(0));
  EXPECT_TRUE(b->formula.Evaluate(1));
}

TEST(CompileTest, PredicateInsidePredicatePath) {
  Query q = MustCompile("//a[b[c]/d]");
  const QueryNode* b = q.root()->children[0];
  ASSERT_EQ(b->children.size(), 2u);
  // b requires both c (nested predicate) and d (chain continuation).
  EXPECT_TRUE(b->formula.Evaluate(0b11));
  EXPECT_FALSE(b->formula.Evaluate(0b01));
  EXPECT_FALSE(b->formula.Evaluate(0b10));
}

TEST(CompileTest, TextOutput) {
  Query q = MustCompile("//a/text()");
  EXPECT_TRUE(q.output()->IsTextNode());
  EXPECT_EQ(q.output()->axis, Axis::kChild);
}

TEST(CompileTest, WildcardSteps) {
  Query q = MustCompile("//*[b]/*");
  EXPECT_EQ(q.root()->test, NodeTestKind::kWildcard);
  EXPECT_EQ(q.output()->test, NodeTestKind::kWildcard);
}

TEST(CompileTest, SourcePreserved) {
  Query q = MustCompile("//a[b]");
  EXPECT_EQ(q.source(), "//a[b]");
}

TEST(CompileTest, ToStringMentionsOutput) {
  Query q = MustCompile("//a//b");
  std::string s = q.ToString();
  EXPECT_NE(s.find("OUTPUT"), std::string::npos);
}

TEST(CompileTest, CompareValueStringEquality) {
  Query q = MustCompile("//a[text() = 'abc']");
  const QueryNode* t = q.root()->children[0];
  EXPECT_TRUE(t->CompareValue("abc"));
  EXPECT_FALSE(t->CompareValue("abd"));
  EXPECT_FALSE(t->CompareValue(""));
}

TEST(CompileTest, CompareValueNumericEquality) {
  Query q = MustCompile("//a[text() = 5]");
  const QueryNode* t = q.root()->children[0];
  EXPECT_TRUE(t->CompareValue("5"));
  EXPECT_TRUE(t->CompareValue("5.0"));
  EXPECT_FALSE(t->CompareValue("5x"));
  EXPECT_FALSE(t->CompareValue("abc"));
}

TEST(CompileTest, CompareValueRelational) {
  Query q = MustCompile("//a[text() < 10]");
  const QueryNode* t = q.root()->children[0];
  EXPECT_TRUE(t->CompareValue("9.5"));
  EXPECT_FALSE(t->CompareValue("10"));
  EXPECT_FALSE(t->CompareValue("notanumber"));
}

TEST(CompileTest, CompareValueNotEqualsNumber) {
  Query q = MustCompile("//a[text() != 5]");
  const QueryNode* t = q.root()->children[0];
  EXPECT_FALSE(t->CompareValue("5"));
  EXPECT_TRUE(t->CompareValue("6"));
  // Non-numeric text is unequal to a number.
  EXPECT_TRUE(t->CompareValue("abc"));
}

}  // namespace
}  // namespace vitex::xpath
