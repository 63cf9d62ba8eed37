// Table-driven tests for QueryNode::CompareValue — the single value-
// comparison routine every route shares (TwigM, the multi-query dispatcher,
// the DOM oracle, the naive matcher), through xpath::Literal::Matches. The
// satellite fix this pins:
//   * the RHS literal is coerced once at compile time, never re-parsed per
//     event (numeric / number on QueryNode::literal);
//   * node text is whitespace-trimmed per XPath number() before numeric
//     coercion (" 10 " = 10 holds);
//   * whitespace-only and empty text is NOT numeric (the old strtod-based
//     check treated "   " as 0);
//   * != against a numeric literal uses the same string fallback as = for
//     non-numeric text, so = and != are exact complements.

#include <gtest/gtest.h>

#include <optional>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "xpath/query.h"

namespace vitex::xpath {
namespace {

// Compiles `[text() OP]` under //a and returns the text node carrying the
// value test, so the table exercises the real compile-time literal path.
const QueryNode* CompileValueTest(const std::string& predicate,
                                  std::optional<Query>* storage) {
  auto q = ParseAndCompile("//a[" + predicate + "]");
  EXPECT_TRUE(q.ok()) << predicate << ": " << q.status();
  storage->emplace(std::move(q).value());
  for (const auto& node : (*storage)->nodes()) {
    if (node->value_op != CompareOp::kNone) return node.get();
  }
  ADD_FAILURE() << "no value test compiled for " << predicate;
  return nullptr;
}

struct Case {
  const char* predicate;
  const char* value;
  bool want;
};

// A shared-plan leaf wraps a node value in one NodeValue and compares it
// against every group's literal in turn; its number() is parsed on first
// numeric use and then reused. For each of these values, one NodeValue run
// through every literal of `cases` must give each the verdict a fresh
// NodeValue gives.
template <size_t N>
void ExpectOneValueServesEveryLiteral(const Case (&cases)[N]) {
  std::vector<std::optional<Query>> storage(N);
  std::vector<const QueryNode*> nodes;
  for (size_t i = 0; i < N; ++i) {
    nodes.push_back(CompileValueTest(cases[i].predicate, &storage[i]));
    ASSERT_NE(nodes.back(), nullptr);
  }
  for (const char* value : {" 10 ", "10.0", "1e1", "abc", "", "   "}) {
    NodeValue shared(value);
    for (size_t i = 0; i < N; ++i) {
      const QueryNode* node = nodes[i];
      EXPECT_EQ(node->literal.Matches(node->value_op, shared),
                node->literal.Matches(node->value_op, NodeValue(value)))
          << "[" << cases[i].predicate << "] on \"" << value << "\"";
    }
  }
}

TEST(CompareValueTest, NumericLiteralTable) {
  const Case cases[] = {
      // Equality against a numeric literal: numeric when the text coerces.
      {"text() = 10", "10", true},
      {"text() = 10", " 10 ", true},    // number() trims whitespace
      {"text() = 10", "10.0", true},    // numeric, not string, equality
      {"text() = 10", "1e1", true},     // exponent form coerces
      {"text() = 10", "abc", false},    // non-numeric: string fallback
      {"text() = 10", "", false},
      {"text() = 10", "  ", false},     // whitespace-only is NOT 0
      {"text() = 0", "  ", false},      // ...the old strtod path said true
      {"text() = 10", "10x", false},
      // != is the exact complement, including the string fallback.
      {"text() != 10", "10", false},
      {"text() != 10", " 10 ", false},
      {"text() != 10", "10.0", false},
      {"text() != 10", "1e1", false},
      {"text() != 10", "abc", true},
      {"text() != 10", "", true},
      // The string fallback compares against the literal's source text.
      {"text() != 10", "10.00", false},  // still numeric: coerces to 10
      // Relational: numeric on both sides or never satisfied.
      {"text() < 10", "9.5", true},
      {"text() < 10", " 9 ", true},
      {"text() < 10", "abc", false},
      {"text() < 10", "", false},
      {"text() <= 10", "10", true},
      {"text() > 10", "1e2", true},
      {"text() >= 10", "9.999", false},
      // The same spelling as a string literal compares as a string.
      {"text() = '10'", "1e1", false},
  };
  for (const Case& c : cases) {
    std::optional<Query> storage;
    const QueryNode* node = CompileValueTest(c.predicate, &storage);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->CompareValue(c.value), c.want)
        << "[" << c.predicate << "] on \"" << c.value << "\"";
  }
  ExpectOneValueServesEveryLiteral(cases);
}

TEST(CompareValueTest, StringLiteralTable) {
  const Case cases[] = {
      // String literals compare as strings for =/!=, untrimmed.
      {"text() = '10'", "10", true},
      {"text() = '10'", " 10 ", false},
      {"text() = '10'", "10.0", false},
      {"text() = 'abc'", "abc", true},
      {"text() != 'abc'", "abd", true},
      // Relational with a numeric string literal coerces at compile time.
      {"text() < '10'", "9", true},
      {"text() < '10'", "abc", false},
      // Relational with a non-numeric literal can never be satisfied
      // (NaN comparisons are false; the old code compared against 0).
      {"text() < 'abc'", "-5", false},
      {"text() > 'abc'", "5", false},
  };
  for (const Case& c : cases) {
    std::optional<Query> storage;
    const QueryNode* node = CompileValueTest(c.predicate, &storage);
    ASSERT_NE(node, nullptr);
    EXPECT_EQ(node->CompareValue(c.value), c.want)
        << "[" << c.predicate << "] on \"" << c.value << "\"";
  }
  ExpectOneValueServesEveryLiteral(cases);
}

TEST(CompareValueTest, LiteralCoercedOnceAtCompileTime) {
  std::optional<Query> storage;
  const QueryNode* node = CompileValueTest("text() = 10", &storage);
  ASSERT_NE(node, nullptr);
  EXPECT_TRUE(node->literal.is_number);
  EXPECT_TRUE(node->literal.numeric);
  EXPECT_DOUBLE_EQ(node->literal.number, 10.0);

  const QueryNode* str = CompileValueTest("text() < '2.5'", &storage);
  ASSERT_NE(str, nullptr);
  EXPECT_FALSE(str->literal.is_number);
  EXPECT_TRUE(str->literal.numeric);
  EXPECT_DOUBLE_EQ(str->literal.number, 2.5);

  const QueryNode* nonnum = CompileValueTest("text() < 'abc'", &storage);
  ASSERT_NE(nonnum, nullptr);
  EXPECT_FALSE(nonnum->literal.numeric);
}

TEST(ParseXPathNumberTest, CoercionRules) {
  double d = -1;
  EXPECT_TRUE(vitex::ParseXPathNumber("10", &d));
  EXPECT_DOUBLE_EQ(d, 10.0);
  EXPECT_TRUE(vitex::ParseXPathNumber(" \t10\n ", &d));
  EXPECT_DOUBLE_EQ(d, 10.0);
  EXPECT_TRUE(vitex::ParseXPathNumber("-.5", &d));
  EXPECT_DOUBLE_EQ(d, -0.5);
  EXPECT_TRUE(vitex::ParseXPathNumber("1e1", &d));
  EXPECT_DOUBLE_EQ(d, 10.0);
  EXPECT_FALSE(vitex::ParseXPathNumber("", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("   ", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("abc", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("10x", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("10 20", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("0x10", &d));  // strtod hex rejected
  EXPECT_FALSE(vitex::ParseXPathNumber("inf", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("-inf", &d));  // signed spellings too
  EXPECT_FALSE(vitex::ParseXPathNumber("+inf", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("infinity", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("nan", &d));
  EXPECT_FALSE(vitex::ParseXPathNumber("-nan", &d));
}

}  // namespace
}  // namespace vitex::xpath
