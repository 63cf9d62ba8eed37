// Query canonicalization (canonical.h): the cache key of shared-plan
// compilation. Two invariants matter:
//
//   * same skeleton => equal key and hash, with the literals lifted into
//     the parameter vector in slot (preorder) order;
//   * any structural difference — axis, name test, wildcard, operator,
//     formula shape, output node — => distinct key.
//
// The key is also pure data (no pointers), so it must be stable across
// Query moves and across recompilation of the same source.

#include "xpath/canonical.h"

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "xpath/query.h"

namespace vitex::xpath {
namespace {

CanonicalQuery CanonOf(const std::string& text) {
  auto compiled = ParseAndCompile(text);
  EXPECT_TRUE(compiled.ok()) << text;
  return Canonicalize(compiled.value());
}

TEST(CanonicalTest, SameSkeletonDifferentLiteralsShareKey) {
  struct Case {
    const char* a;
    const char* b;
  };
  const Case cases[] = {
      {"//quote[@symbol = 'ACME']/price", "//quote[@symbol = 'IBM']/price"},
      {"//a[b = '1']", "//a[b = '2']"},
      {"//a[b > 10]", "//a[b > 99]"},
      {"//a[b = 10]", "//a[b = '10']"},  // spelling is a parameter property
      {"//a[b = '1' and c = '2']", "//a[b = 'x' and c = 'y']"},
      {"//a[not(b = '1')]//c", "//a[not(b = '9')]//c"},
      {"//a[. = 'u']", "//a[. = 'v']"},
      {"//a[@x = '1'][@y = '2']", "//a[@x = '8'][@y = '9']"},
  };
  for (const Case& c : cases) {
    CanonicalQuery ca = CanonOf(c.a);
    CanonicalQuery cb = CanonOf(c.b);
    EXPECT_EQ(ca.key, cb.key) << c.a << " vs " << c.b;
    EXPECT_EQ(ca.hash, cb.hash) << c.a << " vs " << c.b;
    EXPECT_EQ(ca.params.size(), cb.params.size());
    EXPECT_EQ(ca.slot_node_ids, cb.slot_node_ids);
  }
}

TEST(CanonicalTest, StructuralDifferencesChangeKey) {
  // Every neighbor differs from the first query in exactly one structural
  // dimension; all must produce distinct keys.
  const char* base = "//a[b = '1']/c";
  const char* variants[] = {
      "/a[b = '1']/c",        // root axis
      "//a[b = '1']//c",      // output axis
      "//a[b != '1']/c",      // comparison operator
      "//a[b < '1']/c",       // comparison operator (relational)
      "//a[b]/c",             // predicate without value test
      "//a[not(b = '1')]/c",  // formula shape
      "//a[*[1=1]]/c",        // (unsupported; skipped below if so)
      "//a[b = '1']/d",       // output name
      "//x[b = '1']/c",       // main-path name
      "//a[d = '1']/c",       // predicate name
      "//a[@b = '1']/c",      // attribute vs element test
      "//a[b/text() = '1']/c",  // same desugared shape? see below
      "//a[b = '1']",         // output node position
      "//a[b = '1']/c/text()",  // text output
      "//a[b = '1']/@c",      // attribute output
      "//*[b = '1']/c",       // wildcard main test
  };
  CanonicalQuery cb = CanonOf(base);
  for (const char* v : variants) {
    auto compiled = ParseAndCompile(v);
    if (!compiled.ok()) continue;  // outside the fragment: irrelevant
    CanonicalQuery cv = Canonicalize(compiled.value());
    if (std::string(v) == "//a[b/text() = '1']/c") {
      // `[b = '1']` is *documented* to desugar to `[b/text() = '1']`; the
      // two spellings share one skeleton by design.
      EXPECT_EQ(cb.key, cv.key) << v;
      continue;
    }
    EXPECT_NE(cb.key, cv.key) << v;
  }
}

TEST(CanonicalTest, ParamsInPreorderSlotOrder) {
  CanonicalQuery c = CanonOf("//a[@x = 'first'][y > 2]/b[. = 'third']");
  ASSERT_EQ(c.params.size(), 3u);
  EXPECT_EQ(c.params[0].text, "first");
  EXPECT_EQ(c.params[1].text, "2");
  EXPECT_TRUE(c.params[1].is_number);
  EXPECT_TRUE(c.params[1].numeric);
  EXPECT_EQ(c.params[2].text, "third");
  // Slot node ids are preorder positions inside the twig: strictly
  // increasing.
  ASSERT_EQ(c.slot_node_ids.size(), 3u);
  EXPECT_LT(c.slot_node_ids[0], c.slot_node_ids[1]);
  EXPECT_LT(c.slot_node_ids[1], c.slot_node_ids[2]);
}

TEST(CanonicalTest, ValueParamIdentity) {
  // '10' as numeric token vs string literal: same spelling, different
  // comparison semantics, distinct groups.
  CanonicalQuery numeric = CanonOf("//a[b = 10]");
  CanonicalQuery stringly = CanonOf("//a[b = '10']");
  ASSERT_EQ(numeric.params.size(), 1u);
  ASSERT_EQ(stringly.params.size(), 1u);
  EXPECT_NE(numeric.params[0], stringly.params[0]);
  EXPECT_EQ(numeric.params[0], numeric.params[0]);
  // Equal literal + spelling: equal params.
  EXPECT_EQ(CanonOf("//a[b = '10']").params[0], stringly.params[0]);
}

TEST(CanonicalTest, StableAcrossQueryMove) {
  auto compiled = ParseAndCompile("//a[b = '1' or not(c)]//d[@k > 5]");
  ASSERT_TRUE(compiled.ok());
  CanonicalQuery before = Canonicalize(compiled.value());
  // Move the Query object: nodes are heap-allocated, but the key must not
  // depend on addresses anyway.
  Query moved = std::move(compiled).value();
  Query moved_again = std::move(moved);
  CanonicalQuery after = Canonicalize(moved_again);
  EXPECT_EQ(before.key, after.key);
  EXPECT_EQ(before.hash, after.hash);
  EXPECT_EQ(before.slot_node_ids, after.slot_node_ids);
  ASSERT_EQ(before.params.size(), after.params.size());
  for (size_t i = 0; i < before.params.size(); ++i) {
    EXPECT_EQ(before.params[i], after.params[i]);
  }
}

TEST(CanonicalTest, StableAcrossRecompilation) {
  const char* queries[] = {
      "//a", "//a[b = '1']/c", "//site//item[quantity = 3]/@id",
      "//p[not(v = '0') and m]//leaf/text()"};
  for (const char* q : queries) {
    CanonicalQuery first = CanonOf(q);
    CanonicalQuery second = CanonOf(q);
    EXPECT_EQ(first.key, second.key) << q;
    EXPECT_EQ(first.hash, second.hash) << q;
  }
}

TEST(CanonicalTest, WhitespaceSpellingIsIrrelevant) {
  EXPECT_EQ(CanonOf("//a[b   =   '1']/c").key, CanonOf("//a[b='1']/c").key);
}

TEST(CanonicalTest, FnvHashMatchesKeyEquality) {
  // Not a collision test — just that hash is a pure function of the key.
  CanonicalQuery a = CanonOf("//a[b = '1']");
  EXPECT_EQ(a.hash, FnvHash64(a.key));
  EXPECT_NE(FnvHash64("x"), FnvHash64("y"));
  EXPECT_NE(FnvHash64("ab"), FnvHash64("ba"));
}

}  // namespace
}  // namespace vitex::xpath
