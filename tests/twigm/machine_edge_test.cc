// Edge cases and invariants of the machine that the mainline suites do not
// reach: compiler limits, same-tag multiplicity, sequence keys, and the
// zero-residue memory property over randomized inputs.

#include <gtest/gtest.h>

#include "common/random.h"
#include "twigm/engine.h"
#include "workload/random_generator.h"
#include "xpath/query.h"

namespace vitex::twigm {
namespace {

std::vector<std::string> EvalQuery(std::string_view query,
                                   std::string_view doc) {
  VectorResultCollector results;
  auto engine = Engine::Create(query, &results);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Status s = engine->RunString(doc);
  EXPECT_TRUE(s.ok()) << s;
  return results.SortedFragments();
}

TEST(MachineEdgeTest, SixtyFivePredicatesRejected) {
  std::string q = "//a";
  for (int i = 0; i < 65; ++i) q += "[p" + std::to_string(i) + "]";
  auto compiled = xpath::ParseAndCompile(q);
  ASSERT_FALSE(compiled.ok());
  EXPECT_TRUE(compiled.status().IsUnsupported());
}

TEST(MachineEdgeTest, SixtyFourPredicatesAccepted) {
  std::string q = "//a";
  for (int i = 0; i < 64; ++i) q += "[p" + std::to_string(i) + "]";
  auto compiled = xpath::ParseAndCompile(q);
  EXPECT_TRUE(compiled.ok()) << compiled.status();
}

TEST(MachineEdgeTest, SameTagInEveryRole) {
  // 'a' is simultaneously the context, the predicate and the output tag.
  auto r = EvalQuery("//a[a]//a", "<r><a><a><a/></a></a></r>");
  // Outer a has child a (predicate ok): descendants a#2, a#3 qualify.
  // Middle a has child a: descendant a#3 qualifies (already emitted).
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "<a><a/></a>");
  EXPECT_EQ(r[1], "<a/>");
}

TEST(MachineEdgeTest, ManyAttributesOnOneElement) {
  std::string doc = "<r><a";
  for (int i = 0; i < 100; ++i) {
    doc += " k" + std::to_string(i) + "=\"" + std::to_string(i) + "\"";
  }
  doc += "/></r>";
  auto r = EvalQuery("//a/@*", doc);
  EXPECT_EQ(r.size(), 100u);
  // Values must come out in document (attribute) order.
  EXPECT_EQ(r[0], "0");
  EXPECT_EQ(r[99], "99");
}

TEST(MachineEdgeTest, SequenceKeysAreDocumentOrderAndQueryIndependent) {
  // Two different queries over the same stream must assign the same key to
  // the same node (the property union subscriptions' dedup relies on).
  const char* doc = "<a k=\"v\"><b>t</b><c/></a>";
  VectorResultCollector by_wildcard, by_name;
  auto e1 = Engine::Create("//*", &by_wildcard);
  auto e2 = Engine::Create("//b", &by_name);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e1->RunString(doc).ok());
  ASSERT_TRUE(e2->RunString(doc).ok());
  ASSERT_EQ(by_wildcard.size(), 3u);
  ASSERT_EQ(by_name.size(), 1u);
  // Find b's key in the wildcard run: it must equal the //b run's key.
  uint64_t b_key_wild = 0;
  for (const auto& r : by_wildcard.results()) {
    if (r.fragment == "<b>t</b>") b_key_wild = r.sequence;
  }
  EXPECT_EQ(by_name.results()[0].sequence, b_key_wild);
  // And keys sort in document order.
  auto sorted = by_wildcard.SortedFragments();
  EXPECT_EQ(sorted[0], "<a k=\"v\"><b>t</b><c/></a>");
  EXPECT_EQ(sorted[1], "<b>t</b>");
  EXPECT_EQ(sorted[2], "<c/>");
}

TEST(MachineEdgeTest, EmptyElementsEverywhere) {
  auto r = EvalQuery("//a[b]", "<r><a><b/></a><a><b></b></a></r>");
  // <b/> and <b></b> are the same; both a's qualify.
  EXPECT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "<a><b/></a>");
  EXPECT_EQ(r[1], "<a><b/></a>");  // canonical form collapses
}

TEST(MachineEdgeTest, DeepDocumentShallowQuery) {
  std::string doc = "<r>";
  for (int i = 0; i < 500; ++i) doc += "<d>";
  doc += "<hit/>";
  for (int i = 0; i < 500; ++i) doc += "</d>";
  doc += "</r>";
  auto r = EvalQuery("//hit", doc);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MachineEdgeTest, WidowedPredicateTagOutsideContext) {
  // b exists in the document but never under a: predicate must not leak
  // across subtrees.
  auto r = EvalQuery("//a[b]", "<r><b/><a><c/></a><b/></r>");
  EXPECT_EQ(r.size(), 0u);
}

TEST(MachineEdgeTest, PredicateMatchInSiblingDoesNotQualify) {
  auto r = EvalQuery("//a[b]//c", "<r><a><c/></a><a><b/></a></r>");
  EXPECT_EQ(r.size(), 0u);
}

TEST(MachineEdgeTest, ZeroResidueMemoryProperty) {
  // After any complete parse, the machine must account exactly zero live
  // bytes and zero live entries — over random documents and queries.
  Random rng(909);
  workload::RandomDocOptions doc_options;
  doc_options.max_elements = 80;
  workload::RandomQueryOptions query_options;
  for (int i = 0; i < 40; ++i) {
    std::string doc = workload::GenerateRandomDocument(doc_options, &rng);
    std::string query = workload::GenerateRandomQuery(query_options, &rng);
    VectorResultCollector results;
    auto engine = Engine::Create(query, &results);
    ASSERT_TRUE(engine.ok()) << query;
    ASSERT_TRUE(engine->RunString(doc).ok());
    EXPECT_EQ(engine->machine().live_stack_entries(), 0u) << query;
    EXPECT_EQ(engine->machine().memory().live_bytes(), 0u)
        << query << "\ndoc: " << doc;
  }
}

TEST(MachineEdgeTest, WildcardRootChildAxis) {
  EXPECT_EQ(EvalQuery("/*", "<anything><b/></anything>").size(), 1u);
}

TEST(MachineEdgeTest, LongTextValuesCompared) {
  std::string big(100000, 'x');
  std::string doc = "<r><a>" + big + "</a></r>";
  auto r = EvalQuery("//a[text() != 'y']", doc);
  EXPECT_EQ(r.size(), 1u);
}

TEST(MachineEdgeTest, UnicodeTagsAndValues) {
  auto r = EvalQuery("//caf\xc3\xa9[text() = '\xc3\xbc']",
                     "<r><caf\xc3\xa9>\xc3\xbc</caf\xc3\xa9></r>");
  EXPECT_EQ(r.size(), 1u);
}

TEST(MachineEdgeTest, ValuePredicateOnWildcardAttribute) {
  auto r = EvalQuery("//a[@* = '7']",
                     "<r><a x=\"3\" y=\"7\"/><a x=\"1\"/></r>");
  ASSERT_EQ(r.size(), 1u);
}

TEST(MachineEdgeTest, CandidateInsideItsOwnPredicateSubtreeTag) {
  // Output c sits under a; the predicate also uses tag c. The predicate's
  // c machine node and the output's c machine node are distinct.
  auto r = EvalQuery("//a[c]//c", "<r><a><c><c/></c></a></r>");
  ASSERT_EQ(r.size(), 2u);
}

}  // namespace
}  // namespace vitex::twigm
