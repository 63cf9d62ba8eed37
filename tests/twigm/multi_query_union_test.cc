// Union subscriptions `p1 | p2 | ...` in MultiQueryEngine: each branch is an
// ordinary plan member, all branches deliver into one per-subscription
// dedup handler, and one QueryId stands for the whole union.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "baseline/dom_evaluator.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "xpath/query.h"
#include "xml/dom.h"
#include "xml/event_log.h"

namespace vitex::twigm {
namespace {

std::vector<std::string> RunUnion(std::string_view query,
                                  std::string_view doc) {
  VectorResultCollector results;
  MultiQueryEngine engine;
  auto id = engine.AddQuery(query, &results);
  EXPECT_TRUE(id.ok()) << id.status();
  Status s = engine.RunString(doc);
  EXPECT_TRUE(s.ok()) << s;
  return results.SortedFragments();
}

TEST(MultiQueryUnionTest, TwoDisjointBranches) {
  auto r = RunUnion("//a | //b", "<r><a/><b/><c/></r>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "<a/>");
  EXPECT_EQ(r[1], "<b/>");
}

TEST(MultiQueryUnionTest, SingleBranchBehavesLikeEngine) {
  VectorResultCollector engine_results;
  auto e = Engine::Create("//a[b]", &engine_results);
  ASSERT_TRUE(e.ok());
  const char* doc = "<r><a><b/></a><a/></r>";
  ASSERT_TRUE(e->RunString(doc).ok());
  EXPECT_EQ(RunUnion("//a[b]", doc), engine_results.SortedFragments());
}

TEST(MultiQueryUnionTest, OverlappingBranchesDeduplicated) {
  // Both //a and //*[b] select the same <a><b/></a> element.
  VectorResultCollector results;
  MultiQueryEngine engine;
  auto id = engine.AddQuery("//a | //*[b]", &results);
  ASSERT_TRUE(id.ok());
  ASSERT_TRUE(engine.RunString("<r><a><b/></a><a/></r>").ok());
  // Nodes: a[0] (has b, selected by both), a[1] (only //a); r has no b
  // child. Three branch emissions, two deliveries.
  EXPECT_EQ(results.size(), 2u);
  EXPECT_EQ(engine.query_count(), 1u);
  EXPECT_EQ(engine.machine_count(), 2u);
}

TEST(MultiQueryUnionTest, SetUnionMatchesDomSemantics) {
  // DOM evaluation of the two branches, unioned by node identity, must
  // match the streaming union.
  const char* doc =
      "<r><a k=\"1\"><b/></a><c><b/></c><a/><b><a><b/></a></b></r>";
  const char* q1 = "//a[b]";
  const char* q2 = "//*[b]";

  auto dom = xml::ParseIntoDom(doc);
  ASSERT_TRUE(dom.ok());
  std::vector<const xml::DomNode*> nodes;
  for (const char* q : {q1, q2}) {
    auto compiled = xpath::ParseAndCompile(q);
    ASSERT_TRUE(compiled.ok());
    baseline::DomEvaluator eval(&dom.value());
    for (const xml::DomNode* n : eval.Evaluate(compiled.value())) {
      nodes.push_back(n);
    }
  }
  std::sort(nodes.begin(), nodes.end(),
            [](const xml::DomNode* a, const xml::DomNode* b) {
              return a->order < b->order;
            });
  nodes.erase(std::unique(nodes.begin(), nodes.end()), nodes.end());
  std::vector<std::string> dom_fragments;
  for (const xml::DomNode* n : nodes) {
    dom_fragments.push_back(xml::Document::Serialize(n));
  }
  EXPECT_EQ(RunUnion(std::string(q1) + " | " + q2, doc), dom_fragments);
}

TEST(MultiQueryUnionTest, MixedOutputKinds) {
  auto r = RunUnion("//a/@id | //b/text()", "<r><a id=\"x\"/><b>t</b></r>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "x");
  EXPECT_EQ(r[1], "t");
}

TEST(MultiQueryUnionTest, ThreeBranches) {
  auto r = RunUnion("//a | //b | //c", "<r><c/><b/><a/></r>");
  ASSERT_EQ(r.size(), 3u);
  // Document order: c, b, a.
  EXPECT_EQ(r[0], "<c/>");
  EXPECT_EQ(r[2], "<a/>");
}

TEST(MultiQueryUnionTest, BadBranchRejected) {
  MultiQueryEngine engine;
  EXPECT_FALSE(engine.AddQuery("//a | [", nullptr).ok());
  EXPECT_FALSE(engine.AddQuery("| //a", nullptr).ok());
  EXPECT_FALSE(engine.AddQuery("//a |", nullptr).ok());
  // A later branch the parser rejects fails the whole union and leaves
  // nothing registered.
  EXPECT_FALSE(engine.AddQuery("//a | //b[1]", nullptr).ok());
  EXPECT_EQ(engine.query_count(), 0u);
  EXPECT_EQ(engine.machine_count(), 0u);
}

TEST(MultiQueryUnionTest, PlainParserRejectsUnion) {
  EXPECT_FALSE(Engine::Create("//a | //b", nullptr).ok());
}

// Regression (DESIGN.md §12): the dedup seen-set is per-document state. A
// fragment selected in consecutive documents must be reported in both —
// suppression never carries across a document boundary.
TEST(MultiQueryUnionTest, CrossDocumentDuplicateReportedInBothDocs) {
  VectorResultCollector results;
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a | //*[b]", &results).ok());
  const char* doc = "<r><a><b/></a><a/></r>";
  ASSERT_TRUE(engine.RunString(doc).ok());
  EXPECT_EQ(results.size(), 2u);
  engine.ResetStream();
  ASSERT_TRUE(engine.RunString(doc).ok());
  // Identical fragments, identical sequence keys — still reported again.
  EXPECT_EQ(results.size(), 4u);
}

// The same across chained RunEvents documents, which never pass through
// ResetStream: the dispatcher's document generation alone retires the
// previous document's entries.
TEST(MultiQueryUnionTest, CrossDocumentDuplicateReportedAcrossRunEvents) {
  VectorResultCollector results;
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a | //*[b]", &results).ok());
  xml::SaxParserOptions record;
  record.symbols = engine.symbols();
  auto log = xml::RecordEvents("<r><a><b/></a><a/></r>", record);
  ASSERT_TRUE(log.ok());
  for (int doc = 1; doc <= 3; ++doc) {
    ASSERT_TRUE(engine.RunEvents(log.value()).ok());
    EXPECT_EQ(results.size(), 2u * static_cast<size_t>(doc));
  }
}

// The versioned seen-set keeps suppressing within-document duplicates after
// many document boundaries (the table is reused in place, never rebuilt).
TEST(MultiQueryUnionTest, DedupStableAcrossManyDocuments) {
  VectorResultCollector results;
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a | //*", &results).ok());
  for (int doc = 0; doc < 50; ++doc) {
    results.Clear();
    ASSERT_TRUE(engine.RunString("<r><a/><a/><a/></r>").ok());
    // //* selects all 4 elements; //a re-selects the 3 <a/>s.
    EXPECT_EQ(results.size(), 4u) << "doc " << doc;
    engine.ResetStream();
  }
}

TEST(MultiQueryUnionTest, ResetStreamClearsDedupState) {
  VectorResultCollector results;
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a | //*", &results).ok());
  ASSERT_TRUE(engine.RunString("<a/>").ok());
  EXPECT_EQ(results.size(), 1u);
  engine.ResetStream();
  ASSERT_TRUE(engine.RunString("<a/>").ok());
  // Same sequence numbers in the new document must not be suppressed.
  EXPECT_EQ(results.size(), 2u);
}

// Registered from compiled branches, as StreamService does: one QueryId,
// deduplicated deliveries into the one handler passed at registration.
TEST(MultiQueryUnionTest, CompiledBranchesFormOneSubscription) {
  MultiQueryEngine engine;
  VectorResultCollector results, other;
  std::vector<xpath::Query> branches;
  for (const char* q : {"//a", "//*[b]"}) {
    auto compiled = xpath::ParseAndCompile(q);
    ASSERT_TRUE(compiled.ok());
    branches.push_back(std::move(compiled).value());
  }
  auto id = engine.AddQuery(std::move(branches), &results);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(engine.query_count(), 1u);
  ASSERT_TRUE(engine.RunString("<r><a><b/></a><a/></r>").ok());
  EXPECT_EQ(results.size(), 2u);

  // One empty (moved-from) branch fails the whole union, and nothing of it
  // is registered.
  std::vector<xpath::Query> mixed;
  for (const char* q : {"//c", "//d"}) {
    auto compiled = xpath::ParseAndCompile(q);
    ASSERT_TRUE(compiled.ok());
    mixed.push_back(std::move(compiled).value());
  }
  xpath::Query taken = std::move(mixed[1]);
  engine.ResetStream();
  EXPECT_TRUE(
      engine.AddQuery(std::move(mixed), &other).status().IsInvalidArgument());
  EXPECT_EQ(engine.query_count(), 1u);
  EXPECT_EQ(engine.machine_count(), 2u);
}

// Churn: `p | p` puts both branches in one plan group; subscribing and
// unsubscribing it repeatedly must leave no machine or member behind, and
// every cycle delivers each node once.
TEST(MultiQueryUnionTest, SelfUnionChurn) {
  MultiQueryEngine engine;
  VectorResultCollector keep_results;
  ASSERT_TRUE(engine.AddQuery("//b/text()", &keep_results).ok());
  for (int cycle = 0; cycle < 20; ++cycle) {
    VectorResultCollector results;
    auto id = engine.AddQuery("//a[@k] | //a[@k]", &results);
    ASSERT_TRUE(id.ok());
    EXPECT_EQ(engine.query_count(), 2u);
    EXPECT_EQ(engine.machine_count(), 2u);
    ASSERT_TRUE(
        engine.RunString("<r><a k=\"1\"/><a/><a k=\"2\"/><b>t</b></r>")
            .ok());
    EXPECT_EQ(results.size(), 2u) << "cycle " << cycle;
    engine.ResetStream();
    ASSERT_TRUE(engine.RemoveQuery(id.value()).ok());
    EXPECT_EQ(engine.query_count(), 1u);
    EXPECT_EQ(engine.machine_count(), 1u);
  }
  EXPECT_EQ(keep_results.size(), 20u);
}

// Unsubscribing a union whose branches joined plan instances that other
// subscriptions hold: the instances survive with exactly their other
// members, and those subscriptions' deliveries stay exact.
TEST(MultiQueryUnionTest, RemovingUnionLeavesSharedInstancesExact) {
  const char* doc =
      "<r><a k=\"1\">x</a><a k=\"2\">y</a><b>z</b><c>w</c></r>";
  MultiQueryEngine engine;
  VectorResultCollector a1, b, u;
  ASSERT_TRUE(engine.AddQuery("//a[@k = '1']/text()", &a1).ok());
  ASSERT_TRUE(engine.AddQuery("//b/text()", &b).ok());
  ASSERT_EQ(engine.machine_count(), 2u);
  // Branch 1 adds a group to //a's instance, branch 2 joins //b's group,
  // branch 3 needs a new instance.
  auto id =
      engine.AddQuery("//a[@k = '2']/text() | //b/text() | //c/text()", &u);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(engine.machine_count(), 3u);
  EXPECT_EQ(engine.query_count(), 3u);

  ASSERT_TRUE(engine.RunString(doc).ok());
  EXPECT_EQ(engine.dispatch_stats().plan_hits, 2u);
  EXPECT_EQ(engine.dispatch_stats().subscriptions, 3u);
  EXPECT_EQ(a1.SortedFragments(), std::vector<std::string>{"x"});
  EXPECT_EQ(b.SortedFragments(), std::vector<std::string>{"z"});
  EXPECT_EQ(u.SortedFragments(), (std::vector<std::string>{"y", "z", "w"}));

  engine.ResetStream();
  ASSERT_TRUE(engine.RemoveQuery(id.value()).ok());
  EXPECT_EQ(engine.machine_count(), 2u);
  EXPECT_EQ(engine.query_count(), 2u);
  ASSERT_TRUE(engine.RunString(doc).ok());
  EXPECT_EQ(a1.SortedFragments(), (std::vector<std::string>{"x", "x"}));
  EXPECT_EQ(b.SortedFragments(), (std::vector<std::string>{"z", "z"}));
  EXPECT_EQ(u.size(), 3u);
  EXPECT_EQ(engine.dispatch_stats().subscriptions, 2u);
  EXPECT_EQ(engine.dispatch_stats().machines, 2u);
}

}  // namespace
}  // namespace vitex::twigm
