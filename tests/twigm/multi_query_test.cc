#include "twigm/multi_query.h"

#include <gtest/gtest.h>

#include "dom_reference.h"
#include "twigm/engine.h"
#include "workload/protein_generator.h"

namespace vitex::twigm {
namespace {

TEST(MultiQueryTest, TwoQueriesOneStream) {
  MultiQueryEngine engine;
  VectorResultCollector r1, r2;
  auto q1 = engine.AddQuery("//a", &r1);
  auto q2 = engine.AddQuery("//b/@id", &r2);
  ASSERT_TRUE(q1.ok());
  ASSERT_TRUE(q2.ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b id=\"x\"/><a/></r>").ok());
  EXPECT_EQ(r1.size(), 2u);
  ASSERT_EQ(r2.size(), 1u);
  EXPECT_EQ(r2.results()[0].fragment, "x");
}

TEST(MultiQueryTest, MatchesSingleQueryEngines) {
  workload::ProteinOptions options;
  options.entries = 50;
  auto doc = workload::GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "//ProteinEntry[reference]/@id",
      "//refinfo/@refid",
      "//ProteinEntry[summary/length > 300]//gene",
  };
  MultiQueryEngine multi;
  std::vector<std::unique_ptr<VectorResultCollector>> multi_results;
  for (const char* q : queries) {
    multi_results.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(multi.AddQuery(q, multi_results.back().get()).ok());
  }
  ASSERT_TRUE(multi.RunString(doc.value()).ok());

  for (size_t i = 0; i < 3; ++i) {
    VectorResultCollector single;
    auto engine = Engine::Create(queries[i], &single);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->RunString(doc.value()).ok());
    EXPECT_EQ(multi_results[i]->SortedFragments(), single.SortedFragments())
        << queries[i];
    // Both engines share one dispatcher; the DOM evaluator does not.
    auto dom = difftest::Oracle::RunDom(queries[i], doc.value());
    ASSERT_TRUE(dom.ok()) << dom.status();
    EXPECT_EQ(Sequenced(*multi_results[i]), dom.value()) << queries[i];
  }
}

TEST(MultiQueryTest, RegistrationAfterStartRejected) {
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a", nullptr).ok());
  ASSERT_TRUE(engine.Feed("<r>").ok());
  EXPECT_TRUE(engine.AddQuery("//b", nullptr).status().IsInvalidArgument());
}

TEST(MultiQueryTest, BadQueryRejectedOthersUnaffected) {
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a", nullptr).ok());
  EXPECT_FALSE(engine.AddQuery("][bad", nullptr).ok());
  EXPECT_EQ(engine.query_count(), 1u);
  EXPECT_TRUE(engine.RunString("<a/>").ok());
}

TEST(MultiQueryTest, PerQueryStatsIndependent) {
  MultiQueryEngine engine;
  VectorResultCollector r1, r2;
  ASSERT_TRUE(engine.AddQuery("//a", &r1).ok());
  ASSERT_TRUE(engine.AddQuery("//zzz", &r2).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><a/></r>").ok());
  EXPECT_EQ(engine.machine(0).stats().results_emitted, 2u);
  EXPECT_EQ(engine.machine(1).stats().results_emitted, 0u);
}

TEST(MultiQueryTest, ResetStreamKeepsQueries) {
  MultiQueryEngine engine;
  VectorResultCollector results;
  ASSERT_TRUE(engine.AddQuery("//a", &results).ok());
  ASSERT_TRUE(engine.RunString("<a/>").ok());
  engine.ResetStream();
  ASSERT_TRUE(engine.RunString("<r><a/><a/></r>").ok());
  EXPECT_EQ(results.size(), 3u);
}

TEST(MultiQueryTest, ChunkedFeedAcrossManyQueries) {
  MultiQueryEngine engine;
  VectorResultCollector results[4];
  ASSERT_TRUE(engine.AddQuery("//a[b]", &results[0]).ok());
  ASSERT_TRUE(engine.AddQuery("//a[not(b)]", &results[1]).ok());
  ASSERT_TRUE(engine.AddQuery("//b/text()", &results[2]).ok());
  ASSERT_TRUE(engine.AddQuery("//a//@k", &results[3]).ok());
  const std::string doc = "<r><a k=\"1\"><b>t</b></a><a/><a><c/></a></r>";
  for (char c : doc) {
    ASSERT_TRUE(engine.Feed(std::string_view(&c, 1)).ok());
  }
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_EQ(results[0].size(), 1u);  // a with b
  EXPECT_EQ(results[1].size(), 2u);  // a's without b
  EXPECT_EQ(results[2].size(), 1u);  // "t"
  EXPECT_EQ(results[3].size(), 1u);  // k attribute
}

TEST(MultiQueryTest, TotalLiveBytesAggregates) {
  MultiQueryEngine engine;
  ASSERT_TRUE(engine.AddQuery("//a[zzz]//b", nullptr).ok());
  ASSERT_TRUE(engine.AddQuery("//a[zzz]//c", nullptr).ok());
  ASSERT_TRUE(engine.Feed("<r><a><b/><c/>").ok());
  // Both machines hold buffered candidates -> nonzero aggregate.
  EXPECT_GT(engine.total_live_bytes(), 0u);
  ASSERT_TRUE(engine.Feed("</a></r>").ok());
  ASSERT_TRUE(engine.Finish().ok());
  EXPECT_EQ(engine.total_live_bytes(), 0u);
}

}  // namespace
}  // namespace vitex::twigm
