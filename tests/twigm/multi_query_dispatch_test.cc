// Tests for the multi-query dispatch index: per-symbol posting lists must
// route each event only to interested machines (with broadcast fallbacks for
// wildcards, unanchored attributes and open recordings), while producing
// results identical to per-query Engine runs and to the DOM evaluator.

#include "twigm/multi_query.h"

#include <gtest/gtest.h>

#include <iterator>
#include <memory>
#include <string>
#include <vector>

#include "dom_reference.h"
#include "twigm/engine.h"
#include "workload/protein_generator.h"
#include "workload/xmark_generator.h"

namespace vitex::twigm {
namespace {

// Feeds `doc` in chunks of `chunk` bytes.
Status FeedChunked(MultiQueryEngine& engine, std::string_view doc,
                   size_t chunk) {
  for (size_t pos = 0; pos < doc.size(); pos += chunk) {
    VITEX_RETURN_IF_ERROR(engine.Feed(doc.substr(pos, chunk)));
  }
  return engine.Finish();
}

std::vector<std::string> SingleEngineRun(std::string_view query,
                                         std::string_view doc) {
  VectorResultCollector results;
  auto engine = Engine::Create(query, &results);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Status s = engine->RunString(doc);
  EXPECT_TRUE(s.ok()) << s;
  return results.SortedFragments();
}

TEST(MultiQueryDispatchTest, DisjointTagQueriesSkipUninterestedMachines) {
  // 8 queries over disjoint tags; the document mentions only two of them.
  MultiQueryEngine engine;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (const char* q : {"//alpha", "//bravo", "//charlie", "//delta",
                        "//echo", "//foxtrot", "//golf", "//hotel"}) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    ASSERT_TRUE(engine.AddQuery(q, handlers.back().get()).ok());
  }
  ASSERT_TRUE(
      engine.RunString("<r><alpha/><bravo/><alpha/><other/><other/></r>")
          .ok());
  EXPECT_EQ(handlers[0]->size(), 2u);
  EXPECT_EQ(handlers[1]->size(), 1u);
  for (size_t i = 2; i < handlers.size(); ++i) {
    EXPECT_EQ(handlers[i]->size(), 0u);
  }

  const DispatchStats& ds = engine.dispatch_stats();
  // 6 start events (r, 2×alpha, bravo, 2×other). Only the three events whose
  // tag some query names may visit machines: alpha twice, bravo once.
  EXPECT_EQ(ds.start_events, 6u);
  EXPECT_EQ(ds.start_visits, 3u);
  EXPECT_EQ(ds.end_visits, 3u);
  EXPECT_EQ(ds.broadcast_visits, 0u);
  // Naive fan-out would have been 6 events × 8 machines.
  EXPECT_LT(ds.start_visits, ds.start_events * engine.query_count());
}

TEST(MultiQueryDispatchTest, WildcardQueriesFallBackToBroadcast) {
  MultiQueryEngine engine;
  VectorResultCollector wild, named;
  ASSERT_TRUE(engine.AddQuery("//*", &wild).ok());
  ASSERT_TRUE(engine.AddQuery("//zzz", &named).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(wild.size(), 3u);
  EXPECT_EQ(named.size(), 0u);
  const DispatchStats& ds = engine.dispatch_stats();
  // The wildcard machine is visited on every element event.
  EXPECT_EQ(ds.start_visits, 3u);
  EXPECT_EQ(ds.broadcast_visits, 6u);  // 3 starts + 3 ends
}

TEST(MultiQueryDispatchTest, UnanchoredAttributesSeeEveryAttributedTag) {
  MultiQueryEngine engine;
  VectorResultCollector ids;
  ASSERT_TRUE(engine.AddQuery("//@id", &ids).ok());
  ASSERT_TRUE(
      engine.RunString("<r><x id=\"1\"/><y/><z id=\"2\" other=\"o\"/></r>")
          .ok());
  ASSERT_EQ(ids.SortedFragments(), (std::vector<std::string>{"1", "2"}));
  // Only the two attributed elements are dispatched; <r> and <y> carry none.
  EXPECT_EQ(engine.dispatch_stats().start_visits, 2u);
}

TEST(MultiQueryDispatchTest, RecordingMachineObservesForeignTags) {
  // While //keep's output fragment is open, the machine must see <other/>
  // and the text inside, even though its query never mentions them.
  MultiQueryEngine engine;
  VectorResultCollector keep;
  ASSERT_TRUE(engine.AddQuery("//keep", &keep).ok());
  ASSERT_TRUE(
      engine.RunString("<r><keep>a<other>b</other></keep><other/></r>").ok());
  ASSERT_EQ(keep.size(), 1u);
  EXPECT_EQ(keep.results()[0].fragment, "<keep>a<other>b</other></keep>");
  // The trailing <other/> outside the recording is not dispatched.
  const DispatchStats& ds = engine.dispatch_stats();
  EXPECT_EQ(ds.start_events, 4u);
  EXPECT_EQ(ds.start_visits, 2u);  // <keep> + recorded <other>
}

TEST(MultiQueryDispatchTest, MixedQueriesMatchSingleEngineRunsChunked) {
  workload::ProteinOptions options;
  options.entries = 40;
  auto doc = workload::GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());
  const char* queries[] = {
      "//ProteinEntry[reference]/@id",
      "//refinfo/@refid",
      "//ProteinEntry[summary/length > 300]//gene",
      "//*[year]/title",         // wildcard fallback
      "//organism//text()",      // text selection
      "//accinfo/@*",            // attribute wildcard
      "//zzz[never = 'seen']",   // matches nothing
  };
  std::vector<difftest::ResultSet> reference;
  for (const char* q : queries) {
    auto dom = difftest::Oracle::RunDom(q, doc.value());
    ASSERT_TRUE(dom.ok()) << dom.status();
    reference.push_back(std::move(dom).value());
  }
  for (size_t chunk : {1u, 7u, 4096u}) {
    MultiQueryEngine multi;
    std::vector<std::unique_ptr<VectorResultCollector>> handlers;
    for (const char* q : queries) {
      handlers.push_back(std::make_unique<VectorResultCollector>());
      ASSERT_TRUE(multi.AddQuery(q, handlers.back().get()).ok()) << q;
    }
    ASSERT_TRUE(FeedChunked(multi, doc.value(), chunk).ok());
    for (size_t i = 0; i < std::size(queries); ++i) {
      EXPECT_EQ(handlers[i]->SortedFragments(),
                SingleEngineRun(queries[i], doc.value()))
          << "query " << queries[i] << " chunk " << chunk;
      EXPECT_EQ(Sequenced(*handlers[i]), reference[i])
          << "query " << queries[i] << " chunk " << chunk;
    }
  }
}

TEST(MultiQueryDispatchTest, PerEventWorkSublinearInRegisteredQueries) {
  // Disjoint-tag standing queries: as registrations grow 1 -> 64, the
  // per-event machine visits must stay flat (the acceptance shape for
  // bench_multi_query's sublinear scaling).
  workload::XmarkOptions options;
  options.items_per_region = 5;
  auto doc = workload::GenerateXmarkString(options);
  ASSERT_TRUE(doc.ok());
  auto visits_with_n_queries = [&](int n) {
    MultiQueryEngine engine;
    // One real query plus n-1 queries over tags absent from the document.
    EXPECT_TRUE(engine.AddQuery("//item[incategory]/name", nullptr).ok());
    for (int i = 1; i < n; ++i) {
      EXPECT_TRUE(
          engine.AddQuery("//absent_tag_" + std::to_string(i), nullptr).ok());
    }
    EXPECT_TRUE(engine.RunString(doc.value()).ok());
    const DispatchStats& ds = engine.dispatch_stats();
    return ds.start_visits + ds.end_visits + ds.text_visits;
  };
  uint64_t v1 = visits_with_n_queries(1);
  uint64_t v64 = visits_with_n_queries(64);
  // Identical: the 63 extra machines are never visited.
  EXPECT_EQ(v64, v1);
}

TEST(MultiQueryDispatchTest, MemoryLimitAppliesToBufferedText) {
  // The dispatcher buffers text centrally; a machine's memory ceiling must
  // still stop a pathological text node, as per-machine buffering did.
  MultiQueryEngine engine;
  TwigMachine::Options options;
  options.memory_limit_bytes = 128;
  ASSERT_TRUE(engine.AddQuery("//a/text()", nullptr, options).ok());
  std::string doc = "<r><a>" + std::string(4096, 'x') + "</a></r>";
  Status s = engine.RunString(doc);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(MultiQueryDispatchTest, DocumentVocabularyDoesNotGrowSharedTable) {
  // The parser stamps symbols by lookup only: tags and attributes the
  // queries never mention must not mint ids, or a long-lived pub/sub table
  // would grow with every distinct name the stream ever carries.
  MultiQueryEngine engine;
  VectorResultCollector results;
  ASSERT_TRUE(engine.AddQuery("//a", &results).ok());
  size_t before = engine.symbols()->size();
  ASSERT_TRUE(
      engine.RunString("<r><a/><unseen1/><unseen2 attr=\"v\"/></r>").ok());
  EXPECT_EQ(engine.symbols()->size(), before);
  EXPECT_EQ(results.size(), 1u);
}

TEST(MultiQueryDispatchTest, ResetStreamAllowsLateRegistration) {
  MultiQueryEngine engine;
  VectorResultCollector first, second;
  ASSERT_TRUE(engine.AddQuery("//a", &first).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(first.size(), 1u);
  engine.ResetStream();
  // The dispatch index is rebuilt to cover the late machine.
  ASSERT_TRUE(engine.AddQuery("//b", &second).ok());
  ASSERT_TRUE(engine.RunString("<r><a/><b/></r>").ok());
  EXPECT_EQ(first.size(), 2u);
  EXPECT_EQ(second.size(), 1u);
}

}  // namespace
}  // namespace vitex::twigm
