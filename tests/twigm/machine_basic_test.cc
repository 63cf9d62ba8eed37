#include "twigm/machine.h"

#include <gtest/gtest.h>

#include "twigm/builder.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"

namespace vitex::twigm {
namespace {

// Runs `query` over `doc` and returns the fragments in document order.
std::vector<std::string> EvalQuery(std::string_view query, std::string_view doc) {
  VectorResultCollector results;
  auto engine = Engine::Create(query, &results);
  EXPECT_TRUE(engine.ok()) << engine.status();
  Status s = engine->RunString(doc);
  EXPECT_TRUE(s.ok()) << s;
  return results.SortedFragments();
}

TEST(MachineBasicTest, SingleElementMatch) {
  auto r = EvalQuery("//a", "<a/>");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], "<a/>");
}

TEST(MachineBasicTest, RootChildAxis) {
  EXPECT_EQ(EvalQuery("/a", "<a/>").size(), 1u);
  EXPECT_EQ(EvalQuery("/b", "<a><b/></a>").size(), 0u);  // b is not the root
}

TEST(MachineBasicTest, ChildAxisExactDepth) {
  auto r = EvalQuery("/a/b", "<a><b/><c><b/></c></a>");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], "<b/>");
}

TEST(MachineBasicTest, DescendantAxisAllDepths) {
  auto r = EvalQuery("//b", "<a><b/><c><b/></c></a>");
  EXPECT_EQ(r.size(), 2u);
}

TEST(MachineBasicTest, DescendantIsStrict) {
  // //a//a requires two distinct nested a's.
  EXPECT_EQ(EvalQuery("//a//a", "<a/>").size(), 0u);
  EXPECT_EQ(EvalQuery("//a//a", "<a><a/></a>").size(), 1u);
}

TEST(MachineBasicTest, SubtreeFragmentSerialized) {
  auto r = EvalQuery("//b", "<a><b x=\"1\">t<c/>u</b></a>");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], "<b x=\"1\">t<c/>u</b>");
}

TEST(MachineBasicTest, TextEscapedInFragments) {
  auto r = EvalQuery("//b", "<a><b>x&lt;y&amp;z</b></a>");
  ASSERT_EQ(r.size(), 1u);
  EXPECT_EQ(r[0], "<b>x&lt;y&amp;z</b>");
}

TEST(MachineBasicTest, WildcardStep) {
  auto r = EvalQuery("/a/*", "<a><b/><c/></a>");
  EXPECT_EQ(r.size(), 2u);
}

TEST(MachineBasicTest, WildcardDescendant) {
  auto r = EvalQuery("//*", "<a><b><c/></b></a>");
  EXPECT_EQ(r.size(), 3u);
}

TEST(MachineBasicTest, MixedAxesChain) {
  auto r = EvalQuery("/a//c/d", "<a><b><c><d/></c></b><c><e><d/></e></c></a>");
  // First d: parent c — matches. Second d: parent e — child axis fails.
  ASSERT_EQ(r.size(), 1u);
}

TEST(MachineBasicTest, AttributeOutput) {
  auto r = EvalQuery("//b/@id", "<a><b id=\"one\"/><b id=\"two\"/><b/></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "one");
  EXPECT_EQ(r[1], "two");
}

TEST(MachineBasicTest, DescendantAttributeIncludesSelf) {
  // //b//@id: id of b itself or of any descendant.
  auto r = EvalQuery("//b//@id", "<a><b id=\"self\"><c id=\"deep\"/></b></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "self");
  EXPECT_EQ(r[1], "deep");
}

TEST(MachineBasicTest, ChildAttributeExcludesDescendants) {
  auto r = EvalQuery("//b/@id", "<a><b><c id=\"deep\"/></b></a>");
  EXPECT_EQ(r.size(), 0u);
}

TEST(MachineBasicTest, BareAttributeQuery) {
  auto r = EvalQuery("//@id", "<a id=\"1\"><b id=\"2\"/><c x=\"3\"/></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "1");
  EXPECT_EQ(r[1], "2");
}

TEST(MachineBasicTest, AttributeWildcard) {
  auto r = EvalQuery("//b/@*", "<a><b x=\"1\" y=\"2\"/></a>");
  EXPECT_EQ(r.size(), 2u);
}

TEST(MachineBasicTest, TextOutput) {
  auto r = EvalQuery("//b/text()", "<a><b>hello</b><b>world</b></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "hello");
  EXPECT_EQ(r[1], "world");
}

TEST(MachineBasicTest, TextOutputIsDirectOnly) {
  auto r = EvalQuery("//b/text()", "<a><b><c>inner</c></b></a>");
  EXPECT_EQ(r.size(), 0u);
}

TEST(MachineBasicTest, DescendantTextOutput) {
  auto r = EvalQuery("//b//text()", "<a><b>x<c>y</c></b></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "x");
  EXPECT_EQ(r[1], "y");
}

TEST(MachineBasicTest, BareTextQuery) {
  auto r = EvalQuery("//text()", "<a>x<b>y</b></a>");
  EXPECT_EQ(r.size(), 2u);
}

TEST(MachineBasicTest, MixedContentTextNodes) {
  // <b>x<c/>y</b>: two text nodes under b.
  auto r = EvalQuery("//b/text()", "<a><b>x<c/>y</b></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "x");
  EXPECT_EQ(r[1], "y");
}

TEST(MachineBasicTest, NoMatchesOnForeignDocument) {
  EXPECT_EQ(EvalQuery("//zzz", "<a><b/><c/></a>").size(), 0u);
}

TEST(MachineBasicTest, NestedOutputMatchesBothEmitted) {
  auto r = EvalQuery("//a", "<a><a/></a>");
  ASSERT_EQ(r.size(), 2u);
  EXPECT_EQ(r[0], "<a><a/></a>");
  EXPECT_EQ(r[1], "<a/>");
}

TEST(MachineBasicTest, DeeplyNestedOutputs) {
  auto r = EvalQuery("//a", "<a><a><a><a/></a></a></a>");
  EXPECT_EQ(r.size(), 4u);
}

TEST(MachineBasicTest, StacksEmptyAtEnd) {
  VectorResultCollector results;
  auto engine = Engine::Create("//a[b]//c", &results);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RunString("<a><b/><c/><a><c/></a></a>").ok());
  EXPECT_EQ(engine->machine().live_stack_entries(), 0u);
}

TEST(MachineBasicTest, StatsCountEvents) {
  VectorResultCollector results;
  auto engine = Engine::Create("//b", &results);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RunString("<a><b>t</b><b/></a>").ok());
  // The stats count the events dispatched to the machine: both b tags and
  // the text inside the first (recorded into its fragment), but not the a
  // tags, which no query node names.
  const MachineStats& stats = engine->machine().stats();
  EXPECT_EQ(stats.start_events, 2u);
  EXPECT_EQ(stats.end_events, 2u);
  EXPECT_EQ(stats.text_events, 1u);
  EXPECT_EQ(stats.pushes, 2u);  // two b entries
  EXPECT_EQ(stats.results_emitted, 2u);
}

TEST(MachineBasicTest, ReuseAcrossDocuments) {
  VectorResultCollector results;
  auto engine = Engine::Create("//b", &results);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->RunString("<a><b/></a>").ok());
  engine->ResetStream();
  ASSERT_TRUE(engine->RunString("<x><b/><b/></x>").ok());
  // Collector accumulated across both documents: 1 + 2.
  EXPECT_EQ(results.size(), 3u);
}

TEST(MachineBasicTest, MemoryLimitEnforced) {
  Engine::Options options;
  options.machine.memory_limit_bytes = 128;
  VectorResultCollector results;
  auto engine = Engine::Create("//a", &results, options);
  ASSERT_TRUE(engine.ok());
  // A large subtree must be recorded for the output candidate, exceeding
  // the 128-byte cap.
  std::string doc = "<a>";
  for (int i = 0; i < 100; ++i) doc += "<b>some text content</b>";
  doc += "</a>";
  Status s = engine->RunString(doc);
  EXPECT_TRUE(s.IsResourceExhausted()) << s;
}

TEST(MachineBasicTest, EmptyResultHandlerAllowed) {
  auto engine = Engine::Create("//a", nullptr);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->RunString("<a><a/></a>").ok());
  EXPECT_EQ(engine->machine().stats().results_emitted, 2u);
}

// Regression: the pre-symbol machine indexed element tests in a map keyed by
// string_views into query-owned storage, so the machine's correctness hung
// on the Query staying exactly where it was built. Name tests are now
// interned into the engine's SymbolTable at construction; only the
// heap-allocated QueryNode tree must stay alive, and the Query object itself
// may be moved freely (as BuiltMachine and container reallocation do). The
// dispatcher builds its index after the move, so a machine that kept a
// pointer to the Query object would read freed memory here (ASan).
TEST(MachineBasicTest, MachineSurvivesQueryMove) {
  auto compiled = xpath::ParseAndCompile("//entry[meta/@kind = 'x']/payload");
  ASSERT_TRUE(compiled.ok());
  auto original = std::make_unique<xpath::Query>(std::move(compiled).value());
  MultiQueryEngine engine;
  VectorResultCollector results;
  auto machine = std::make_unique<TwigMachine>(
      original.get(), TwigMachine::Options(), engine.symbols());

  // Move the Query value out of its original home. The moved-from shell is
  // destroyed; the QueryNode tree now lives in (and is kept alive by) the
  // new owner.
  auto relocated = std::make_unique<xpath::Query>(std::move(*original));
  original.reset();

  std::vector<BuiltMachine> branches;
  branches.emplace_back(std::move(relocated), std::move(machine));
  ASSERT_TRUE(engine.AddBuilt(std::move(branches), &results).ok());
  ASSERT_TRUE(
      engine
          .RunString(
              "<r><entry><meta kind=\"x\"/><payload>p1</payload></entry>"
              "<entry><meta kind=\"y\"/><payload>p2</payload></entry></r>")
          .ok());
  ASSERT_EQ(results.size(), 1u);
  EXPECT_EQ(results.results()[0].fragment, "<payload>p1</payload>");
}

// The bundled form: BuiltMachine values get moved through vectors and across
// scopes; machines must keep matching afterwards.
TEST(MachineBasicTest, BuiltMachineSurvivesRelocation) {
  MultiQueryEngine engine;
  std::vector<BuiltMachine> fleet;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (int i = 0; i < 16; ++i) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    auto built = TwigMBuilder::Build("//tag_" + std::to_string(i),
                                     TwigMachine::Options(), engine.symbols());
    ASSERT_TRUE(built.ok());
    fleet.push_back(std::move(built).value());  // repeated reallocation
  }
  for (size_t i = 0; i < fleet.size(); ++i) {
    std::vector<BuiltMachine> branches;
    branches.push_back(std::move(fleet[i]));
    ASSERT_TRUE(
        engine.AddBuilt(std::move(branches), handlers[i].get()).ok());
  }
  ASSERT_TRUE(engine.RunString("<r><tag_7/><tag_7/></r>").ok());
  EXPECT_EQ(handlers[7]->size(), 2u);
  for (int i = 0; i < 16; ++i) {
    if (i != 7) {
      EXPECT_EQ(handlers[i]->size(), 0u);
    }
  }
}

}  // namespace
}  // namespace vitex::twigm
