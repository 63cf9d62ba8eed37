#include "twigm/machine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/interner.h"
#include "common/mutex.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "xpath/query.h"

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

// A leaf runs its value test only after its axis check found a parent entry
// to record the match in, and each test compares one literal per group.
// Every skeleton here is one plan of three groups (N = 1, 2, 3).
TEST(MachineBasicTest, ParamEvaluationsOnlyWhereMatchCanLand) {
  auto evaluations = [](std::string skeleton, std::string_view doc) {
    MultiQueryEngine engine;
    VectorResultCollector results;
    QueryId id = 0;
    const size_t n_at = skeleton.find('N');
    for (char n : {'1', '2', '3'}) {
      skeleton[n_at] = n;
      auto added = engine.AddQuery(skeleton, &results);
      EXPECT_TRUE(added.ok()) << added.status();
      id = added.value();
    }
    EXPECT_TRUE(engine.RunString(doc).ok());
    EXPECT_EQ(engine.dispatch_stats().machines, 1u) << skeleton;
    return engine.machine(id).stats().param_evaluations;
  };
  // The 7 under x/b has no open b entry (b is a's child), so it costs
  // nothing; the 7 under a/b is compared against all three groups.
  EXPECT_EQ(evaluations("//a[b > N]/c", "<a><x><b>7</b></x><b>7</b><c/></a>"),
            3u);
  // This b is not a child of a, so @k has no b entry to record into.
  EXPECT_EQ(evaluations("//a/b[@k = 'N']", "<a><x><b k=\"1\"/></x></a>"), 0u);
  EXPECT_EQ(evaluations("//a/b[@k = 'N']", "<a><b k=\"1\"/></a>"), 3u);
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
// interned at construction; only the heap-allocated QueryNode tree must
// stay alive, and the Query object itself may be moved freely. Everything
// a dispatcher reads off the machine is read here after the move, so a
// machine that kept a pointer to the Query object would read freed memory
// (ASan).
TEST(MachineBasicTest, MachineSurvivesQueryMove) {
  auto compiled = xpath::ParseAndCompile("//entry[meta/@kind = 'x']/payload");
  ASSERT_TRUE(compiled.ok());
  auto original = std::make_unique<xpath::Query>(std::move(compiled).value());
  SymbolTable symbols;
  TwigMachine machine(original.get(), TwigMachine::Options(), &symbols);

  // Move the Query value out of its original home. The moved-from shell is
  // destroyed; the QueryNode tree now lives in (and is kept alive by) the
  // new owner.
  auto relocated = std::make_unique<xpath::Query>(std::move(*original));
  original.reset();

  EXPECT_TRUE(machine.output_is_element());
  EXPECT_FALSE(machine.has_element_wildcard());
  EXPECT_FALSE(machine.has_unanchored_attributes());
  ASSERT_EQ(machine.element_index().size(), 3u);  // entry, meta, payload
  for (const auto& entry : machine.element_index()) {
    for (int id : entry.second) {
      EXPECT_EQ(symbols.name(entry.first),
                relocated->nodes()[static_cast<size_t>(id)]->name);
      EXPECT_EQ(machine.node_is_root(id), id == 0);
    }
  }
  std::string dump = machine.DebugString();
  EXPECT_EQ(static_cast<size_t>(std::count(dump.begin(), dump.end(), '\n')),
            relocated->size());
}

// Compiled queries get moved through vectors and across scopes before they
// are registered; each must still register and match.
TEST(MachineBasicTest, CompiledQuerySurvivesRelocation) {
  MultiQueryEngine engine;
  std::vector<xpath::Query> fleet;
  std::vector<std::unique_ptr<VectorResultCollector>> handlers;
  for (int i = 0; i < 16; ++i) {
    handlers.push_back(std::make_unique<VectorResultCollector>());
    auto compiled = xpath::ParseAndCompile("//tag_" + std::to_string(i));
    ASSERT_TRUE(compiled.ok());
    fleet.push_back(std::move(compiled).value());  // repeated reallocation
  }
  for (size_t i = 0; i < fleet.size(); ++i) {
    std::vector<xpath::Query> branches;
    branches.push_back(std::move(fleet[i]));
    ASSERT_TRUE(
        engine.AddQuery(std::move(branches), handlers[i].get()).ok());
  }
  ASSERT_TRUE(engine.RunString("<r><tag_7/><tag_7/></r>").ok());
  EXPECT_EQ(handlers[7]->size(), 2u);
  for (int i = 0; i < 16; ++i) {
    if (i != 7) {
      EXPECT_EQ(handlers[i]->size(), 0u);
    }
  }
}

// StreamService interns the names TwigMachine::InternsName selects, freezes
// the table, and only then lets a shard build the machine — so on the
// frozen table every Intern the constructor makes must be a lookup. A name
// the walk missed would assert in a debug build and, in a release build,
// stamp kNoSymbol into the match index (for an element, sizing the
// dispatcher's postings to 2^32; for an attribute, turning the test into
// '@*'). Construction against an unfrozen table mints exactly what the
// constructor interns, so comparing the two tables catches a miss in any
// build.
TEST(MachineBasicTest, InternsNameCoversConstruction) {
  for (const char* text :
       {"//a/b", "//*/c", "/a/*", "//a/@k", "//a/@*", "//@id", "//a//@k",
        "//a//@*", "//a/text()", "//text()", "//a[b = '1']/c[@k > 2]",
        "//a[not(b/text() = 'x')]//@*", "//x/y | //*[@z] | //w/text()"}) {
    auto branches = xpath::ParseAndCompileUnion(text);
    ASSERT_TRUE(branches.ok()) << text;
    SymbolTable walked;
    {
      WriterMutexLock lock(walked.mu());
      for (const xpath::Query& branch : branches.value()) {
        for (const auto& node : branch.nodes()) {
          if (TwigMachine::InternsName(*node)) walked.Intern(node->name);
        }
      }
      walked.Freeze();
    }
    const size_t size = walked.size();
    SymbolTable minted;  // build phase: the constructor mints what it needs
    for (const xpath::Query& branch : branches.value()) {
      TwigMachine machine(&branch, TwigMachine::Options(), &walked);
      for (const auto& entry : machine.element_index()) {
        EXPECT_LT(entry.first, size) << text;
      }
      TwigMachine unfrozen(&branch, TwigMachine::Options(), &minted);
    }
    EXPECT_EQ(walked.size(), size) << text;
    ASSERT_EQ(minted.size(), size) << text;
    for (Symbol s = 0; s < minted.size(); ++s) {
      EXPECT_NE(walked.Lookup(minted.name(s)), kNoSymbol)
          << text << ": " << minted.name(s);
    }
  }
}

}  // namespace
}  // namespace vitex::twigm
