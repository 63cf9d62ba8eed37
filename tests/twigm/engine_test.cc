#include "twigm/engine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <vector>

#include "workload/protein_generator.h"
#include "xpath/query.h"

namespace vitex::twigm {
namespace {

TEST(EngineTest, CallerSuppliedSymbolTableIsHonored) {
  // Engine::Create must build the machine against a table the caller put in
  // options.sax.symbols (not silently swap in a private one), so tables can
  // be shared across pipelines.
  SymbolTable shared;
  Engine::Options options;
  options.sax.symbols = &shared;
  VectorResultCollector results;
  auto engine = Engine::Create("//widget", &results, options);
  ASSERT_TRUE(engine.ok());
  EXPECT_NE(shared.Lookup("widget"), kNoSymbol);
  ASSERT_TRUE(engine->RunString("<r><widget/></r>").ok());
  EXPECT_EQ(results.size(), 1u);
}

TEST(EngineTest, CreateRejectsBadQueries) {
  EXPECT_FALSE(Engine::Create("not-an-xpath", nullptr).ok());
  EXPECT_FALSE(Engine::Create("", nullptr).ok());
  EXPECT_FALSE(Engine::Create("//a[", nullptr).ok());
}

TEST(EngineTest, QueryAccessorExposesCompiledTwig) {
  auto engine = Engine::Create("//a[b]//c", nullptr);
  ASSERT_TRUE(engine.ok());
  EXPECT_EQ(engine->query().size(), 3u);
  EXPECT_EQ(engine->query().source(), "//a[b]//c");
}

TEST(EngineTest, MalformedXmlSurfacesParseError) {
  auto engine = Engine::Create("//a", nullptr);
  ASSERT_TRUE(engine.ok());
  Status s = engine->RunString("<a><b></a>");
  EXPECT_TRUE(s.IsParseError());
}

TEST(EngineTest, IncrementalResultsBeforeStreamEnd) {
  // Results must flow out as soon as qualification is proven, not at
  // document end (paper requirement 2).
  VectorResultCollector results;
  auto engine = Engine::Create("//item", &results);
  ASSERT_TRUE(engine.ok());
  ASSERT_TRUE(engine->Feed("<feed><item>1</item>").ok());
  EXPECT_EQ(results.size(), 1u);  // emitted before the stream ends
  ASSERT_TRUE(engine->Feed("<item>2</item></feed>").ok());
  ASSERT_TRUE(engine->Finish().ok());
  EXPECT_EQ(results.size(), 2u);
}

TEST(EngineTest, RunFileMatchesRunString) {
  workload::ProteinOptions options;
  options.entries = 20;
  auto doc = workload::GenerateProteinString(options);
  ASSERT_TRUE(doc.ok());

  std::string path = ::testing::TempDir() + "/vitex_engine_test.xml";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fwrite(doc->data(), 1, doc->size(), f);
    std::fclose(f);
  }

  const char* query = "//ProteinEntry[reference]/@id";
  VectorResultCollector from_string;
  auto e1 = Engine::Create(query, &from_string);
  ASSERT_TRUE(e1.ok());
  ASSERT_TRUE(e1->RunString(doc.value()).ok());

  VectorResultCollector from_file;
  auto e2 = Engine::Create(query, &from_file);
  ASSERT_TRUE(e2.ok());
  ASSERT_TRUE(e2->RunFile(path, /*chunk_bytes=*/512).ok());

  EXPECT_EQ(from_string.SortedFragments(), from_file.SortedFragments());
  EXPECT_GT(from_string.size(), 0u);
  std::remove(path.c_str());
}

TEST(EngineTest, RunFileMissingFileFails) {
  auto engine = Engine::Create("//a", nullptr);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->RunFile("/no/such/file.xml").IsIoError());
}

// A zero-byte read size would read 0 bytes forever: rejected up front,
// before anything is fed, so the engine still runs the file afterwards.
TEST(EngineTest, RunFileRejectsZeroChunk) {
  std::string path = ::testing::TempDir() + "/vitex_engine_zero_chunk.xml";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("<r><a/><a/></r>", f);
    std::fclose(f);
  }
  VectorResultCollector results;
  auto engine = Engine::Create("//a", &results);
  ASSERT_TRUE(engine.ok());
  EXPECT_TRUE(engine->RunFile(path, /*chunk_bytes=*/0).IsInvalidArgument());
  EXPECT_EQ(results.size(), 0u);
  ASSERT_TRUE(engine->RunFile(path, /*chunk_bytes=*/4).ok());
  EXPECT_EQ(results.size(), 2u);
  std::remove(path.c_str());
}

TEST(EngineTest, MoveSemantics) {
  VectorResultCollector results;
  auto engine = Engine::Create("//a", &results);
  ASSERT_TRUE(engine.ok());
  Engine moved = std::move(engine).value();
  ASSERT_TRUE(moved.RunString("<a/>").ok());
  EXPECT_EQ(results.size(), 1u);
}

// The paper's TwigM builder (§3.1) is the machine's constructor, which
// MultiQueryEngine runs on a plan miss. A query the caller compiled
// registers as it is, without a second compile.
TEST(BuilderTest, BuildFromPrecompiledQuery) {
  auto compiled = xpath::ParseAndCompile("//a[b]");
  ASSERT_TRUE(compiled.ok());
  std::vector<xpath::Query> branches;
  branches.push_back(std::move(compiled).value());
  MultiQueryEngine engine;
  VectorResultCollector results;
  auto id = engine.AddQuery(std::move(branches), &results);
  ASSERT_TRUE(id.ok()) << id.status();
  EXPECT_EQ(engine.query(id.value()).size(), 2u);
  EXPECT_EQ(engine.machine_count(), 1u);
  ASSERT_TRUE(engine.RunString("<r><a><b/></a><a/></r>").ok());
  EXPECT_EQ(results.size(), 1u);
}

TEST(BuilderTest, NullQueryRejected) {
  MultiQueryEngine engine;
  EXPECT_TRUE(engine.AddQuery(std::vector<xpath::Query>(), nullptr)
                  .status()
                  .IsInvalidArgument());
  auto compiled = xpath::ParseAndCompile("//a");
  ASSERT_TRUE(compiled.ok());
  std::vector<xpath::Query> branches;
  branches.push_back(std::move(compiled).value());
  xpath::Query taken = std::move(branches[0]);  // leaves an empty shell
  EXPECT_TRUE(engine.AddQuery(std::move(branches), nullptr)
                  .status()
                  .IsInvalidArgument());
  EXPECT_EQ(engine.query_count(), 0u);
  EXPECT_EQ(engine.machine_count(), 0u);
}

TEST(BuilderTest, MachineNodeCountEqualsQuerySize) {
  // Paper §3.1: one machine node per query node, built in linear time.
  for (const char* q : {"//a", "//a[b]", "//a[b][c]//d[e/f]//g"}) {
    MultiQueryEngine engine;
    auto id = engine.AddQuery(q, nullptr);
    ASSERT_TRUE(id.ok());
    const xpath::Query& query = engine.query(id.value());
    EXPECT_GT(query.size(), 0u);
    // DebugString lists one "node N" line per machine node.
    std::string dump = engine.machine(id.value()).DebugString();
    size_t lines = std::count(dump.begin(), dump.end(), '\n');
    EXPECT_EQ(lines, query.size()) << q;
  }
}

TEST(ResultCollectorTest, SortedFragmentsOrdersBySequence) {
  VectorResultCollector c;
  c.OnResult("third", 30);
  c.OnResult("first", 10);
  c.OnResult("second", 20);
  std::vector<std::string> expected = {"first", "second", "third"};
  EXPECT_EQ(c.SortedFragments(), expected);
}

TEST(ResultCollectorTest, CountingHandlerCounts) {
  CountingResultHandler h;
  h.OnResult("abc", 1);
  h.OnResult("de", 2);
  EXPECT_EQ(h.count(), 2u);
  EXPECT_EQ(h.bytes(), 5u);
  h.Reset();
  EXPECT_EQ(h.count(), 0u);
}

}  // namespace
}  // namespace vitex::twigm
