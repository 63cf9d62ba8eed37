#include "xml/event_log.h"

#include <gtest/gtest.h>

#include "common/random.h"
#include "twigm/engine.h"
#include "twigm/multi_query.h"
#include "workload/random_generator.h"
#include "xml/sax_parser.h"

namespace vitex::xml {
namespace {

class TraceHandler : public ContentHandler {
 public:
  Status StartElement(const StartElementEvent& event) override {
    trace.push_back("S:" + std::string(event.name) + ":" +
                    std::to_string(event.depth));
    for (const Attribute& a : event.attributes) {
      trace.push_back("A:" + std::string(a.name) + "=" + std::string(a.value));
    }
    return Status::OK();
  }
  Status EndElement(std::string_view name, int depth) override {
    trace.push_back("E:" + std::string(name) + ":" + std::to_string(depth));
    return Status::OK();
  }
  Status Text(const TextEvent& event) override {
    trace.push_back("T:" + std::string(event.text) + ":" +
                    std::to_string(event.depth));
    return Status::OK();
  }
  std::vector<std::string> trace;
};

TEST(EventLogTest, RecordAndReplayBasics) {
  auto log = RecordEvents(R"(<a x="1">t<b/></a>)");
  ASSERT_TRUE(log.ok()) << log.status();
  EXPECT_EQ(log->size(), 5u);  // start a, text, start b, end b, end a

  TraceHandler direct, replayed;
  ASSERT_TRUE(ParseString(R"(<a x="1">t<b/></a>)", &direct).ok());
  ASSERT_TRUE(log->Replay(&replayed).ok());
  EXPECT_EQ(direct.trace, replayed.trace);
}

TEST(EventLogTest, ReplayIsRepeatable) {
  auto log = RecordEvents("<a><b>x</b></a>");
  ASSERT_TRUE(log.ok());
  TraceHandler first, second;
  ASSERT_TRUE(log->Replay(&first).ok());
  ASSERT_TRUE(log->Replay(&second).ok());
  EXPECT_EQ(first.trace, second.trace);
}

TEST(EventLogTest, RandomDocumentsRoundTrip) {
  Random rng(31);
  workload::RandomDocOptions options;
  options.max_elements = 60;
  for (int i = 0; i < 25; ++i) {
    std::string doc = workload::GenerateRandomDocument(options, &rng);
    auto log = RecordEvents(doc);
    ASSERT_TRUE(log.ok());
    TraceHandler direct, replayed;
    ASSERT_TRUE(ParseString(doc, &direct).ok());
    ASSERT_TRUE(log->Replay(&replayed).ok());
    EXPECT_EQ(direct.trace, replayed.trace) << doc;
  }
}

TEST(EventLogTest, TwigMOnReplayMatchesTwigMOnParse) {
  Random rng(77);
  workload::RandomDocOptions doc_options;
  doc_options.max_elements = 60;
  workload::RandomQueryOptions query_options;
  for (int i = 0; i < 15; ++i) {
    std::string doc = workload::GenerateRandomDocument(doc_options, &rng);
    std::string query = workload::GenerateRandomQuery(query_options, &rng);

    twigm::VectorResultCollector parsed;
    auto engine = twigm::Engine::Create(query, &parsed);
    ASSERT_TRUE(engine.ok());
    ASSERT_TRUE(engine->RunString(doc).ok());

    // Recorded without the engine's table: the replay carries no symbol
    // stamps, so the dispatcher resolves every tag itself.
    auto log = RecordEvents(doc);
    ASSERT_TRUE(log.ok());
    twigm::MultiQueryEngine replay_engine;
    twigm::VectorResultCollector replayed;
    ASSERT_TRUE(replay_engine.AddQuery(query, &replayed).ok());
    ASSERT_TRUE(replay_engine.RunEvents(log.value()).ok());

    EXPECT_EQ(parsed.SortedFragments(), replayed.SortedFragments())
        << "query " << query << "\ndoc " << doc;
  }
}

// Replay must preserve the producer's stamps: interned symbols and
// document-order sequence numbers. (A replay that drops them silently
// desynchronizes symbol-aware consumers — the multi-query dispatcher would
// fall back to broadcast-or-miss, and the sequence-keyed dedup of union
// subscriptions would double-report.)
class StampTraceHandler : public ContentHandler {
 public:
  Status StartElement(const StartElementEvent& event) override {
    trace.push_back("S:" + std::string(event.name) + ":" +
                    std::to_string(event.symbol) + ":" +
                    std::to_string(event.sequence));
    for (const Attribute& a : event.attributes) {
      trace.push_back("A:" + std::string(a.name) + ":" +
                      std::to_string(a.symbol));
    }
    return Status::OK();
  }
  Status Text(const TextEvent& event) override {
    trace.push_back("T:" + std::string(event.text) + ":" +
                    std::to_string(event.sequence));
    return Status::OK();
  }
  std::vector<std::string> trace;
};

TEST(EventLogTest, SymbolAndSequenceStampsRoundTrip) {
  const std::string doc =
      R"(<news><article id="1" cat="eu"><headline>hi</headline></article>)"
      R"(<other/><article id="2">x</article></news>)";
  SymbolTable symbols;
  // Pre-intern the "query vocabulary"; parser stamping is lookup-only.
  symbols.Intern("article");
  symbols.Intern("headline");
  symbols.Intern("id");
  SaxParserOptions options;
  options.symbols = &symbols;

  StampTraceHandler direct;
  ASSERT_TRUE(ParseString(doc, &direct, options).ok());
  // The direct parse stamped real symbols and sequences (sanity).
  ASSERT_FALSE(direct.trace.empty());
  EXPECT_NE(direct.trace[1].find(":article:"), std::string::npos);

  auto log = RecordEvents(doc, options);
  ASSERT_TRUE(log.ok());
  StampTraceHandler replayed;
  ASSERT_TRUE(log->Replay(&replayed).ok());
  EXPECT_EQ(direct.trace, replayed.trace);
}

TEST(EventLogTest, RandomDocumentStampsRoundTrip) {
  Random rng(93);
  workload::RandomDocOptions options;
  options.max_elements = 60;
  for (int i = 0; i < 10; ++i) {
    std::string doc = workload::GenerateRandomDocument(options, &rng);
    SymbolTable direct_symbols, recorded_symbols;
    SaxParserOptions direct_options, recorded_options;
    direct_options.symbols = &direct_symbols;
    recorded_options.symbols = &recorded_symbols;

    StampTraceHandler direct, replayed;
    ASSERT_TRUE(ParseString(doc, &direct, direct_options).ok());
    auto log = RecordEvents(doc, recorded_options);
    ASSERT_TRUE(log.ok());
    ASSERT_TRUE(log->Replay(&replayed).ok());
    EXPECT_EQ(direct.trace, replayed.trace) << doc;
  }
}

TEST(EventLogTest, UnstampedRecordingsReplayUnstamped) {
  // No table, no producer stamps: replay must deliver kNoSymbol /
  // kNoSequence untouched... except sequences, which the parser always
  // stamps. Attribute and element symbols stay kAbsentSymbol-free.
  auto log = RecordEvents("<a x=\"1\">t</a>");
  ASSERT_TRUE(log.ok());
  StampTraceHandler replayed;
  ASSERT_TRUE(log->Replay(&replayed).ok());
  ASSERT_EQ(replayed.trace.size(), 3u);
  EXPECT_EQ(replayed.trace[0],
            "S:a:" + std::to_string(kNoSymbol) + ":0");
  EXPECT_EQ(replayed.trace[1], "A:x:" + std::to_string(kNoSymbol));
}

TEST(EventLogTest, MemoryAccounting) {
  auto log = RecordEvents("<a><b>hello</b></a>");
  ASSERT_TRUE(log.ok());
  EXPECT_GT(log->memory_bytes(), 0u);
  size_t before = log->memory_bytes();
  log->Clear();
  EXPECT_TRUE(log->empty());
  EXPECT_LT(log->memory_bytes(), before);
}

TEST(EventLogTest, HandlerAbortPropagates) {
  class Abort : public ContentHandler {
    Status Text(const TextEvent&) override {
      return Status::Unsupported("no text please");
    }
  } abort_handler;
  auto log = RecordEvents("<a>t</a>");
  ASSERT_TRUE(log.ok());
  EXPECT_TRUE(log->Replay(&abort_handler).IsUnsupported());
}

}  // namespace
}  // namespace vitex::xml
