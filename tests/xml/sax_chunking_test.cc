// Property tests: the parser must produce identical event sequences no
// matter how the input stream is chunked — the defining property of a
// streaming (push) parser.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/random.h"
#include "feed_split_helpers.h"
#include "workload/random_generator.h"
#include "xml/sax_parser.h"

namespace vitex::xml {
namespace {

class CollectingHandler : public ContentHandler {
 public:
  Status StartElement(const StartElementEvent& event) override {
    events.push_back("S:" + std::string(event.name) + ":" +
                     std::to_string(event.depth));
    for (const Attribute& a : event.attributes) {
      events.push_back("A:" + std::string(a.name) + "=" +
                       std::string(a.value));
    }
    return Status::OK();
  }
  Status EndElement(std::string_view name, int depth) override {
    events.push_back("E:" + std::string(name) + ":" + std::to_string(depth));
    return Status::OK();
  }
  Status Text(const TextEvent& event) override {
    // Adjacent text events are concatenated: chunking may split a text node
    // arbitrarily, so the canonical form merges runs.
    std::string tag = "T:" + std::to_string(event.depth) + ":";
    if (!events.empty() && events.back().rfind(tag, 0) == 0) {
      events.back() += std::string(event.text);
    } else {
      events.push_back(tag + std::string(event.text));
    }
    return Status::OK();
  }

  std::vector<std::string> events;
};

std::vector<std::string> ParseChunked(const std::string& doc,
                                      size_t chunk_size) {
  CollectingHandler handler;
  SaxParser parser(&handler);
  for (size_t i = 0; i < doc.size(); i += chunk_size) {
    size_t len = std::min(chunk_size, doc.size() - i);
    Status s = parser.Feed(std::string_view(doc).substr(i, len));
    EXPECT_TRUE(s.ok()) << "chunk_size=" << chunk_size << ": " << s;
    if (!s.ok()) return handler.events;
  }
  Status s = parser.Finish();
  EXPECT_TRUE(s.ok()) << "chunk_size=" << chunk_size << ": " << s;
  return handler.events;
}

// A document exercising every token kind, designed so chunk boundaries land
// inside tags, attribute values, entities, CDATA markers and comments.
const char kTortureDoc[] =
    R"(<?xml version="1.0"?><!DOCTYPE r [<!ELEMENT r ANY>]><r a="1&amp;2">)"
    R"(text &lt;here&gt; more<!-- a comment --><child x="y z">nested)"
    R"(<![CDATA[raw <> & data]]>tail</child><empty/>&#65;&#x42;</r>)";

class ChunkSizeTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ChunkSizeTest, EventsIndependentOfChunking) {
  std::string doc(kTortureDoc);
  std::vector<std::string> whole = ParseChunked(doc, doc.size());
  std::vector<std::string> chunked = ParseChunked(doc, GetParam());
  EXPECT_EQ(whole, chunked) << "chunk size " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(AllSizes, ChunkSizeTest,
                         ::testing::Values(1, 2, 3, 5, 7, 13, 31, 64, 257));

TEST(ChunkingPropertyTest, RandomDocumentsAllChunkings) {
  Random rng(2024);
  workload::RandomDocOptions options;
  options.max_elements = 60;
  for (int trial = 0; trial < 20; ++trial) {
    std::string doc = workload::GenerateRandomDocument(options, &rng);
    std::vector<std::string> whole = ParseChunked(doc, doc.size());
    for (size_t chunk : {1, 3, 17}) {
      EXPECT_EQ(whole, ParseChunked(doc, chunk))
          << "trial " << trial << " chunk " << chunk << "\ndoc: " << doc;
    }
  }
}

TEST(ChunkingPropertyTest, RandomChunkBoundaries) {
  Random rng(99);
  workload::RandomDocOptions options;
  options.max_elements = 40;
  for (int trial = 0; trial < 10; ++trial) {
    std::string doc = workload::GenerateRandomDocument(options, &rng);
    std::vector<std::string> whole = ParseChunked(doc, doc.size());
    // Random split points.
    CollectingHandler handler;
    SaxParser parser(&handler);
    size_t pos = 0;
    while (pos < doc.size()) {
      size_t len = 1 + rng.Uniform(9);
      len = std::min(len, doc.size() - pos);
      ASSERT_TRUE(parser.Feed(std::string_view(doc).substr(pos, len)).ok());
      pos += len;
    }
    ASSERT_TRUE(parser.Finish().ok());
    EXPECT_EQ(whole, handler.events) << "trial " << trial;
  }
}

TEST(ChunkingTest, ErrorDetectionIndependentOfChunking) {
  const std::string bad = "<a><b>mismatch</a></b>";
  const size_t chunks[] = {1, 4, bad.size()};
  for (size_t chunk : chunks) {
    CollectingHandler handler;
    SaxParser parser(&handler);
    Status status = Status::OK();
    for (size_t i = 0; i < bad.size() && status.ok(); i += chunk) {
      status = parser.Feed(
          std::string_view(bad).substr(i, std::min(chunk, bad.size() - i)));
    }
    if (status.ok()) status = parser.Finish();
    EXPECT_TRUE(status.IsParseError()) << "chunk " << chunk;
  }
}

// ---------------------------------------------------------------------------
// FeedSplitEverywhere corpus: every document below is parsed whole, at every
// two-chunk split point, and byte at a time; the canonical event streams
// (including sequence stamps) and final statuses must be identical. This is
// the satellite harness that found / pins the whitespace-staging fixes.
// ---------------------------------------------------------------------------

TEST(FeedSplitEverywhereTest, WellFormednessCorpus) {
  const char* corpus[] = {
      kTortureDoc,
      "<a/>",
      "<a x=\"1\" y=\"2\"><b/>text</a>",
      "<a>one<b>two</b>three</a>",
      // Entities straddling any split point.
      "<a>a&amp;b&lt;c&gt;d&quot;e&apos;f</a>",
      "<a x=\"v&amp;w\">&#65;&#x42;</a>",
      // CDATA with markup-significant content and surrounding text.
      "<a>x<![CDATA[<not>&a;tag]]>y</a>",
      "<a><![CDATA[]]></a>",
      // Comments and PIs inside and between text pieces.
      "<a>x<!-- c -->y<?pi data?>z</a>",
      "<?xml version=\"1.0\"?><!-- lead --><a/><!-- trail -->",
      "<!DOCTYPE r [<!ENTITY x \"y\">]><r>t</r>",
      // Whitespace interacting with CDATA / comments / entities — the node-
      // level suppression cases.
      "<a>x<![CDATA[ ]]>y</a>",
      "<a> <![CDATA[x]]></a>",
      "<a><![CDATA[ ]]></a>",
      "<a>x<!--c--> </a>",
      "<a> <!--c--> </a>",
      "<a>&#32;</a>",
      "<a>&#x20;</a>",
      "<a> &#32; </a>",
      "<a>  <b/>  </a>",
      // Self-closing and deep nesting.
      "<a><b><c><d/></c></b></a>",
  };
  for (const char* doc : corpus) {
    FeedSplitEverywhere(doc, SaxParserOptions(), "skip_whitespace=true");
    SaxParserOptions keep_ws;
    keep_ws.skip_whitespace_text = false;
    FeedSplitEverywhere(doc, keep_ws, "skip_whitespace=false");
  }
}

TEST(FeedSplitEverywhereTest, ErrorCorpusFailsIdentically) {
  const char* corpus[] = {
      "<a><b>mismatch</a></b>",
      "<a>unclosed",
      "<a x=1></a>",
      "<a x=\"1></a>",
      "<a><!-- -- --></a>",
      "<a>&unknown;</a>",
      "<a/><b/>",
      "text outside<a/>",
  };
  for (const char* doc : corpus) {
    FeedSplitEverywhere(doc, SaxParserOptions(), "error corpus");
  }
}

TEST(FeedSplitEverywhereTest, RandomMarkupRichDocuments) {
  Random rng(4242);
  workload::RandomDocOptions options;
  options.max_elements = 25;
  options.comment_probability = 0.2;
  options.cdata_probability = 0.25;
  options.entity_probability = 0.25;
  options.padded_text_probability = 0.3;
  options.whitespace_text_probability = 0.2;
  for (int trial = 0; trial < 12; ++trial) {
    std::string doc = workload::GenerateRandomDocument(options, &rng);
    FeedSplitEverywhere(doc, SaxParserOptions(),
                        "random trial " + std::to_string(trial));
  }
}

// Regression: a whitespace-only text run longer than the parser's hold
// buffer used to be delivered piecemeal when fed in chunks but suppressed
// entirely when fed whole — the first divergence the split harness caught.
// The fix stages leading whitespace up to the hold budget and, beyond it,
// delivers the run as content in BOTH parse modes (the decision depends
// only on cumulative size, so it is chunk-invariant, and parser memory
// stays bounded). (Byte-at-a-time over 80 KB is quadratic, so this one
// probes fixed chunk sizes around the 64 KB hold boundary instead of
// every split.)
TEST(FeedSplitEverywhereTest, LongWhitespaceRunHandledIdenticallyChunked) {
  std::string doc = "<a>" + std::string(80 * 1024, ' ') + "<b/></a>";
  CanonicalParse whole = ParseWithBoundaries(doc, {});
  EXPECT_TRUE(whole.status.ok()) << whole.status;
  bool has_text = false;
  for (const std::string& e : whole.events) has_text |= e[0] == 'T';
  EXPECT_TRUE(has_text);  // beyond the hold budget: delivered as content
  for (size_t chunk : {4096u, 65536u, 65537u}) {
    CanonicalParse chunked = ParseWithChunkSize(doc, chunk);
    EXPECT_EQ(whole, chunked) << "chunk size " << chunk;
  }

  // Below the hold budget the node-level rule applies: suppressed, and
  // suppressed identically under chunking.
  std::string small = "<a>" + std::string(32 * 1024, ' ') + "<b/></a>";
  CanonicalParse small_whole = ParseWithBoundaries(small, {});
  EXPECT_TRUE(small_whole.status.ok());
  for (const std::string& e : small_whole.events) {
    EXPECT_NE(e[0], 'T') << e;
  }
  for (size_t chunk : {4096u, 32768u}) {
    EXPECT_EQ(small_whole, ParseWithChunkSize(small, chunk))
        << "chunk size " << chunk;
  }
}

// Regression: long non-whitespace runs flush early; a whitespace tail piece
// of such a run is *content* (the node is not whitespace-only) and must
// survive chunked parsing identically.
TEST(FeedSplitEverywhereTest, LongTextRunWithWhitespaceTail) {
  std::string doc =
      "<a>" + std::string(70 * 1024, 'x') + std::string(1024, ' ') + "</a>";
  CanonicalParse whole = ParseWithBoundaries(doc, {});
  ASSERT_TRUE(whole.status.ok()) << whole.status;
  for (size_t chunk : {4096u, 65536u}) {
    CanonicalParse chunked = ParseWithChunkSize(doc, chunk);
    EXPECT_EQ(whole, chunked) << "chunk size " << chunk;
  }
}

// Regression: whitespace-only CDATA is explicitly marked character data —
// it must be delivered (it used to be silently dropped), and it makes
// adjacent plain whitespace part of a real node.
TEST(FeedSplitEverywhereTest, WhitespaceCdataIsContent) {
  CanonicalParse r = ParseWithBoundaries("<a><![CDATA[ ]]></a>", {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[1], "T:1:1: ");

  // "x" + CDATA space + "y" is ONE node "x y", not "xy".
  r = ParseWithBoundaries("<a>x<![CDATA[ ]]>y</a>", {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[1], "T:1:1:x y");

  // Leading plain whitespace before CDATA content belongs to the node.
  r = ParseWithBoundaries("<a> <![CDATA[x]]></a>", {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[1], "T:1:1: x");
}

// Regression: a character reference that decodes to whitespace is explicit
// content, not formatting whitespace.
TEST(FeedSplitEverywhereTest, CharacterReferenceWhitespaceIsContent) {
  CanonicalParse r = ParseWithBoundaries("<a>&#32;</a>", {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.events.size(), 3u);
  EXPECT_EQ(r.events[1], "T:1:1: ");
}

// Whitespace after delivered content stays part of the coalesced node even
// when a comment separates the pieces (the node is "x ", not "x").
TEST(FeedSplitEverywhereTest, TrailingWhitespaceAfterCommentStaysInNode) {
  CanonicalParse r = ParseWithBoundaries("<a>x<!--c--> </a>", {});
  ASSERT_TRUE(r.status.ok());
  ASSERT_EQ(r.events.size(), 5u);
  EXPECT_EQ(r.events[1], "T:1:1:x");
  EXPECT_EQ(r.events[2], "C:c");
  EXPECT_EQ(r.events[3], "T:1:1: ");
  EXPECT_EQ(r.events[4], "E:a:1");
}

// Attribute-value chunk seams. Shared-plan subscriptions compare bound
// literals against attribute values (`//quote[@symbol = 'X']` for every
// X), so the parser must deliver each attribute value whole and already
// entity-decoded no matter where a feed boundary lands — inside the value,
// inside an entity or character reference, between the quotes, or between
// name, '=' and the opening quote. FeedSplitEverywhere tries EVERY
// two-chunk split plus byte-at-a-time, with stamps compared.
TEST(FeedSplitEverywhereTest, AttributeValueEntitySeams) {
  const char* docs[] = {
      // Entity references inside values, including back to back.
      R"(<r a="1&amp;2"/>)",
      R"(<r a="&amp;&lt;&gt;&quot;&apos;"/>)",
      // Character references (decimal and hex) mid-value.
      R"(<r sym="&#65;CME&#x21;"/>)",
      // The other quote kind as content, plus '=' and '>' lookalikes.
      R"(<r a='say "hi" = ok>' b="it's fine"/>)",
      // Whitespace and angle-lookalikes around the '=' sign.
      R"(<r  a  =  "v1"  b = 'v2' />)",
      // Several attributes so seams land between value end and next name.
      R"(<q symbol="ACME" price="12.50" note="a&amp;b"><p t="x"/></q>)",
      // Value that is nothing but references.
      R"(<r v="&amp;&amp;&amp;"/>)",
      // Empty values around populated ones.
      R"(<r a="" b="&#32;" c=""/>)",
  };
  for (const char* doc : docs) {
    FeedSplitEverywhere(doc, {}, std::string("attribute seams: ") + doc);
  }
}

TEST(FeedSplitEverywhereTest, AttributeValuesArriveDecodedWhole) {
  // The canonical event stream records attribute values as delivered;
  // entity decoding must have happened before delivery (a machine's value
  // comparison sees "1&2", never "1&amp;2"), and a split inside "&amp;"
  // must not produce a partial value.
  CanonicalParse whole = ParseWithBoundaries(R"(<r a="1&amp;2&#33;"/>)", {});
  ASSERT_TRUE(whole.status.ok());
  bool saw = false;
  for (const std::string& e : whole.events) {
    if (e.rfind("A:", 0) == 0) {
      EXPECT_EQ(e, "A:a=1&2!");
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(ChunkingTest, ParserMemoryStaysBoundedOnLongText) {
  // A single long text run must not accumulate in the parser's buffer.
  CollectingHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Feed("<a>").ok());
  for (int i = 0; i < 1000; ++i) {
    ASSERT_TRUE(parser.Feed("0123456789abcdef0123456789abcdef").ok());
  }
  ASSERT_TRUE(parser.Feed("</a>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  // 32 KB of text arrived; the collected (merged) text must be intact.
  bool found = false;
  for (const std::string& e : handler.events) {
    if (e.rfind("T:1:", 0) == 0) {
      EXPECT_EQ(e.size(), 4u + 32000u);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

}  // namespace
}  // namespace vitex::xml
