#include "xml/sax_parser.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace vitex::xml {
namespace {

// Records every event as a printable line for easy assertions.
class TraceHandler : public ContentHandler {
 public:
  Status StartDocument() override {
    trace.push_back("startdoc");
    return Status::OK();
  }
  Status StartElement(const StartElementEvent& event) override {
    std::string line = "start " + std::string(event.name) + " d" +
                       std::to_string(event.depth);
    for (const Attribute& a : event.attributes) {
      line += " " + std::string(a.name) + "=" + std::string(a.value);
    }
    trace.push_back(line);
    return Status::OK();
  }
  Status EndElement(std::string_view name, int depth) override {
    trace.push_back("end " + std::string(name) + " d" + std::to_string(depth));
    return Status::OK();
  }
  Status Text(const TextEvent& event) override {
    trace.push_back("text[" + std::string(event.text) + "] d" +
                    std::to_string(event.depth));
    return Status::OK();
  }
  Status ProcessingInstruction(std::string_view target,
                               std::string_view data) override {
    trace.push_back("pi " + std::string(target) + " [" + std::string(data) +
                    "]");
    return Status::OK();
  }
  Status Comment(std::string_view text) override {
    trace.push_back("comment[" + std::string(text) + "]");
    return Status::OK();
  }
  Status EndDocument() override {
    trace.push_back("enddoc");
    return Status::OK();
  }

  std::vector<std::string> trace;
};

std::vector<std::string> Parse(std::string_view doc,
                               SaxParserOptions options = SaxParserOptions()) {
  TraceHandler handler;
  Status s = ParseString(doc, &handler, options);
  EXPECT_TRUE(s.ok()) << s;
  return handler.trace;
}

Status ParseStatus(std::string_view doc,
                   SaxParserOptions options = SaxParserOptions()) {
  TraceHandler handler;
  return ParseString(doc, &handler, options);
}

TEST(SaxParserTest, MinimalDocument) {
  auto t = Parse("<a/>");
  std::vector<std::string> expected = {"startdoc", "start a d1", "end a d1",
                                       "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, NestedElementsTrackDepth) {
  auto t = Parse("<a><b><c/></b></a>");
  std::vector<std::string> expected = {
      "startdoc",   "start a d1", "start b d2", "start c d3",
      "end c d3",   "end b d2",   "end a d1",   "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, TextContent) {
  auto t = Parse("<a>hello</a>");
  std::vector<std::string> expected = {"startdoc", "start a d1",
                                       "text[hello] d1", "end a d1", "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, WhitespaceTextSkippedByDefault) {
  auto t = Parse("<a>  <b/>  </a>");
  std::vector<std::string> expected = {"startdoc", "start a d1", "start b d2",
                                       "end b d2", "end a d1", "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, WhitespaceTextKeptWhenRequested) {
  SaxParserOptions options;
  options.skip_whitespace_text = false;
  auto t = Parse("<a> <b/></a>", options);
  std::vector<std::string> expected = {"startdoc",   "start a d1",
                                       "text[ ] d1", "start b d2",
                                       "end b d2",   "end a d1",
                                       "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, Attributes) {
  auto t = Parse(R"(<a x="1" y='two'/>)");
  EXPECT_EQ(t[1], "start a d1 x=1 y=two");
}

TEST(SaxParserTest, AttributeValueEntityDecoding) {
  auto t = Parse(R"(<a msg="a&amp;b &lt;c&gt;"/>)");
  EXPECT_EQ(t[1], "start a d1 msg=a&b <c>");
}

TEST(SaxParserTest, AttributeWithWhitespaceAroundEquals) {
  auto t = Parse(R"(<a x = "1"/>)");
  EXPECT_EQ(t[1], "start a d1 x=1");
}

TEST(SaxParserTest, TextEntityDecoding) {
  auto t = Parse("<a>AT&amp;T &#65;</a>");
  EXPECT_EQ(t[2], "text[AT&T A] d1");
}

TEST(SaxParserTest, CdataDeliveredVerbatim) {
  auto t = Parse("<a><![CDATA[<not> & parsed]]></a>");
  EXPECT_EQ(t[2], "text[<not> & parsed] d1");
}

TEST(SaxParserTest, CommentsDelivered) {
  auto t = Parse("<a><!-- note --></a>");
  EXPECT_EQ(t[2], "comment[ note ]");
}

TEST(SaxParserTest, ProcessingInstruction) {
  auto t = Parse("<?xml version=\"1.0\"?><a><?target some data?></a>");
  EXPECT_EQ(t[1], "pi xml [version=\"1.0\"]");
  EXPECT_EQ(t[3], "pi target [some data]");
}

TEST(SaxParserTest, DoctypeSkipped) {
  auto t = Parse("<!DOCTYPE book [<!ELEMENT book (#PCDATA)>]><book/>");
  std::vector<std::string> expected = {"startdoc", "start book d1",
                                       "end book d1", "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, MixedContent) {
  auto t = Parse("<a>x<b>y</b>z</a>");
  std::vector<std::string> expected = {
      "startdoc",   "start a d1", "text[x] d1", "start b d2", "text[y] d2",
      "end b d2",   "text[z] d1", "end a d1",   "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, EndTagWithTrailingSpace) {
  auto t = Parse("<a></a >");
  std::vector<std::string> expected = {"startdoc", "start a d1", "end a d1",
                                       "enddoc"};
  EXPECT_EQ(t, expected);
}

TEST(SaxParserTest, Utf8NamesAndText) {
  auto t = Parse("<\xc3\xa9l\xc3\xa9ment>caf\xc3\xa9</\xc3\xa9l\xc3\xa9ment>");
  EXPECT_EQ(t[1], "start \xc3\xa9l\xc3\xa9ment d1");
  EXPECT_EQ(t[2], "text[caf\xc3\xa9] d1");
}

// --- Error cases -----------------------------------------------------------

TEST(SaxParserErrorTest, MismatchedEndTag) {
  Status s = ParseStatus("<a><b></a></b>");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("mismatched"), std::string::npos) << s;
}

TEST(SaxParserErrorTest, UnclosedElement) {
  Status s = ParseStatus("<a><b></b>");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("unclosed"), std::string::npos) << s;
}

TEST(SaxParserErrorTest, MultipleRoots) {
  Status s = ParseStatus("<a/><b/>");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("multiple root"), std::string::npos) << s;
}

TEST(SaxParserErrorTest, NoRootElement) {
  EXPECT_TRUE(ParseStatus("").IsParseError());
  EXPECT_TRUE(ParseStatus("<!-- only a comment -->").IsParseError());
}

TEST(SaxParserErrorTest, TextOutsideRoot) {
  EXPECT_TRUE(ParseStatus("junk<a/>").IsParseError());
  EXPECT_TRUE(ParseStatus("<a/>junk").IsParseError());
}

TEST(SaxParserErrorTest, WhitespaceOutsideRootIsFine) {
  EXPECT_TRUE(ParseStatus("  <a/>  \n").ok());
}

TEST(SaxParserErrorTest, UnquotedAttributeValue) {
  EXPECT_TRUE(ParseStatus("<a x=1/>").IsParseError());
}

TEST(SaxParserErrorTest, AttributeWithoutValue) {
  EXPECT_TRUE(ParseStatus("<a disabled/>").IsParseError());
}

TEST(SaxParserErrorTest, DuplicateAttribute) {
  Status s = ParseStatus(R"(<a x="1" x="2"/>)");
  EXPECT_TRUE(s.IsParseError());
  EXPECT_NE(s.message().find("duplicate"), std::string::npos) << s;
}

TEST(SaxParserErrorTest, InvalidElementName) {
  EXPECT_TRUE(ParseStatus("<1a/>").IsParseError());
}

TEST(SaxParserErrorTest, BadEntityInText) {
  EXPECT_TRUE(ParseStatus("<a>&bogus;</a>").IsParseError());
}

TEST(SaxParserErrorTest, LessThanInAttributeValue) {
  EXPECT_TRUE(ParseStatus(R"(<a x="a<b"/>)").IsParseError());
}

TEST(SaxParserErrorTest, TruncatedDocuments) {
  EXPECT_TRUE(ParseStatus("<a>").IsParseError());
  EXPECT_TRUE(ParseStatus("<a").IsParseError());
  EXPECT_TRUE(ParseStatus("<a><!-- unterminated").IsParseError());
  EXPECT_TRUE(ParseStatus("<a><![CDATA[xx").IsParseError());
  EXPECT_TRUE(ParseStatus("<a><?pi data").IsParseError());
}

TEST(SaxParserErrorTest, DepthLimitEnforced) {
  SaxParserOptions options;
  options.max_depth = 3;
  EXPECT_TRUE(ParseStatus("<a><b><c/></b></a>", options).ok());
  EXPECT_TRUE(
      ParseStatus("<a><b><c><d/></c></b></a>", options).IsResourceExhausted());
}

TEST(SaxParserErrorTest, CommentDoubleDashRejected) {
  EXPECT_TRUE(ParseStatus("<a><!-- bad -- comment --></a>").IsParseError());
}

TEST(SaxParserErrorTest, FeedAfterFinishRejected) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Feed("<a/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  EXPECT_TRUE(parser.Feed("<b/>").IsInvalidArgument());
}

TEST(SaxParserErrorTest, ResetAllowsReuse) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Feed("<a/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  parser.Reset();
  handler.trace.clear();
  ASSERT_TRUE(parser.Feed("<b/>").ok());
  ASSERT_TRUE(parser.Finish().ok());
  std::vector<std::string> expected = {"startdoc", "start b d1", "end b d1",
                                       "enddoc"};
  EXPECT_EQ(handler.trace, expected);
}

// --- Stats ------------------------------------------------------------------

TEST(SaxParserStatsTest, CountersAccumulate) {
  TraceHandler handler;
  SaxParser parser(&handler);
  ASSERT_TRUE(parser.Feed(R"(<a x="1"><b>t</b><c y="2" z="3"/></a>)").ok());
  ASSERT_TRUE(parser.Finish().ok());
  const SaxParserStats& stats = parser.stats();
  EXPECT_EQ(stats.start_elements, 3u);
  EXPECT_EQ(stats.attributes, 3u);
  EXPECT_EQ(stats.text_events, 1u);
  EXPECT_EQ(stats.max_depth, 2);
}

// --- Handler abort ----------------------------------------------------------

class AbortingHandler : public ContentHandler {
 public:
  Status StartElement(const StartElementEvent& event) override {
    if (event.name == "poison") return Status::Unsupported("poison tag");
    return Status::OK();
  }
};

TEST(SaxParserTest, HandlerErrorAbortsParse) {
  AbortingHandler handler;
  Status s = ParseString("<a><poison/></a>", &handler);
  EXPECT_TRUE(s.IsUnsupported());
}

}  // namespace
}  // namespace vitex::xml
