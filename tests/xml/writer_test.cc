#include "xml/writer.h"

#include <gtest/gtest.h>

#include "xml/dom.h"
#include "xml/sax_parser.h"

namespace vitex::xml {
namespace {

std::string Write(const std::function<Status(XmlWriter*)>& body,
                  XmlWriter::Options options = {}) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink, options);
  Status s = body(&w);
  EXPECT_TRUE(s.ok()) << s;
  EXPECT_TRUE(w.Finish().ok());
  return out;
}

XmlWriter::Options NoDecl() {
  XmlWriter::Options options;
  options.declaration = false;
  return options;
}

TEST(XmlWriterTest, MinimalElement) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("a"));
        return w->EndElement();
      },
      NoDecl());
  EXPECT_EQ(out, "<a/>");
}

TEST(XmlWriterTest, DeclarationWrittenByDefault) {
  std::string out = Write([](XmlWriter* w) -> Status {
    VITEX_RETURN_IF_ERROR(w->StartElement("a"));
    return w->EndElement();
  });
  EXPECT_EQ(out, "<?xml version=\"1.0\" encoding=\"UTF-8\"?><a/>");
}

TEST(XmlWriterTest, TextElementEscapes) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("a"));
        VITEX_RETURN_IF_ERROR(w->TextElement("b", "x<y & z"));
        return w->EndElement();
      },
      NoDecl());
  EXPECT_EQ(out, "<a><b>x&lt;y &amp; z</b></a>");
}

TEST(XmlWriterTest, AttributesEscaped) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("a"));
        VITEX_RETURN_IF_ERROR(w->AddAttribute("x", "say \"hi\" & <bye>"));
        return w->EndElement();
      },
      NoDecl());
  EXPECT_EQ(out, "<a x=\"say &quot;hi&quot; &amp; &lt;bye&gt;\"/>");
}

TEST(XmlWriterTest, NestedStructure) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("book"));
        VITEX_RETURN_IF_ERROR(w->StartElement("section"));
        VITEX_RETURN_IF_ERROR(w->TextElement("title", "Intro"));
        VITEX_RETURN_IF_ERROR(w->EndElement());
        return w->EndElement();
      },
      NoDecl());
  EXPECT_EQ(out, "<book><section><title>Intro</title></section></book>");
}

TEST(XmlWriterTest, CommentWritten) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("a"));
        VITEX_RETURN_IF_ERROR(w->Comment(" note "));
        return w->EndElement();
      },
      NoDecl());
  EXPECT_EQ(out, "<a><!-- note --></a>");
}

TEST(XmlWriterTest, IndentedOutput) {
  XmlWriter::Options options;
  options.declaration = false;
  options.indent = 2;
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("a"));
        VITEX_RETURN_IF_ERROR(w->StartElement("b"));
        VITEX_RETURN_IF_ERROR(w->EndElement());
        return w->EndElement();
      },
      options);
  EXPECT_EQ(out, "<a>\n  <b/>\n</a>\n");
}

TEST(XmlWriterErrorTest, InvalidNamesRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  EXPECT_TRUE(w.StartElement("1bad").IsInvalidArgument());
  ASSERT_TRUE(w.StartElement("ok").ok());
  EXPECT_TRUE(w.AddAttribute("2bad", "v").IsInvalidArgument());
}

TEST(XmlWriterErrorTest, UnbalancedEndRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  EXPECT_TRUE(w.EndElement().IsInvalidArgument());
}

TEST(XmlWriterErrorTest, FinishWithOpenElementRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  ASSERT_TRUE(w.StartElement("a").ok());
  EXPECT_TRUE(w.Finish().IsInvalidArgument());
}

TEST(XmlWriterErrorTest, AttributeAfterContentRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  ASSERT_TRUE(w.StartElement("a").ok());
  ASSERT_TRUE(w.Text("body").ok());
  EXPECT_TRUE(w.AddAttribute("x", "1").IsInvalidArgument());
}

TEST(XmlWriterErrorTest, TextOutsideRootRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  EXPECT_TRUE(w.Text("dangling").IsInvalidArgument());
}

TEST(XmlWriterErrorTest, DoubleDashCommentRejected) {
  std::string out;
  StringSink sink(&out);
  XmlWriter w(&sink);
  ASSERT_TRUE(w.StartElement("a").ok());
  EXPECT_TRUE(w.Comment("a -- b").IsInvalidArgument());
}

// Round trip: whatever the writer produces, the parser accepts and the DOM
// reproduces the logical structure.
TEST(XmlWriterRoundTripTest, WriterOutputParses) {
  std::string out = Write(
      [](XmlWriter* w) -> Status {
        VITEX_RETURN_IF_ERROR(w->StartElement("root"));
        VITEX_RETURN_IF_ERROR(w->AddAttribute("version", "1 & \"2\""));
        VITEX_RETURN_IF_ERROR(w->TextElement("item", "<escaped> & 'fine'"));
        VITEX_RETURN_IF_ERROR(w->StartElement("empty"));
        VITEX_RETURN_IF_ERROR(w->EndElement());
        return w->EndElement();
      },
      NoDecl());
  auto doc = ParseIntoDom(out);
  ASSERT_TRUE(doc.ok()) << doc.status();
  const DomNode* root = doc->root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "root");
  const DomNode* version = root->FindAttribute("version");
  ASSERT_NE(version, nullptr);
  EXPECT_EQ(version->value, "1 & \"2\"");
  const DomNode* item = root->first_child;
  ASSERT_NE(item, nullptr);
  EXPECT_EQ(item->name, "item");
  EXPECT_EQ(Document::StringValue(item), "<escaped> & 'fine'");
}

TEST(FileSinkTest, WritesAndReportsBytes) {
  std::string path = ::testing::TempDir() + "/vitex_filesink_test.xml";
  {
    FileSink sink;
    ASSERT_TRUE(sink.Open(path).ok());
    XmlWriter w(&sink, [] {
      XmlWriter::Options o;
      o.declaration = false;
      return o;
    }());
    ASSERT_TRUE(w.StartElement("a").ok());
    ASSERT_TRUE(w.Text("hello").ok());
    ASSERT_TRUE(w.EndElement().ok());
    ASSERT_TRUE(w.Finish().ok());
    EXPECT_EQ(sink.bytes_written(), std::string("<a>hello</a>").size());
    ASSERT_TRUE(sink.Close().ok());
  }
  class Counter : public ContentHandler {
   public:
    Status Text(const TextEvent& event) override {
      collected += std::string(event.text);
      return Status::OK();
    }
    std::string collected;
  } counter;
  ASSERT_TRUE(ParseFile(path, &counter).ok());
  EXPECT_EQ(counter.collected, "hello");
  std::remove(path.c_str());
}

TEST(FileSinkTest, OpenFailureReported) {
  FileSink sink;
  EXPECT_TRUE(sink.Open("/nonexistent-dir-xyz/file.xml").IsIoError());
}

}  // namespace
}  // namespace vitex::xml
