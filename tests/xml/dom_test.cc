#include "xml/dom.h"

#include <gtest/gtest.h>

namespace vitex::xml {
namespace {

Document MustParse(std::string_view xml) {
  auto doc = ParseIntoDom(xml);
  EXPECT_TRUE(doc.ok()) << doc.status();
  return std::move(doc).value();
}

TEST(DomTest, RootAndChildren) {
  Document doc = MustParse("<a><b/><c/></a>");
  const DomNode* root = doc.root();
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->name, "a");
  EXPECT_EQ(root->depth, 1);
  const DomNode* b = root->first_child;
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(b->name, "b");
  EXPECT_EQ(b->depth, 2);
  const DomNode* c = b->next_sibling;
  ASSERT_NE(c, nullptr);
  EXPECT_EQ(c->name, "c");
  EXPECT_EQ(c->next_sibling, nullptr);
  EXPECT_EQ(root->last_child, c);
}

TEST(DomTest, ParentPointers) {
  Document doc = MustParse("<a><b><c/></b></a>");
  const DomNode* root = doc.root();
  const DomNode* b = root->first_child;
  const DomNode* c = b->first_child;
  EXPECT_EQ(c->parent, b);
  EXPECT_EQ(b->parent, root);
  EXPECT_EQ(root->parent, doc.document_node());
}

TEST(DomTest, DocumentOrderIsPreorder) {
  Document doc = MustParse("<a><b><c/></b><d/></a>");
  const DomNode* root = doc.root();
  const DomNode* b = root->first_child;
  const DomNode* c = b->first_child;
  const DomNode* d = b->next_sibling;
  EXPECT_LT(root->order, b->order);
  EXPECT_LT(b->order, c->order);
  EXPECT_LT(c->order, d->order);
}

TEST(DomTest, Attributes) {
  Document doc = MustParse(R"(<a x="1" y="2"/>)");
  const DomNode* root = doc.root();
  const DomNode* x = root->FindAttribute("x");
  ASSERT_NE(x, nullptr);
  EXPECT_TRUE(x->IsAttribute());
  EXPECT_EQ(x->value, "1");
  EXPECT_EQ(x->parent, root);
  const DomNode* y = root->FindAttribute("y");
  ASSERT_NE(y, nullptr);
  EXPECT_EQ(y->value, "2");
  EXPECT_EQ(root->FindAttribute("z"), nullptr);
}

TEST(DomTest, TextNodes) {
  Document doc = MustParse("<a>x<b/>y</a>");
  const DomNode* root = doc.root();
  const DomNode* t1 = root->first_child;
  ASSERT_TRUE(t1->IsText());
  EXPECT_EQ(t1->value, "x");
  const DomNode* b = t1->next_sibling;
  EXPECT_TRUE(b->IsElement());
  const DomNode* t2 = b->next_sibling;
  ASSERT_TRUE(t2->IsText());
  EXPECT_EQ(t2->value, "y");
}

TEST(DomTest, StringValueConcatenatesDescendantText) {
  Document doc = MustParse("<a>x<b>y<c>z</c></b>w</a>");
  EXPECT_EQ(Document::StringValue(doc.root()), "xyzw");
  const DomNode* b = doc.root()->first_child->next_sibling;
  EXPECT_EQ(Document::StringValue(b), "yz");
}

TEST(DomTest, StringValueOfTextAndAttributeNodes) {
  Document doc = MustParse(R"(<a k="v">txt</a>)");
  EXPECT_EQ(Document::StringValue(doc.root()->first_child), "txt");
  EXPECT_EQ(Document::StringValue(doc.root()->FindAttribute("k")), "v");
}

TEST(DomTest, SerializeRoundTrip) {
  const std::string cases[] = {
      "<a/>",
      "<a><b/><c/></a>",
      "<a x=\"1\"><b>text</b></a>",
      "<a>x<b/>y</a>",
  };
  for (const std::string& xml : cases) {
    Document doc = MustParse(xml);
    EXPECT_EQ(Document::Serialize(doc.root()), xml);
  }
}

TEST(DomTest, SerializeEscapes) {
  Document doc = MustParse("<a x=\"1&amp;2\">a&lt;b</a>");
  EXPECT_EQ(Document::Serialize(doc.root()), "<a x=\"1&amp;2\">a&lt;b</a>");
}

TEST(DomTest, NodeCountIncludesAllKinds) {
  Document doc = MustParse(R"(<a x="1"><b>t</b></a>)");
  // document + a + @x + b + text
  EXPECT_EQ(doc.node_count(), 5u);
}

TEST(DomTest, AdjacentTextCoalesced) {
  // CDATA creates a second Text event; the DOM must merge them.
  Document doc = MustParse("<a>one<![CDATA[two]]>three</a>");
  const DomNode* t = doc.root()->first_child;
  ASSERT_TRUE(t->IsText());
  EXPECT_EQ(t->value, "onetwothree");
  EXPECT_EQ(t->next_sibling, nullptr);
}

TEST(DomTest, DepthAssignments) {
  Document doc = MustParse(R"(<a><b k="v">t</b></a>)");
  const DomNode* b = doc.root()->first_child;
  EXPECT_EQ(b->depth, 2);
  EXPECT_EQ(b->FindAttribute("k")->depth, 3);
  EXPECT_EQ(b->first_child->depth, 3);  // text
}

TEST(DomTest, ParseFileIntoDomMissingFileFails) {
  auto r = ParseFileIntoDom("/nonexistent/file.xml");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsIoError());
}

TEST(DomTest, MalformedInputPropagatesParseError) {
  auto r = ParseIntoDom("<a><b></a>");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(DomTest, MoveSemantics) {
  Document doc = MustParse("<a><b/></a>");
  const DomNode* root_before = doc.root();
  Document moved = std::move(doc);
  EXPECT_EQ(moved.root(), root_before);
  EXPECT_EQ(moved.root()->name, "a");
}

}  // namespace
}  // namespace vitex::xml
