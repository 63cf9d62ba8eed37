// DOM-lite: an in-memory XML tree.
//
// ViteX itself never materializes a DOM — that is the whole point of the
// paper. The DOM exists here for the *non-streaming baseline* of §1 ("these
// challenges are not present in a non-streaming XML query evaluation
// algorithm since predicates can be checked immediately by randomly
// accessing XML nodes"), and as the correctness oracle for TwigM in tests.

#ifndef VITEX_XML_DOM_H_
#define VITEX_XML_DOM_H_

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>

#include "common/arena.h"
#include "common/result.h"
#include "xml/sax_event.h"
#include "xml/sax_parser.h"

namespace vitex::xml {

/// Node kinds in the DOM-lite tree.
enum class NodeKind : uint8_t {
  kDocument,
  kElement,
  kText,
  kAttribute,
};

/// One node. Plain data, arena-allocated, linked first-child/next-sibling so
/// the whole struct is trivially destructible.
struct DomNode {
  NodeKind kind = NodeKind::kElement;
  /// Element/attribute name (empty for text and document nodes). Interned in
  /// the owning Document's arena.
  std::string_view name;
  /// Text content (kText) or attribute value (kAttribute).
  std::string_view value;

  DomNode* parent = nullptr;
  DomNode* first_child = nullptr;
  DomNode* last_child = nullptr;
  DomNode* next_sibling = nullptr;
  /// Attributes hang off a separate chain (they are not children).
  DomNode* first_attribute = nullptr;

  /// 1-based depth of an element (document node is 0). Attributes share the
  /// owner's depth + 1, matching how TwigM levels attribute events.
  int depth = 0;
  /// Document-order sequence number (document node is 0). When the producer
  /// stamps sequences (the SAX parser always does), this IS the producer's
  /// stamp — identical to the sequence a streaming route reports for the
  /// same node, which is what lets the differential oracle compare DOM and
  /// streaming results exactly. Unstamped producers get dense 1-based
  /// numbering instead; both are strictly increasing in document order.
  uint64_t order = 0;

  bool IsElement() const { return kind == NodeKind::kElement; }
  bool IsText() const { return kind == NodeKind::kText; }
  bool IsAttribute() const { return kind == NodeKind::kAttribute; }

  /// Finds a direct attribute by name, or nullptr.
  const DomNode* FindAttribute(std::string_view attr_name) const;
};

/// An owning XML document tree.
class Document {
 public:
  Document();
  Document(Document&&) = default;
  Document& operator=(Document&&) = default;

  /// The synthetic document node; its children are the root element and any
  /// top-level comments/PIs (which DOM-lite drops).
  const DomNode* document_node() const { return doc_; }
  DomNode* document_node() { return doc_; }

  /// The root element, or nullptr for an empty document under construction.
  const DomNode* root() const;

  size_t node_count() const { return node_count_; }
  Arena* arena() { return arena_.get(); }

  /// Allocates a node owned by this document.
  DomNode* NewNode(NodeKind kind);

  /// XPath string-value of a node: concatenated descendant text for
  /// elements/documents, the value itself for text/attribute nodes.
  static std::string StringValue(const DomNode* node);

  /// Serializes the subtree rooted at `node` as compact XML (elements and
  /// attributes in document order, text escaped). Attribute nodes serialize
  /// as their value (what `/@id` query results print as).
  static std::string Serialize(const DomNode* node);

 private:
  std::unique_ptr<Arena> arena_;
  DomNode* doc_ = nullptr;
  size_t node_count_ = 0;

  friend class DomBuilder;
};

/// A ContentHandler that materializes the event stream into a Document.
class DomBuilder : public ContentHandler {
 public:
  DomBuilder();

  Status StartElement(const StartElementEvent& event) override;
  Status EndElement(std::string_view name, int depth) override;
  Status Text(const TextEvent& event) override;
  Status EndDocument() override;

  /// Takes the finished document; valid only after a successful parse.
  Document Take();

 private:
  Document doc_;
  DomNode* current_ = nullptr;
  uint64_t next_order_ = 1;
  bool done_ = false;

  void Append(DomNode* parent, DomNode* child);
};

/// Parses an in-memory document into a DOM.
Result<Document> ParseIntoDom(std::string_view xml,
                              SaxParserOptions options = SaxParserOptions());

/// Parses a file into a DOM.
Result<Document> ParseFileIntoDom(
    const std::string& path, SaxParserOptions options = SaxParserOptions());

}  // namespace vitex::xml

#endif  // VITEX_XML_DOM_H_
