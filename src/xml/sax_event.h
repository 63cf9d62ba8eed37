// SAX event model: the contract between the SAX parser and every consumer
// (the TwigM dispatcher, the DOM builder, the event recorder, the
// baselines).
//
// This mirrors the expat/SAX2 event set the original ViteX consumed, reduced
// to what streaming XPath needs: start/end element with attributes and depth,
// character data, and document boundaries.

#ifndef VITEX_XML_SAX_EVENT_H_
#define VITEX_XML_SAX_EVENT_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/status.h"

namespace vitex::xml {

/// "No sequence number": the producer did not stamp document-order sequence
/// numbers onto this event (consumers fall back to counting themselves).
inline constexpr uint64_t kNoSequence = static_cast<uint64_t>(-1);

/// One attribute of a start-element event. Views are valid only for the
/// duration of the callback; consumers that need the data longer must copy.
struct Attribute {
  std::string_view name;
  std::string_view value;
  /// Interned id of `name` when the producer resolves names against a
  /// SymbolTable (see SaxParserOptions::symbols); kNoSymbol otherwise.
  Symbol symbol = kNoSymbol;
};

/// A start-element event.
///
/// `depth` is the 1-based depth of the element (the document root element
/// has depth 1). TwigM's stack entries store this as the paper's "level".
struct StartElementEvent {
  std::string_view name;
  std::vector<Attribute> attributes;
  int depth = 0;
  /// Interned id of `name`, resolved once per event by the producer when it
  /// holds a SymbolTable; kNoSymbol otherwise. Only meaningful to consumers
  /// sharing that same table.
  Symbol symbol = kNoSymbol;
  /// Document-order sequence number of this element, stamped by the producer
  /// (query-independent: one number per element, then one per attribute).
  /// kNoSequence when the producer does not stamp.
  uint64_t sequence = kNoSequence;

  /// Returns the value of attribute `attr_name`, or nullptr if absent.
  const std::string_view* FindAttribute(std::string_view attr_name) const {
    for (const Attribute& a : attributes) {
      if (a.name == attr_name) return &a.value;
    }
    return nullptr;
  }
};

/// One piece of character data, with the producer-stamped sequence number of
/// the text *node* it belongs to. Pieces of one node (chunk boundaries,
/// CDATA seams, entity boundaries) carry the same sequence value.
struct TextEvent {
  std::string_view text;
  int depth = 0;
  uint64_t sequence = kNoSequence;
};

/// Receiver interface for SAX events.
///
/// Any callback may return a non-OK Status to abort the parse; the parser
/// propagates the status to its caller unchanged. The default
/// implementations accept and ignore every event, so handlers override only
/// what they need.
class ContentHandler {
 public:
  virtual ~ContentHandler() = default;

  /// Called once before any other event.
  virtual Status StartDocument() { return Status::OK(); }

  /// Called for every start tag (and for the element part of an empty-element
  /// tag `<a/>`, which is delivered as StartElement immediately followed by
  /// EndElement).
  virtual Status StartElement(const StartElementEvent& event) {
    (void)event;
    return Status::OK();
  }

  /// Called for every end tag. `depth` matches the corresponding
  /// StartElement's depth.
  virtual Status EndElement(std::string_view name, int depth) {
    (void)name;
    (void)depth;
    return Status::OK();
  }

  /// Called for character data between tags, already entity-decoded.
  /// May be called multiple times for one text node (chunk boundaries,
  /// CDATA sections, entity boundaries); every piece of the node carries
  /// the node's sequence number, and `depth` is the depth of the enclosing
  /// element.
  virtual Status Text(const TextEvent& event) {
    (void)event;
    return Status::OK();
  }

  /// Called for processing instructions `<?target data?>`. Ignored by
  /// default.
  virtual Status ProcessingInstruction(std::string_view target,
                                       std::string_view data) {
    (void)target;
    (void)data;
    return Status::OK();
  }

  /// Called for comments `<!-- ... -->`. Ignored by default.
  virtual Status Comment(std::string_view text) {
    (void)text;
    return Status::OK();
  }

  /// Called once after the root element closes and trailing misc is consumed.
  virtual Status EndDocument() { return Status::OK(); }
};

}  // namespace vitex::xml

#endif  // VITEX_XML_SAX_EVENT_H_
