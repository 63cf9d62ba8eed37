#include "xml/dom.h"

#include "xml/escape.h"

namespace vitex::xml {

const DomNode* DomNode::FindAttribute(std::string_view attr_name) const {
  for (const DomNode* a = first_attribute; a != nullptr; a = a->next_sibling) {
    if (a->name == attr_name) return a;
  }
  return nullptr;
}

Document::Document() : arena_(std::make_unique<Arena>()) {
  doc_ = NewNode(NodeKind::kDocument);
}

DomNode* Document::NewNode(NodeKind kind) {
  DomNode* n = arena_->Create<DomNode>();
  n->kind = kind;
  ++node_count_;
  return n;
}

const DomNode* Document::root() const {
  for (const DomNode* c = doc_->first_child; c != nullptr;
       c = c->next_sibling) {
    if (c->IsElement()) return c;
  }
  return nullptr;
}

namespace {
void CollectText(const DomNode* node, std::string* out) {
  for (const DomNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    if (c->IsText()) {
      out->append(c->value);
    } else if (c->IsElement()) {
      CollectText(c, out);
    }
  }
}
}  // namespace

std::string Document::StringValue(const DomNode* node) {
  if (node->IsText() || node->IsAttribute()) return std::string(node->value);
  std::string out;
  CollectText(node, &out);
  return out;
}

namespace {
void SerializeRec(const DomNode* node, std::string* out) {
  switch (node->kind) {
    case NodeKind::kText:
      out->append(EscapeText(node->value));
      return;
    case NodeKind::kAttribute:
      out->append(node->value);
      return;
    case NodeKind::kDocument:
      for (const DomNode* c = node->first_child; c != nullptr;
           c = c->next_sibling) {
        SerializeRec(c, out);
      }
      return;
    case NodeKind::kElement:
      break;
  }
  out->push_back('<');
  out->append(node->name);
  for (const DomNode* a = node->first_attribute; a != nullptr;
       a = a->next_sibling) {
    out->push_back(' ');
    out->append(a->name);
    out->append("=\"");
    out->append(EscapeAttribute(a->value));
    out->push_back('"');
  }
  if (node->first_child == nullptr) {
    out->append("/>");
    return;
  }
  out->push_back('>');
  for (const DomNode* c = node->first_child; c != nullptr;
       c = c->next_sibling) {
    SerializeRec(c, out);
  }
  out->append("</");
  out->append(node->name);
  out->push_back('>');
}
}  // namespace

std::string Document::Serialize(const DomNode* node) {
  std::string out;
  SerializeRec(node, &out);
  return out;
}

DomBuilder::DomBuilder() { current_ = doc_.document_node(); }

void DomBuilder::Append(DomNode* parent, DomNode* child) {
  child->parent = parent;
  if (parent->last_child == nullptr) {
    parent->first_child = child;
    parent->last_child = child;
  } else {
    parent->last_child->next_sibling = child;
    parent->last_child = child;
  }
}

Status DomBuilder::StartElement(const StartElementEvent& event) {
  DomNode* el = doc_.NewNode(NodeKind::kElement);
  el->name = doc_.arena()->CopyString(event.name);
  el->depth = event.depth;
  // Adopt the producer's document-order stamp when present (the SAX parser
  // always stamps): DOM node orders then equal the sequence numbers every
  // streaming route reports, which is what makes cross-route result
  // comparison in the differential oracle exact. Unstamped producers fall
  // back to dense local numbering.
  bool stamped = event.sequence != kNoSequence;
  el->order = stamped ? event.sequence : next_order_++;
  Append(current_, el);
  DomNode* attr_tail = nullptr;
  uint64_t attr_index = 0;
  for (const Attribute& a : event.attributes) {
    DomNode* an = doc_.NewNode(NodeKind::kAttribute);
    an->name = doc_.arena()->CopyString(a.name);
    an->value = doc_.arena()->CopyString(a.value);
    an->parent = el;
    an->depth = event.depth + 1;
    an->order = stamped ? event.sequence + 1 + attr_index : next_order_++;
    ++attr_index;
    if (attr_tail == nullptr) {
      el->first_attribute = an;
    } else {
      attr_tail->next_sibling = an;
    }
    attr_tail = an;
  }
  current_ = el;
  return Status::OK();
}

Status DomBuilder::EndElement(std::string_view name, int depth) {
  (void)name;
  (void)depth;
  if (current_->parent == nullptr) {
    return Status::Internal("DomBuilder: unbalanced end element");
  }
  current_ = current_->parent;
  return Status::OK();
}

Status DomBuilder::Text(const TextEvent& event) {
  std::string_view text = event.text;
  // Coalesce adjacent text nodes so chunk boundaries are invisible in the
  // tree. Arena strings are immutable, so adjacent runs concatenate into a
  // fresh arena copy only when needed. Pieces of one node share the first
  // piece's stamp, so coalescing keeps it.
  if (current_->last_child != nullptr && current_->last_child->IsText()) {
    DomNode* prev = current_->last_child;
    std::string merged;
    merged.reserve(prev->value.size() + text.size());
    merged.append(prev->value);
    merged.append(text);
    prev->value = doc_.arena()->CopyString(merged);
    return Status::OK();
  }
  DomNode* tn = doc_.NewNode(NodeKind::kText);
  tn->value = doc_.arena()->CopyString(text);
  tn->depth = current_->depth + 1;
  tn->order = event.sequence != kNoSequence ? event.sequence : next_order_++;
  Append(current_, tn);
  return Status::OK();
}

Status DomBuilder::EndDocument() {
  done_ = true;
  return Status::OK();
}

Document DomBuilder::Take() { return std::move(doc_); }

Result<Document> ParseIntoDom(std::string_view xml, SaxParserOptions options) {
  DomBuilder builder;
  VITEX_RETURN_IF_ERROR(ParseString(xml, &builder, options));
  return builder.Take();
}

Result<Document> ParseFileIntoDom(const std::string& path,
                                  SaxParserOptions options) {
  DomBuilder builder;
  VITEX_RETURN_IF_ERROR(ParseFile(path, &builder, options));
  return builder.Take();
}

}  // namespace vitex::xml
