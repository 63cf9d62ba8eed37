#include "xpath/canonical.h"

namespace vitex::xpath {

uint64_t FnvHash64(std::string_view bytes, uint64_t seed) {
  uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

namespace {

char AxisTag(const QueryNode& n) {
  switch (n.axis) {
    case Axis::kChild:
      return 'c';
    case Axis::kDescendant:
      return 'd';
    case Axis::kAttribute:
      return n.descendant_attribute ? 'A' : 'a';
    case Axis::kSelf:
      return 's';  // compiled away; kept for totality
  }
  return '?';
}

// One node's skeleton record. Every variable-length field is length- or
// delimiter-framed so distinct twigs can never serialize to the same key
// (e.g. names "ab"+"c" vs "a"+"bc").
void AppendNode(const QueryNode& n, std::string* out) {
  out->push_back(AxisTag(n));
  switch (n.test) {
    case NodeTestKind::kWildcard:
      out->push_back('*');
      break;
    case NodeTestKind::kText:
      out->push_back('t');
      break;
    case NodeTestKind::kName:
      out->push_back('n');
      out->append(std::to_string(n.name.size()));
      out->push_back(':');
      out->append(n.name);
      break;
  }
  // The comparison operator is structural; the literal is a parameter and
  // deliberately absent.
  out->push_back('0' + static_cast<char>(n.value_op));
  if (n.is_output) out->push_back('O');
  // The satisfaction formula (atoms reference child indices, so its string
  // form is position-stable across queries of one skeleton).
  out->push_back('[');
  out->append(n.formula.ToString());
  out->push_back(']');
  out->append(std::to_string(n.children.size()));
  out->push_back(';');
}

}  // namespace

CanonicalQuery Canonicalize(const Query& query) {
  CanonicalQuery out;
  out.key.reserve(query.size() * 16);
  // nodes() is preorder (ids are preorder indices), so the key and the slot
  // numbering are both preorder-stable.
  for (const auto& node : query.nodes()) {
    AppendNode(*node, &out.key);
    if (node->value_op != CompareOp::kNone) {
      out.params.push_back(node->literal);
      out.slot_node_ids.push_back(node->id);
    }
  }
  out.hash = FnvHash64(out.key);
  return out;
}

}  // namespace vitex::xpath
