// Abstract syntax tree produced by the XPath parser.
//
// The AST mirrors the surface syntax; the twig compiler (query.h) normalizes
// it into the form TwigM executes. The DOM baseline evaluates the AST
// directly, so the AST supports the full parsed language (including or/not)
// even where the streaming fragment is narrower.

#ifndef VITEX_XPATH_AST_H_
#define VITEX_XPATH_AST_H_

#include <memory>
#include <string>
#include <vector>

namespace vitex::xpath {

/// Axes of the supported fragment.
enum class Axis : uint8_t {
  kChild,       // /
  kDescendant,  // //
  kAttribute,   // /@ or //@
  kSelf,        // . (only inside predicates)
};

/// Node tests.
enum class NodeTestKind : uint8_t {
  kName,      // an element (or attribute) name
  kWildcard,  // *
  kText,      // text()
};

/// Comparison operators in value predicates.
enum class CompareOp : uint8_t {
  kNone,  // existence only
  kEq,
  kNe,
  kLt,
  kLe,
  kGt,
  kGe,
};

std::string_view AxisToString(Axis axis);
std::string_view CompareOpToString(CompareOp op);

struct PredExpr;

/// One location step: axis, node test, and zero or more predicates.
struct Step {
  Axis axis = Axis::kChild;
  NodeTestKind test = NodeTestKind::kName;
  std::string name;  // for kName tests
  /// For attribute steps reached via '//': the attribute may belong to the
  /// context element or any descendant (descendant-or-self semantics).
  bool descendant_attribute = false;
  std::vector<std::unique_ptr<PredExpr>> predicates;
};

/// A (relative or absolute) location path.
struct Path {
  /// True for a top-level query (always starts at the document root).
  /// Relative paths inside predicates start at the context node.
  bool absolute = false;
  std::vector<Step> steps;
};

/// Predicate expression node.
struct PredExpr {
  enum class Kind : uint8_t {
    kPath,        // existence of a relative path
    kCompare,     // path-or-self  op  literal
    kAnd,         // left and right
    kOr,          // left or right
    kNot,         // not(child) — stored in left
  };

  Kind kind = Kind::kPath;

  /// For kPath and kCompare: the relative path (empty steps == '.').
  Path path;

  /// For kCompare.
  CompareOp op = CompareOp::kNone;
  std::string literal;     // string operand text
  double number = 0.0;     // numeric operand value
  bool literal_is_number = false;

  /// For kAnd/kOr/kNot.
  std::unique_ptr<PredExpr> left;
  std::unique_ptr<PredExpr> right;
};

/// Renders the AST back to XPath syntax (canonical form; used in tests and
/// debug output).
std::string PathToString(const Path& path);
std::string PredExprToString(const PredExpr& expr);

}  // namespace vitex::xpath

#endif  // VITEX_XPATH_AST_H_
