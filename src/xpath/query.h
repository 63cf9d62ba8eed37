// The compiled query twig: the normalized tree form of an XPath query that
// the TwigM builder consumes (one machine node per query node), and that the
// DOM baseline evaluates as the correctness oracle.
//
// Normalizations performed by the compiler:
//   * every predicate becomes a subtree of query nodes plus a boolean
//     formula over "child i matched" atoms (AND/OR/NOT);
//   * a value comparison on an element path (`[price > 10]`) is desugared to
//     a comparison on the element's direct text (`[price/text() > 10]`),
//     and `[. = 'x']` to `[text() = 'x']` — the data-centric reading, see
//     DESIGN.md;
//   * the final main-path step is marked as the output node.

#ifndef VITEX_XPATH_QUERY_H_
#define VITEX_XPATH_QUERY_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "xpath/ast.h"

namespace vitex::xpath {

/// Boolean formula over the children of one query node.
///
/// Leaves are kTrue or kAtom (child i matched); internal nodes are
/// kAnd/kOr (n-ary) and kNot (unary). Formulas are evaluated when the
/// corresponding XML element closes, at which point every child-match bit is
/// final — which is why NOT is safe in a single streaming pass.
struct Formula {
  enum class Kind : uint8_t { kTrue, kAtom, kAnd, kOr, kNot };

  Kind kind = Kind::kTrue;
  int atom_child = -1;            ///< kAtom: index into QueryNode::children.
  std::vector<Formula> operands;  ///< kAnd/kOr (>=2), kNot (exactly 1).

  static Formula True() { return Formula{}; }
  static Formula Atom(int child_index);
  static Formula And(std::vector<Formula> fs);
  static Formula Or(std::vector<Formula> fs);
  static Formula Not(Formula f);

  /// Evaluates against a bitset of child-match bits (bit i == child i
  /// matched at least once).
  bool Evaluate(uint64_t bits) const;

  /// True if any kNot appears in the tree (disables monotone shortcuts).
  bool ContainsNot() const;

  std::string ToString() const;
};

/// One node of the compiled twig.
struct QueryNode {
  /// Preorder index, also the machine-node index in TwigM.
  int id = 0;
  /// Incoming edge from the parent: kChild, kDescendant or kAttribute.
  /// The compiled twig root uses its own axis relative to the document root.
  Axis axis = Axis::kChild;
  /// For attribute nodes reached via '//': descendant-or-self semantics.
  bool descendant_attribute = false;
  NodeTestKind test = NodeTestKind::kName;
  std::string name;

  /// Value comparison, only on text and attribute nodes (kNone otherwise).
  CompareOp value_op = CompareOp::kNone;
  std::string literal;
  /// Numeric value of the RHS, resolved ONCE at compile time (never
  /// re-parsed per event): the lexer's value for a numeric token, or the
  /// XPath number() coercion of a string literal. Valid iff literal_numeric.
  double number = 0.0;
  /// The RHS was written as a numeric token (`[a = 10]`). Equality against
  /// it is numeric when the node value coerces to a number, with a string
  /// fallback otherwise (applied consistently for = and !=).
  bool literal_is_number = false;
  /// The RHS coerces to a number (numeric token, or string literal like
  /// '10'); relational comparisons require this and a numeric node value.
  bool literal_numeric = false;

  /// True for the single node whose matches are the query solutions.
  bool is_output = false;
  /// True for nodes on the root-to-output main path.
  bool on_main_path = false;

  QueryNode* parent = nullptr;
  int index_in_parent = -1;
  std::vector<QueryNode*> children;

  /// Satisfaction condition over `children` (includes the main-path child
  /// atom, so "satisfied" means the whole subquery rooted here matched).
  Formula formula;

  bool IsAttributeNode() const { return axis == Axis::kAttribute; }
  bool IsTextNode() const { return test == NodeTestKind::kText; }
  bool IsElementNode() const { return !IsAttributeNode() && !IsTextNode(); }

  /// Name test against an element tag (elements only).
  bool MatchesTag(std::string_view tag) const {
    return test == NodeTestKind::kWildcard || name == tag;
  }
  /// Name test against an attribute name (attribute nodes only).
  bool MatchesAttributeName(std::string_view attr) const {
    return test == NodeTestKind::kWildcard || name == attr;
  }
  /// Applies the value comparison to a text/attribute value. kNone accepts
  /// everything.
  bool CompareValue(std::string_view value) const;
};

/// A compiled, immutable query twig.
class Query {
 public:
  Query(Query&&) = default;
  Query& operator=(Query&&) = default;
  Query(const Query&) = delete;
  Query& operator=(const Query&) = delete;

  /// Compiles a parsed AST. Fails with Unsupported for constructs outside
  /// the executable fragment (positional predicates, >64 children per node).
  static Result<Query> Compile(const Path& ast, std::string source_text);

  const QueryNode* root() const { return root_; }
  const QueryNode* output() const { return output_; }
  /// All nodes in preorder; node ids index this vector.
  const std::vector<std::unique_ptr<QueryNode>>& nodes() const {
    return nodes_;
  }
  size_t size() const { return nodes_.size(); }
  const std::string& source() const { return source_; }
  /// True if any predicate uses not() (monotone-only optimizations off).
  bool has_negation() const { return has_negation_; }

  /// Multi-line debug rendering of the twig.
  std::string ToString() const;

 private:
  Query() = default;

  std::vector<std::unique_ptr<QueryNode>> nodes_;
  QueryNode* root_ = nullptr;
  QueryNode* output_ = nullptr;
  std::string source_;
  bool has_negation_ = false;

  friend class TwigCompiler;
};

/// One-call convenience: lex + parse + compile.
Result<Query> ParseAndCompile(std::string_view query_text);

/// ParseAndCompile for a union `p1 | p2 | ...`: one compiled query per
/// branch. A plain path compiles exactly as ParseAndCompile does, source
/// text included; union branches carry their re-rendered path text.
Result<std::vector<Query>> ParseAndCompileUnion(std::string_view query_text);

/// The value-comparison kernel shared by QueryNode::CompareValue and the
/// shared-plan parameter evaluators (canonical.h): applies `op` between a
/// node value and a literal whose numeric coercions were resolved once at
/// compile time. Keeping one definition guarantees a parameterized plan
/// compares exactly like a privately compiled query.
bool CompareAgainstLiteral(CompareOp op, std::string_view literal,
                           double number, bool literal_is_number,
                           bool literal_numeric, std::string_view value);

}  // namespace vitex::xpath

#endif  // VITEX_XPATH_QUERY_H_
