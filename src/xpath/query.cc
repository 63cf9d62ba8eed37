#include "xpath/query.h"

#include "common/string_util.h"
#include "xpath/parser.h"

namespace vitex::xpath {

Formula Formula::Atom(int child_index) {
  Formula f;
  f.kind = Kind::kAtom;
  f.atom_child = child_index;
  return f;
}

Formula Formula::And(std::vector<Formula> fs) {
  if (fs.empty()) return True();
  if (fs.size() == 1) return std::move(fs[0]);
  Formula f;
  f.kind = Kind::kAnd;
  f.operands = std::move(fs);
  return f;
}

Formula Formula::Or(std::vector<Formula> fs) {
  if (fs.empty()) return True();
  if (fs.size() == 1) return std::move(fs[0]);
  Formula f;
  f.kind = Kind::kOr;
  f.operands = std::move(fs);
  return f;
}

Formula Formula::Not(Formula inner) {
  Formula f;
  f.kind = Kind::kNot;
  f.operands.push_back(std::move(inner));
  return f;
}

bool Formula::Evaluate(uint64_t bits) const {
  switch (kind) {
    case Kind::kTrue:
      return true;
    case Kind::kAtom:
      return (bits >> atom_child) & 1u;
    case Kind::kAnd:
      for (const Formula& f : operands) {
        if (!f.Evaluate(bits)) return false;
      }
      return true;
    case Kind::kOr:
      for (const Formula& f : operands) {
        if (f.Evaluate(bits)) return true;
      }
      return false;
    case Kind::kNot:
      return !operands[0].Evaluate(bits);
  }
  return false;
}

bool Formula::ContainsNot() const {
  if (kind == Kind::kNot) return true;
  for (const Formula& f : operands) {
    if (f.ContainsNot()) return true;
  }
  return false;
}

std::string Formula::ToString() const {
  switch (kind) {
    case Kind::kTrue:
      return "true";
    case Kind::kAtom:
      return "c" + std::to_string(atom_child);
    case Kind::kAnd:
    case Kind::kOr: {
      std::string out = "(";
      for (size_t i = 0; i < operands.size(); ++i) {
        if (i > 0) out += kind == Kind::kAnd ? " & " : " | ";
        out += operands[i].ToString();
      }
      return out + ")";
    }
    case Kind::kNot:
      return "!" + operands[0].ToString();
  }
  return "?";
}

bool NodeValue::Number(double* out) const {
  if (state_ == kUnparsed) {
    state_ = ParseXPathNumber(text_, &number_) ? kNumber : kNotNumber;
  }
  *out = number_;
  return state_ == kNumber;
}

bool Literal::Matches(CompareOp op, const NodeValue& value) const {
  double v = 0.0;
  switch (op) {
    case CompareOp::kNone:
      return true;
    case CompareOp::kEq:
    case CompareOp::kNe: {
      // Numeric equality per XPath 1.0 when both sides coerce (node text
      // is whitespace-trimmed by ParseXPathNumber, so " 10 " = 10). String
      // comparison otherwise — including non-numeric text against a
      // numeric literal, so = and != stay exact complements.
      bool eq = is_number && value.Number(&v) ? v == number
                                              : value.text() == text;
      return op == CompareOp::kEq ? eq : !eq;
    }
    case CompareOp::kLt:
    case CompareOp::kLe:
    case CompareOp::kGt:
    case CompareOp::kGe: {
      // Relational comparison is numeric; a non-numeric side never
      // satisfies (NaN semantics). The literal side was coerced at compile
      // time (numeric / number).
      if (!numeric || !value.Number(&v)) return false;
      switch (op) {
        case CompareOp::kLt:
          return v < number;
        case CompareOp::kLe:
          return v <= number;
        case CompareOp::kGt:
          return v > number;
        case CompareOp::kGe:
          return v >= number;
        default:
          return false;
      }
    }
  }
  return false;
}

bool QueryNode::CompareValue(std::string_view value) const {
  return literal.Matches(value_op, NodeValue(value));
}

/// Builds Query objects from ASTs. Separate class so Query's constructor
/// stays private and the recursion state is contained.
class TwigCompiler {
 public:
  Result<Query> Run(const Path& ast, std::string source_text) {
    if (ast.steps.empty()) {
      return Status::InvalidArgument("query has no steps");
    }
    query_.source_ = std::move(source_text);
    // Main path.
    QueryNode* prev = nullptr;
    for (size_t i = 0; i < ast.steps.size(); ++i) {
      const Step& step = ast.steps[i];
      VITEX_ASSIGN_OR_RETURN(QueryNode * node, MakeNode(step, prev));
      node->on_main_path = true;
      std::vector<Formula> conjuncts;
      for (const auto& pred : step.predicates) {
        VITEX_ASSIGN_OR_RETURN(Formula f, CompilePred(*pred, node));
        conjuncts.push_back(std::move(f));
      }
      if (prev != nullptr) {
        // The previous main-path node requires this one.
        prev_conjuncts_.push_back(Formula::Atom(node->index_in_parent));
        prev->formula = Formula::And(std::move(prev_conjuncts_));
        prev_conjuncts_.clear();
      } else {
        query_.root_ = node;
      }
      prev_conjuncts_ = std::move(conjuncts);
      prev = node;
    }
    prev->formula = Formula::And(std::move(prev_conjuncts_));
    prev_conjuncts_.clear();
    prev->is_output = true;
    query_.output_ = prev;
    // Renumber in preorder so ids are stable and parents precede children.
    RenumberPreorder();
    for (const auto& n : query_.nodes_) {
      if (n->formula.ContainsNot()) {
        query_.has_negation_ = true;
        break;
      }
    }
    return std::move(query_);
  }

 private:
  Result<QueryNode*> MakeNode(const Step& step, QueryNode* parent) {
    auto owned = std::make_unique<QueryNode>();
    QueryNode* node = owned.get();
    node->axis = step.axis;
    node->descendant_attribute = step.descendant_attribute;
    node->test = step.test;
    node->name = step.name;
    node->parent = parent;
    if (parent != nullptr) {
      if (parent->children.size() >= 64) {
        return Status::Unsupported(
            "a query node may have at most 64 children");
      }
      if (parent->IsAttributeNode() || parent->IsTextNode()) {
        return Status::Unsupported(
            "attribute and text() nodes cannot have children");
      }
      node->index_in_parent = static_cast<int>(parent->children.size());
      parent->children.push_back(node);
    }
    query_.nodes_.push_back(std::move(owned));
    return node;
  }

  // Compiles a predicate expression in the context of `ctx` (the query node
  // the predicate is attached to); returns the formula contribution.
  Result<Formula> CompilePred(const PredExpr& e, QueryNode* ctx) {
    switch (e.kind) {
      case PredExpr::Kind::kAnd: {
        VITEX_ASSIGN_OR_RETURN(Formula l, CompilePred(*e.left, ctx));
        VITEX_ASSIGN_OR_RETURN(Formula r, CompilePred(*e.right, ctx));
        std::vector<Formula> fs;
        fs.push_back(std::move(l));
        fs.push_back(std::move(r));
        return Formula::And(std::move(fs));
      }
      case PredExpr::Kind::kOr: {
        VITEX_ASSIGN_OR_RETURN(Formula l, CompilePred(*e.left, ctx));
        VITEX_ASSIGN_OR_RETURN(Formula r, CompilePred(*e.right, ctx));
        std::vector<Formula> fs;
        fs.push_back(std::move(l));
        fs.push_back(std::move(r));
        return Formula::Or(std::move(fs));
      }
      case PredExpr::Kind::kNot: {
        VITEX_ASSIGN_OR_RETURN(Formula inner, CompilePred(*e.left, ctx));
        return Formula::Not(std::move(inner));
      }
      case PredExpr::Kind::kPath:
        return CompilePathPred(e.path, CompareOp::kNone, e, ctx);
      case PredExpr::Kind::kCompare:
        return CompilePathPred(e.path, e.op, e, ctx);
    }
    return Status::Internal("unknown predicate kind");
  }

  // Builds the chain of query nodes for a relative path under `ctx` and
  // returns the atom for its first node. For comparisons, the final node of
  // the chain carries the value test; element-final chains get a text()
  // child appended (the documented desugaring).
  Result<Formula> CompilePathPred(const Path& path, CompareOp op,
                                  const PredExpr& e, QueryNode* ctx) {
    if (path.steps.empty()) {
      // Self comparison `[. = 'x']` desugars to `[text() = 'x']`.
      if (op == CompareOp::kNone) {
        return Status::Unsupported("bare '.' predicate");
      }
      Step text_step;
      text_step.axis = Axis::kChild;
      text_step.test = NodeTestKind::kText;
      VITEX_ASSIGN_OR_RETURN(QueryNode * tn, MakeNode(text_step, ctx));
      SetValueTest(tn, op, e);
      tn->formula = Formula::True();
      return Formula::Atom(tn->index_in_parent);
    }
    QueryNode* parent = ctx;
    QueryNode* first = nullptr;
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const Step& step = path.steps[i];
      VITEX_ASSIGN_OR_RETURN(QueryNode * node, MakeNode(step, parent));
      if (first == nullptr) first = node;
      std::vector<Formula> conjuncts;
      for (const auto& pred : step.predicates) {
        VITEX_ASSIGN_OR_RETURN(Formula f, CompilePred(*pred, node));
        conjuncts.push_back(std::move(f));
      }
      // The chain requirement to the next step is added on the next
      // iteration; stash conjuncts on the node now and extend below.
      node->formula = Formula::And(std::move(conjuncts));
      if (parent != ctx) {
        // Parent (previous chain node) additionally requires this node.
        ExtendWithAtom(parent, node->index_in_parent);
      }
      parent = node;
    }
    QueryNode* last = parent;
    if (op != CompareOp::kNone) {
      if (last->IsAttributeNode() || last->IsTextNode()) {
        SetValueTest(last, op, e);
      } else {
        // Element comparison desugars to direct-text comparison.
        Step text_step;
        text_step.axis = Axis::kChild;
        text_step.test = NodeTestKind::kText;
        VITEX_ASSIGN_OR_RETURN(QueryNode * tn, MakeNode(text_step, last));
        SetValueTest(tn, op, e);
        tn->formula = Formula::True();
        ExtendWithAtom(last, tn->index_in_parent);
      }
    }
    return Formula::Atom(first->index_in_parent);
  }

  static void SetValueTest(QueryNode* node, CompareOp op, const PredExpr& e) {
    node->value_op = op;
    Literal& lit = node->literal;
    lit.text = e.literal;
    lit.is_number = e.literal_is_number;
    // Coerce the RHS once, at compile time; a comparison never re-parses
    // the literal per event.
    if (e.literal_is_number) {
      lit.number = e.number;
      lit.numeric = true;
    } else {
      lit.numeric = ParseXPathNumber(e.literal, &lit.number);
    }
  }

  // Adds "child atom" as a further conjunct of node->formula.
  static void ExtendWithAtom(QueryNode* node, int child_index) {
    std::vector<Formula> fs;
    if (node->formula.kind != Formula::Kind::kTrue) {
      fs.push_back(std::move(node->formula));
    }
    fs.push_back(Formula::Atom(child_index));
    node->formula = Formula::And(std::move(fs));
  }

  void RenumberPreorder() {
    std::vector<std::unique_ptr<QueryNode>> ordered;
    ordered.reserve(query_.nodes_.size());
    // Index current storage by pointer for extraction.
    int next_id = 0;
    NumberRec(query_.root_, &next_id);
    // Rebuild storage in id order.
    ordered.resize(query_.nodes_.size());
    for (auto& n : query_.nodes_) {
      int id = n->id;
      ordered[id] = std::move(n);
    }
    query_.nodes_ = std::move(ordered);
  }

  void NumberRec(QueryNode* node, int* next_id) {
    node->id = (*next_id)++;
    for (QueryNode* c : node->children) NumberRec(c, next_id);
  }

  Query query_;
  std::vector<Formula> prev_conjuncts_;
};

Result<Query> Query::Compile(const Path& ast, std::string source_text) {
  TwigCompiler compiler;
  return compiler.Run(ast, std::move(source_text));
}

namespace {
void TwigToStringRec(const QueryNode* node, int indent, std::string* out) {
  out->append(static_cast<size_t>(indent) * 2, ' ');
  switch (node->axis) {
    case Axis::kChild:
      out->append("/");
      break;
    case Axis::kDescendant:
      out->append("//");
      break;
    case Axis::kAttribute:
      out->append(node->descendant_attribute ? "//@" : "/@");
      break;
    case Axis::kSelf:
      out->append(".");
      break;
  }
  if (node->test == NodeTestKind::kWildcard) {
    out->append("*");
  } else if (node->test == NodeTestKind::kText) {
    out->append("text()");
  } else {
    out->append(node->name);
  }
  if (node->value_op != CompareOp::kNone) {
    out->push_back(' ');
    out->append(CompareOpToString(node->value_op));
    out->append(" '");
    out->append(node->literal.text);
    out->push_back('\'');
  }
  out->append("  [id=" + std::to_string(node->id));
  if (node->is_output) out->append(", OUTPUT");
  if (node->on_main_path) out->append(", main");
  if (node->formula.kind != Formula::Kind::kTrue) {
    out->append(", sat=" + node->formula.ToString());
  }
  out->append("]\n");
  for (const QueryNode* c : node->children) {
    TwigToStringRec(c, indent + 1, out);
  }
}
}  // namespace

std::string Query::ToString() const {
  std::string out;
  TwigToStringRec(root_, 0, &out);
  return out;
}

Result<Query> ParseAndCompile(std::string_view query_text) {
  VITEX_ASSIGN_OR_RETURN(Path ast, ParseXPath(query_text));
  return Query::Compile(ast, std::string(query_text));
}

Result<std::vector<Query>> ParseAndCompileUnion(std::string_view query_text) {
  VITEX_ASSIGN_OR_RETURN(std::vector<Path> branches,
                         ParseXPathUnion(query_text));
  std::vector<Query> out;
  out.reserve(branches.size());
  for (const Path& branch : branches) {
    VITEX_ASSIGN_OR_RETURN(
        Query compiled,
        Query::Compile(branch, branches.size() == 1
                                   ? std::string(query_text)
                                   : PathToString(branch)));
    out.push_back(std::move(compiled));
  }
  return out;
}

}  // namespace vitex::xpath
