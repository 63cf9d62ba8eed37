#include "xpath/parser.h"

#include <memory>
#include <vector>

#include "xpath/lexer.h"

namespace vitex::xpath {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<std::vector<Path>> ParseUnion() {
    std::vector<Path> out;
    while (true) {
      Path path;
      path.absolute = true;
      VITEX_RETURN_IF_ERROR(ParseSteps(&path, /*top_level=*/true));
      if (path.steps.empty()) {
        return Status::ParseError("XPath query has no steps");
      }
      out.push_back(std::move(path));
      if (Accept(TokenKind::kPipe)) continue;
      if (!At(TokenKind::kEnd)) {
        return Error("unexpected trailing tokens");
      }
      return out;
    }
  }

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  bool At(TokenKind k) const { return Cur().kind == k; }

  bool Accept(TokenKind k) {
    if (!At(k)) return false;
    ++pos_;
    return true;
  }

  Status Expect(TokenKind k) {
    if (Accept(k)) return Status::OK();
    return Error(std::string("expected ") + std::string(TokenKindToString(k)) +
                 " but found " + std::string(TokenKindToString(Cur().kind)));
  }

  Status Error(std::string msg) const {
    return Status::ParseError("XPath parser: " + msg + " at offset " +
                              std::to_string(Cur().offset));
  }

  // Parses ('/'|'//') Step ... for a top-level query, or
  // [('.'] ['/' | '//'] Step ... for a relative path in a predicate.
  Status ParseSteps(Path* path, bool top_level) {
    Axis axis;
    if (top_level) {
      if (Accept(TokenKind::kSlash)) {
        axis = Axis::kChild;
      } else if (Accept(TokenKind::kDoubleSlash)) {
        axis = Axis::kDescendant;
      } else {
        return Error("query must start with '/' or '//'");
      }
    } else {
      // Relative: optional '.' then optional separator.
      if (Accept(TokenKind::kDot)) {
        if (Accept(TokenKind::kSlash)) {
          axis = Axis::kChild;
        } else if (Accept(TokenKind::kDoubleSlash)) {
          axis = Axis::kDescendant;
        } else {
          // Bare '.' — the caller handles self comparison; reaching here
          // means '.' followed by something unexpected.
          return Error("'.' must be followed by '/' or '//' in a path");
        }
      } else if (Accept(TokenKind::kDoubleSlash)) {
        axis = Axis::kDescendant;  // leading // == .// inside predicates
      } else if (Accept(TokenKind::kSlash)) {
        return Error("absolute paths are not allowed inside predicates");
      } else {
        axis = Axis::kChild;
      }
    }
    while (true) {
      VITEX_RETURN_IF_ERROR(ParseStep(axis, path));
      if (Accept(TokenKind::kSlash)) {
        axis = Axis::kChild;
      } else if (Accept(TokenKind::kDoubleSlash)) {
        axis = Axis::kDescendant;
      } else {
        return Status::OK();
      }
    }
  }

  Status ParseStep(Axis axis, Path* path) {
    if (!path->steps.empty()) {
      const Step& prev = path->steps.back();
      if (prev.axis == Axis::kAttribute) {
        return Error("no steps may follow an attribute step");
      }
      if (prev.test == NodeTestKind::kText) {
        return Error("no steps may follow text()");
      }
    }
    Step step;
    if (Accept(TokenKind::kAt)) {
      // `//@id` keeps descendant-or-self semantics (XPath 1.0's
      // descendant-or-self::node()/@id): the attribute may belong to the
      // context element itself or to any descendant. `/@id` is the plain
      // child-axis form (attributes of the context element only).
      step.axis = Axis::kAttribute;
      step.descendant_attribute = axis == Axis::kDescendant;
      if (Accept(TokenKind::kStar)) {
        step.test = NodeTestKind::kWildcard;
      } else if (At(TokenKind::kName)) {
        step.test = NodeTestKind::kName;
        step.name = Cur().text;
        ++pos_;
      } else {
        return Error("expected attribute name or '*' after '@'");
      }
      path->steps.push_back(std::move(step));
      return Status::OK();
    }
    step.axis = axis;
    if (Accept(TokenKind::kStar)) {
      step.test = NodeTestKind::kWildcard;
    } else if (At(TokenKind::kName)) {
      std::string name = Cur().text;
      ++pos_;
      if (name == "text" && Accept(TokenKind::kLParen)) {
        VITEX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
        step.test = NodeTestKind::kText;
      } else {
        step.test = NodeTestKind::kName;
        step.name = std::move(name);
      }
    } else {
      return Error(std::string("expected a node test but found ") +
                   std::string(TokenKindToString(Cur().kind)));
    }
    // Predicates.
    while (Accept(TokenKind::kLBracket)) {
      if (step.test == NodeTestKind::kText) {
        return Error("predicates are not allowed on text()");
      }
      VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> pred, ParseOrExpr());
      VITEX_RETURN_IF_ERROR(Expect(TokenKind::kRBracket));
      step.predicates.push_back(std::move(pred));
    }
    path->steps.push_back(std::move(step));
    return Status::OK();
  }

  Result<std::unique_ptr<PredExpr>> ParseOrExpr() {
    VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> left, ParseAndExpr());
    while (Cur().IsKeyword("or")) {
      ++pos_;
      VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> right, ParseAndExpr());
      auto node = std::make_unique<PredExpr>();
      node->kind = PredExpr::Kind::kOr;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<std::unique_ptr<PredExpr>> ParseAndExpr() {
    VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> left, ParseUnaryExpr());
    while (Cur().IsKeyword("and")) {
      ++pos_;
      VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> right, ParseUnaryExpr());
      auto node = std::make_unique<PredExpr>();
      node->kind = PredExpr::Kind::kAnd;
      node->left = std::move(left);
      node->right = std::move(right);
      left = std::move(node);
    }
    return left;
  }

  Result<std::unique_ptr<PredExpr>> ParseUnaryExpr() {
    if (Cur().IsKeyword("not") && tokens_[pos_ + 1].kind == TokenKind::kLParen) {
      pos_ += 2;
      VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> inner, ParseOrExpr());
      VITEX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      auto node = std::make_unique<PredExpr>();
      node->kind = PredExpr::Kind::kNot;
      node->left = std::move(inner);
      return node;
    }
    if (Accept(TokenKind::kLParen)) {
      VITEX_ASSIGN_OR_RETURN(std::unique_ptr<PredExpr> inner, ParseOrExpr());
      VITEX_RETURN_IF_ERROR(Expect(TokenKind::kRParen));
      return inner;
    }
    // Literal-first comparison: '5 < price' normalizes to 'price > 5'.
    if (At(TokenKind::kString) || At(TokenKind::kNumber)) {
      Token lit = Cur();
      ++pos_;
      CompareOp op;
      VITEX_ASSIGN_OR_RETURN(op, ParseCompareOp());
      VITEX_ASSIGN_OR_RETURN(Path operand, ParseOperandPath());
      auto node = std::make_unique<PredExpr>();
      node->kind = PredExpr::Kind::kCompare;
      node->path = std::move(operand);
      node->op = FlipOp(op);
      FillLiteral(lit, node.get());
      return node;
    }
    // Path (existence) or path-first comparison.
    VITEX_ASSIGN_OR_RETURN(Path operand, ParseOperandPath());
    if (At(TokenKind::kEq) || At(TokenKind::kNe) || At(TokenKind::kLt) ||
        At(TokenKind::kLe) || At(TokenKind::kGt) || At(TokenKind::kGe)) {
      CompareOp op;
      VITEX_ASSIGN_OR_RETURN(op, ParseCompareOp());
      if (!At(TokenKind::kString) && !At(TokenKind::kNumber)) {
        return Error("comparison right-hand side must be a literal");
      }
      Token lit = Cur();
      ++pos_;
      auto node = std::make_unique<PredExpr>();
      node->kind = PredExpr::Kind::kCompare;
      node->path = std::move(operand);
      node->op = op;
      FillLiteral(lit, node.get());
      return node;
    }
    if (operand.steps.empty()) {
      return Error("bare '.' predicate requires a comparison");
    }
    auto node = std::make_unique<PredExpr>();
    node->kind = PredExpr::Kind::kPath;
    node->path = std::move(operand);
    return node;
  }

  // Parses a predicate operand: '.', or a relative path.
  Result<Path> ParseOperandPath() {
    Path path;
    path.absolute = false;
    if (At(TokenKind::kDot)) {
      // '.' alone (self string-value) or './...' path.
      if (tokens_[pos_ + 1].kind == TokenKind::kSlash ||
          tokens_[pos_ + 1].kind == TokenKind::kDoubleSlash) {
        VITEX_RETURN_IF_ERROR(ParseSteps(&path, /*top_level=*/false));
        return path;
      }
      ++pos_;
      return path;  // empty steps == self
    }
    VITEX_RETURN_IF_ERROR(ParseSteps(&path, /*top_level=*/false));
    return path;
  }

  Result<CompareOp> ParseCompareOp() {
    switch (Cur().kind) {
      case TokenKind::kEq:
        ++pos_;
        return CompareOp::kEq;
      case TokenKind::kNe:
        ++pos_;
        return CompareOp::kNe;
      case TokenKind::kLt:
        ++pos_;
        return CompareOp::kLt;
      case TokenKind::kLe:
        ++pos_;
        return CompareOp::kLe;
      case TokenKind::kGt:
        ++pos_;
        return CompareOp::kGt;
      case TokenKind::kGe:
        ++pos_;
        return CompareOp::kGe;
      default:
        return Error("expected a comparison operator");
    }
  }

  static CompareOp FlipOp(CompareOp op) {
    switch (op) {
      case CompareOp::kLt:
        return CompareOp::kGt;
      case CompareOp::kLe:
        return CompareOp::kGe;
      case CompareOp::kGt:
        return CompareOp::kLt;
      case CompareOp::kGe:
        return CompareOp::kLe;
      default:
        return op;  // = and != are symmetric
    }
  }

  static void FillLiteral(const Token& lit, PredExpr* node) {
    node->literal = lit.text;
    node->literal_is_number = lit.kind == TokenKind::kNumber;
    node->number = lit.number;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

Result<Path> ParseXPath(std::string_view query) {
  VITEX_ASSIGN_OR_RETURN(std::vector<Path> branches, ParseXPathUnion(query));
  if (branches.size() != 1) {
    return Status::ParseError(
        "XPath parser: '|' union queries run only as MultiQueryEngine or "
        "vitex::Service subscriptions");
  }
  return std::move(branches.front());
}

Result<std::vector<Path>> ParseXPathUnion(std::string_view query) {
  VITEX_ASSIGN_OR_RETURN(std::vector<Token> tokens, Tokenize(query));
  Parser parser(std::move(tokens));
  return parser.ParseUnion();
}

}  // namespace vitex::xpath
