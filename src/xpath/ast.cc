#include "xpath/ast.h"

namespace vitex::xpath {

std::string_view AxisToString(Axis axis) {
  switch (axis) {
    case Axis::kChild:
      return "child";
    case Axis::kDescendant:
      return "descendant";
    case Axis::kAttribute:
      return "attribute";
    case Axis::kSelf:
      return "self";
  }
  return "?";
}

std::string_view CompareOpToString(CompareOp op) {
  switch (op) {
    case CompareOp::kNone:
      return "";
    case CompareOp::kEq:
      return "=";
    case CompareOp::kNe:
      return "!=";
    case CompareOp::kLt:
      return "<";
    case CompareOp::kLe:
      return "<=";
    case CompareOp::kGt:
      return ">";
    case CompareOp::kGe:
      return ">=";
  }
  return "?";
}

namespace {

void AppendStep(const Step& step, bool first, bool absolute,
                std::string* out) {
  bool descendant = step.axis == Axis::kDescendant ||
                    (step.axis == Axis::kAttribute && step.descendant_attribute);
  if (first) {
    if (absolute) {
      out->append(descendant ? "//" : "/");
    } else if (descendant) {
      out->append(".//");
    }
  } else {
    out->append(descendant ? "//" : "/");
  }
  if (step.axis == Axis::kAttribute) out->push_back('@');
  switch (step.test) {
    case NodeTestKind::kName:
      out->append(step.name);
      break;
    case NodeTestKind::kWildcard:
      out->push_back('*');
      break;
    case NodeTestKind::kText:
      out->append("text()");
      break;
  }
  for (const auto& pred : step.predicates) {
    out->push_back('[');
    out->append(PredExprToString(*pred));
    out->push_back(']');
  }
}

}  // namespace

std::string PathToString(const Path& path) {
  if (path.steps.empty()) return ".";
  std::string out;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    AppendStep(path.steps[i], i == 0, path.absolute, &out);
  }
  return out;
}

std::string PredExprToString(const PredExpr& e) {
  switch (e.kind) {
    case PredExpr::Kind::kPath:
      return PathToString(e.path);
    case PredExpr::Kind::kCompare: {
      std::string out = PathToString(e.path);
      out.push_back(' ');
      out.append(CompareOpToString(e.op));
      out.push_back(' ');
      if (e.literal_is_number) {
        out.append(e.literal);
      } else {
        out.push_back('\'');
        out.append(e.literal);
        out.push_back('\'');
      }
      return out;
    }
    case PredExpr::Kind::kAnd:
      return "(" + PredExprToString(*e.left) + " and " +
             PredExprToString(*e.right) + ")";
    case PredExpr::Kind::kOr:
      return "(" + PredExprToString(*e.left) + " or " +
             PredExprToString(*e.right) + ")";
    case PredExpr::Kind::kNot:
      return "not(" + PredExprToString(*e.left) + ")";
  }
  return "?";
}

}  // namespace vitex::xpath
