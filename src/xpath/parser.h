// Recursive-descent parser for the ViteX XPath fragment.
//
// Supported grammar (XP{/,//,*,[]} of the paper, plus the attribute and
// text() features the paper's own example queries use):
//
//   Union      := Query ( '|' Query )*
//   Query      := ('/' | '//') Step ( ('/' | '//') Step )*
//   Step       := '@' (Name | '*') | NodeTest Predicate*
//   NodeTest   := Name | '*' | 'text' '(' ')'
//   Predicate  := '[' OrExpr ']'
//   OrExpr     := AndExpr ( 'or' AndExpr )*
//   AndExpr    := Unary ( 'and' Unary )*
//   Unary      := 'not' '(' OrExpr ')' | '(' OrExpr ')' | Cmp
//   Cmp        := Operand ( CmpOp (String | Number) )?
//              |  (String | Number) CmpOp Operand
//   Operand    := RelPath | '.'
//   RelPath    := ('.')? ('/' | '//')? Step ( ('/' | '//') Step )*
//
// Inside predicates, a leading '//' is interpreted relative to the context
// node (as './/'), which matches user intent in streaming queries; truly
// absolute predicate paths are outside the fragment.

#ifndef VITEX_XPATH_PARSER_H_
#define VITEX_XPATH_PARSER_H_

#include <string_view>

#include "common/result.h"
#include "xpath/ast.h"

namespace vitex::xpath {

/// Parses a union query `p1 | p2 | ...` into its branch paths (one or more;
/// a plain path is a one-branch union). Every branch is an absolute path
/// with at least one step.
Result<std::vector<Path>> ParseXPathUnion(std::string_view query);

/// ParseXPathUnion restricted to one branch: rejects '|' unions, which
/// only a MultiQueryEngine (or vitex::Service) subscription can run.
Result<Path> ParseXPath(std::string_view query);

}  // namespace vitex::xpath

#endif  // VITEX_XPATH_PARSER_H_
