// Text syntax for RGX formulas.
//
//   alt    := cat ('|' cat)*
//   cat    := factor*                       (empty cat is ε)
//   factor := atom ('*' | '+' | '?')*
//   atom   := '(' alt ')' | ident '{' alt '}' | '[' class ']'
//           | '.'  (any letter, the paper's Σ) | '\e' (ε) | literal
//
// An identifier ([A-Za-z_][A-Za-z0-9_]*) immediately followed by '{'
// denotes a capture variable; otherwise its first character is taken as a
// letter literal. Escapes: \e \n \t \\ \. \| \* \+ \? \( \) \[ \] \{ \}
// \- \^ and \xNN. Character classes support ranges and '^' negation.
#ifndef SPANNERS_RGX_PARSER_H_
#define SPANNERS_RGX_PARSER_H_

#include <cstddef>
#include <string_view>

#include "common/status.h"
#include "rgx/ast.h"

namespace spanners {

/// The deepest nesting the RGX and query parsers accept: open groups,
/// variable braces and query operators while parsing, and levels of the
/// tree built (RgxNode::depth). Every later pass over a formula recurses
/// once per level, so deeper input is rejected with InvalidArgument
/// instead of overflowing the stack.
inline constexpr size_t kMaxNestingDepth = 1000;

/// Parses `pattern` into an RGX AST. Errors carry a position and reason.
Result<RgxPtr> ParseRgx(std::string_view pattern);

}  // namespace spanners

#endif  // SPANNERS_RGX_PARSER_H_
