#include "query/parser.h"

#include <algorithm>
#include <cctype>
#include <string>
#include <vector>

#include "rgx/parser.h"

namespace spanners {
namespace query {

namespace {

// Recursive-descent parser over a cursor; every helper reports errors with
// the 0-based byte position for tooling-friendly messages.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<ExprPtr> Parse() {
    size_t height = 0;
    SPANNERS_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(0, &height));
    SkipSpace();
    if (pos_ != text_.size())
      return Error("trailing input after expression");
    return e;
  }

 private:
  Status Error(const std::string& reason) const {
    return Status::InvalidArgument("query parse error at position " +
                                   std::to_string(pos_) + ": " + reason);
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_])))
      ++pos_;
  }

  bool Consume(char c) {
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  Status Expect(char c) {
    if (!Consume(c))
      return Error(std::string("expected '") + c + "'");
    return Status::OK();
  }

  static bool IsIdentStart(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
  }
  static bool IsIdentChar(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  }

  Result<std::string> ParseIdent() {
    SkipSpace();
    if (pos_ >= text_.size() || !IsIdentStart(text_[pos_]))
      return Error("expected an identifier");
    size_t start = pos_;
    while (pos_ < text_.size() && IsIdentChar(text_[pos_])) ++pos_;
    return std::string(text_.substr(start, pos_ - start));
  }

  Result<std::string> ParseString() {
    SkipSpace();
    if (pos_ >= text_.size() || text_[pos_] != '"')
      return Error("expected a double-quoted string");
    ++pos_;
    std::string out;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      char c = text_[pos_++];
      if (c == '\\' && pos_ < text_.size() &&
          (text_[pos_] == '"' || text_[pos_] == '\\')) {
        c = text_[pos_++];  // \" and \\ unescape; anything else verbatim
      }
      out.push_back(c);
    }
    if (pos_ >= text_.size()) return Error("unterminated string literal");
    ++pos_;  // closing quote
    return out;
  }

  Status TooDeep() const {
    return Error("query nests deeper than " +
                 std::to_string(kMaxNestingDepth) + " levels");
  }

  // One operator and its operands. `depth` is the number of operators
  // open around it; *height receives the levels of the tree it builds (a
  // leaf is 1). Both stay within kMaxNestingDepth, because compiling the
  // tree recurses once per level.
  Result<ExprPtr> ParseExpr(size_t depth, size_t* height) {
    if (depth == kMaxNestingDepth) return TooDeep();
    *height = 1;
    SPANNERS_ASSIGN_OR_RETURN(std::string head, ParseIdent());
    SPANNERS_RETURN_NOT_OK(Expect('('));
    if (head == "rgx") {
      SPANNERS_ASSIGN_OR_RETURN(std::string pattern, ParseString());
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::Pattern(pattern);
    }
    if (head == "rule") {
      std::vector<std::string> rule_texts;
      do {
        SPANNERS_ASSIGN_OR_RETURN(std::string rule, ParseString());
        rule_texts.push_back(std::move(rule));
      } while (Consume(','));
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::RuleProgram(std::move(rule_texts));
    }
    if (head == "union" || head == "join") {
      std::vector<ExprPtr> parts;
      do {
        size_t part_height = 0;
        SPANNERS_ASSIGN_OR_RETURN(ExprPtr part,
                                  ParseExpr(depth + 1, &part_height));
        // The operands fold left: each one after the first adds a level.
        *height = parts.empty() ? part_height
                                : std::max(*height, part_height) + 1;
        if (*height > kMaxNestingDepth) return TooDeep();
        parts.push_back(std::move(part));
      } while (Consume(','));
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      if (parts.size() < 2)
        return Error(head + "() needs at least two operands");
      ExprPtr e = parts[0];
      for (size_t i = 1; i < parts.size(); ++i)
        e = head == "union" ? SpannerExpr::Union(std::move(e), parts[i])
                            : SpannerExpr::NaturalJoin(std::move(e), parts[i]);
      return e;
    }
    if (head == "project") {
      SPANNERS_ASSIGN_OR_RETURN(ExprPtr input, ParseExpr(depth + 1, height));
      if (++*height > kMaxNestingDepth) return TooDeep();
      VarSet keep;
      while (Consume(',')) {
        SPANNERS_ASSIGN_OR_RETURN(std::string name, ParseIdent());
        keep.Insert(Variable::Intern(name));
      }
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::Project(std::move(input), std::move(keep));
    }
    if (head == "eq") {
      SPANNERS_ASSIGN_OR_RETURN(ExprPtr input, ParseExpr(depth + 1, height));
      if (++*height > kMaxNestingDepth) return TooDeep();
      SPANNERS_RETURN_NOT_OK(Expect(','));
      SPANNERS_ASSIGN_OR_RETURN(std::string x, ParseIdent());
      SPANNERS_RETURN_NOT_OK(Expect(','));
      SPANNERS_ASSIGN_OR_RETURN(std::string y, ParseIdent());
      SPANNERS_RETURN_NOT_OK(Expect(')'));
      return SpannerExpr::SelectEq(std::move(input), Variable::Intern(x),
                                   Variable::Intern(y));
    }
    return Error("unknown operator '" + head +
                 "' (expected rgx, rule, union, join, project or eq)");
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

Result<ExprPtr> ParseQuery(std::string_view text) {
  return Parser(text).Parse();
}

}  // namespace query
}  // namespace spanners
