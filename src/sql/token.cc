#include "sql/token.h"

#include <unordered_set>

#include "util/string_util.h"

namespace prefsql {
namespace {

// The fixed spelling of a punctuation or operator token (which carries no
// text of its own).
const char* Spelling(TokenType type) {
  switch (type) {
    case TokenType::kLParen: return "(";
    case TokenType::kRParen: return ")";
    case TokenType::kComma: return ",";
    case TokenType::kDot: return ".";
    case TokenType::kSemicolon: return ";";
    case TokenType::kStar: return "*";
    case TokenType::kPlus: return "+";
    case TokenType::kMinus: return "-";
    case TokenType::kSlash: return "/";
    case TokenType::kPercent: return "%";
    case TokenType::kEq: return "=";
    case TokenType::kLt: return "<";
    case TokenType::kLe: return "<=";
    case TokenType::kGt: return ">";
    case TokenType::kGe: return ">=";
    case TokenType::kConcat: return "||";
    default: return "";
  }
}

}  // namespace

bool Token::IsKeyword(const char* kw) const {
  return type == TokenType::kKeyword && text == kw;
}

std::string Token::Describe() const {
  switch (type) {
    case TokenType::kEnd:
      return "<end of input>";
    case TokenType::kIdentifier:
      return "identifier '" + text + "'";
    case TokenType::kKeyword:
      return "keyword " + text;
    case TokenType::kString:
      return "string '" + text + "'";
    case TokenType::kInteger:
      return "integer " + std::to_string(int_value);
    case TokenType::kFloat:
      return "number";
    case TokenType::kQuestion:
      return "parameter '?'";
    case TokenType::kNamedParam:
      return "parameter '$" + text + "'";
    case TokenType::kNe:
      return "'" + text + "'";
    default:
      return std::string("'") + Spelling(type) + "'";
  }
}

bool IsReservedWord(std::string_view upper) {
  static const std::unordered_set<std::string_view> kWords = {
      // Standard SQL subset.
      "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "ASC",
      "DESC", "LIMIT", "OFFSET", "INSERT", "INTO", "VALUES", "CREATE",
      "TABLE", "VIEW", "INDEX", "DROP", "UPDATE", "SET", "DELETE", "JOIN",
      "INNER", "LEFT", "OUTER", "CROSS", "ON", "AS", "AND", "OR", "NOT",
      "IN", "EXISTS", "BETWEEN", "LIKE", "IS", "NULL", "CASE", "WHEN",
      "THEN", "ELSE", "END", "DISTINCT", "TRUE", "FALSE", "DATE", "IF",
      "UNION", "ALL",
      // Preference SQL extensions (paper §2.2).
      "PREFERRING", "GROUPING", "BUT", "ONLY", "CASCADE", "AROUND",
      "PREFERENCE", "EXPLAIN", "DUAL", "INTERSECT",
      "CONTAINS", "EXPLICIT", "BETTER", "THAN", "LOWEST", "HIGHEST",
  };
  return kWords.count(upper) > 0;
}

}  // namespace prefsql
