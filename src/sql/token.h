// Token definitions for the SQL / Preference SQL lexer.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>

namespace prefsql {

/// Lexical token categories. Keywords are folded into kKeyword with the
/// upper-cased text in Token::text; Preference-SQL-specific words (AROUND,
/// CASCADE, LOWEST, ...) are ordinary keywords of the extended dialect.
enum class TokenType {
  kEnd,
  kIdentifier,   ///< bare or "quoted" identifier
  kKeyword,      ///< reserved word, upper-cased in text
  kString,       ///< 'single quoted', unescaped content in text
  kInteger,      ///< integer literal, value in int_value
  kFloat,        ///< floating literal, value in double_value
  kLParen,
  kRParen,
  kComma,
  kDot,
  kSemicolon,
  kStar,         ///< '*' (multiplication or SELECT *)
  kPlus,
  kMinus,
  kSlash,
  kPercent,
  kEq,           ///< '='
  kNe,           ///< '<>' or '!='
  kLt,
  kLe,
  kGt,
  kGe,
  kConcat,       ///< '||'
  kQuestion,     ///< '?' positional statement parameter
  kNamedParam,   ///< '$name' named statement parameter (name in text)
};

/// One lexed token with its source offset (for error messages) and length
/// (so normalization can re-emit a token byte-for-byte from the input).
///
/// An integer spelling beyond int64 lexes as kFloat (as in SQLite);
/// `negates_to_int64_min` marks the one such spelling, 9223372036854775808,
/// whose negation is INT64_MIN and folds back to an integer.
struct Token {
  TokenType type = TokenType::kEnd;
  bool negates_to_int64_min = false;
  std::string text;       // identifier/keyword/string/named-parameter text;
                          // the spelling of kNe; empty otherwise
  int64_t int_value = 0;
  double double_value = 0.0;
  size_t offset = 0;      // byte offset in the input
  size_t length = 0;      // byte length of the source spelling

  bool IsKeyword(const char* kw) const;
  std::string Describe() const;
};

/// True iff `word` (upper-cased) is a reserved word of the dialect.
bool IsReservedWord(std::string_view upper);

}  // namespace prefsql
