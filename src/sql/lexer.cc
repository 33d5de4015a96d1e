#include "sql/lexer.h"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <limits>
#include <string_view>

#include "util/string_util.h"

namespace prefsql {
namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}
bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Converts the number spelled by `digits` (the lexer's accepted shapes:
// digits, optional fraction, optional exponent) into `tok`. An integer
// spelling beyond int64 becomes a DOUBLE, as in SQLite; the spelling of
// 2^63 is marked so a unary minus can fold it into INT64_MIN.
void LexNumber(std::string_view digits, bool is_float, Token* tok) {
  const char* first = digits.data();
  const char* last = first + digits.size();
  if (!is_float) {
    auto [ptr, ec] = std::from_chars(first, last, tok->int_value);
    if (ec == std::errc()) {
      tok->type = TokenType::kInteger;
      return;
    }
    tok->int_value = 0;
    // Out of range, so some digit is nonzero.
    const size_t lead = digits.find_first_not_of('0');
    tok->negates_to_int64_min = digits.substr(lead) == "9223372036854775808";
  }
  tok->type = TokenType::kFloat;
  auto [ptr, ec] = std::from_chars(first, last, tok->double_value);
  if (ec != std::errc()) {
    // Out of double range: strtod's answer (+inf, or 0 on underflow).
    tok->double_value = std::strtod(std::string(digits).c_str(), nullptr);
  }
}

// The type of a one-character punctuation token; kEnd for a character the
// dialect does not use.
TokenType PunctuationType(char c) {
  switch (c) {
    case '(': return TokenType::kLParen;
    case ')': return TokenType::kRParen;
    case ',': return TokenType::kComma;
    case '.': return TokenType::kDot;
    case ';': return TokenType::kSemicolon;
    case '*': return TokenType::kStar;
    case '+': return TokenType::kPlus;
    case '-': return TokenType::kMinus;
    case '/': return TokenType::kSlash;
    case '%': return TokenType::kPercent;
    case '=': return TokenType::kEq;
    case '<': return TokenType::kLt;
    case '>': return TokenType::kGt;
    default: return TokenType::kEnd;
  }
}

}  // namespace

Result<std::vector<Token>> Tokenize(const std::string& input) {
  std::vector<Token> out;
  // A multi-row VALUES list runs about one token per three bytes.
  out.reserve(input.size() / 3 + 1);
  size_t i = 0;
  const size_t n = input.size();
  // Punctuation and numbers carry no text; identifiers, keywords, strings
  // and named parameters carry theirs.
  auto push = [&](TokenType t, size_t off, size_t len,
                  std::string text = std::string()) -> Token& {
    Token& tok = out.emplace_back();
    tok.type = t;
    tok.text = std::move(text);
    tok.offset = off;
    tok.length = len;
    return tok;
  };
  while (i < n) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '-' && i + 1 < n && input[i + 1] == '-') {
      while (i < n && input[i] != '\n') ++i;
      continue;
    }
    size_t start = i;
    if (IsIdentStart(c)) {
      while (i < n && IsIdentChar(input[i])) ++i;
      std::string_view word(input.data() + start, i - start);
      std::string upper = ToUpper(word);
      if (IsReservedWord(upper)) {
        push(TokenType::kKeyword, start, i - start, std::move(upper));
      } else {
        push(TokenType::kIdentifier, start, i - start, std::string(word));
      }
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      bool is_float = false;
      while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      if (i < n && input[i] == '.') {
        is_float = true;
        ++i;
        while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
      }
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        size_t save = i;
        ++i;
        if (i < n && (input[i] == '+' || input[i] == '-')) ++i;
        if (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) {
          is_float = true;
          while (i < n && std::isdigit(static_cast<unsigned char>(input[i])))
            ++i;
        } else {
          i = save;  // not an exponent, e.g. "12e" -> number then identifier
        }
      }
      Token& tok = push(TokenType::kInteger, start, i - start);
      LexNumber(std::string_view(input.data() + start, i - start), is_float,
                &tok);
      continue;
    }
    if (c == '\'') {
      // One bulk append per run between quotes; '' is an escaped quote.
      std::string content;
      ++i;
      bool closed = false;
      while (i < n) {
        const size_t quote = input.find('\'', i);
        if (quote == std::string::npos) {
          i = n;
          break;
        }
        content.append(input, i, quote - i);
        if (quote + 1 < n && input[quote + 1] == '\'') {
          content += '\'';
          i = quote + 2;
        } else {
          i = quote + 1;
          closed = true;
          break;
        }
      }
      if (!closed) {
        return Status::ParseError("unterminated string literal at offset " +
                                  std::to_string(start));
      }
      push(TokenType::kString, start, i - start, std::move(content));
      continue;
    }
    if (c == '"') {
      // Quoted identifier.
      const size_t quote = input.find('"', i + 1);
      if (quote == std::string::npos) {
        return Status::ParseError("unterminated quoted identifier at offset " +
                                  std::to_string(start));
      }
      i = quote + 1;
      push(TokenType::kIdentifier, start, i - start,
           input.substr(start + 1, quote - start - 1));
      continue;
    }
    auto two = [&](char a, char b) {
      return c == a && i + 1 < n && input[i + 1] == b;
    };
    if (c == '?') {
      push(TokenType::kQuestion, start, 1);
      ++i;
      continue;
    }
    if (c == '$' && i + 1 < n && IsIdentStart(input[i + 1])) {
      ++i;
      size_t name_start = i;
      while (i < n && IsIdentChar(input[i])) ++i;
      push(TokenType::kNamedParam, start, i - start,
           input.substr(name_start, i - name_start));
      continue;
    }
    if (two('<', '>') || two('!', '=')) {
      // The spelling is kept: error messages quote '<>' or '!='.
      push(TokenType::kNe, start, 2, input.substr(i, 2));
      i += 2;
      continue;
    }
    if (two('<', '=')) {
      push(TokenType::kLe, start, 2);
      i += 2;
      continue;
    }
    if (two('>', '=')) {
      push(TokenType::kGe, start, 2);
      i += 2;
      continue;
    }
    if (two('|', '|')) {
      push(TokenType::kConcat, start, 2);
      i += 2;
      continue;
    }
    const TokenType t = PunctuationType(c);
    if (t == TokenType::kEnd) {
      return Status::ParseError(std::string("unexpected character '") + c +
                                "' at offset " + std::to_string(start));
    }
    push(t, start, 1);
    ++i;
  }
  push(TokenType::kEnd, n, 0);
  return out;
}

Value NumberTokenValue(const Token& tok, bool negate) {
  if (tok.type == TokenType::kInteger) {
    return Value::Int(negate ? -tok.int_value : tok.int_value);
  }
  if (negate && tok.negates_to_int64_min) {
    return Value::Int(std::numeric_limits<int64_t>::min());
  }
  return Value::Double(negate ? -tok.double_value : tok.double_value);
}

}  // namespace prefsql
