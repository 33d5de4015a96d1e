#include "sql/normalize.h"

#include <cctype>

#include "sql/lexer.h"
#include "util/string_util.h"

namespace prefsql {

std::string NormalizeSql(std::string_view sql) {
  std::string out;
  out.reserve(sql.size());
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    char c = sql[i];
    // Quoted regions are preserved byte for byte — whitespace inside a
    // string literal or a quoted identifier is significant. A doubled
    // closing quote ('' / "") re-toggles immediately, which preserves it.
    if (c == '\'' || c == '"') {
      if (pending_space && !out.empty()) out += ' ';
      pending_space = false;
      const char quote = c;
      out += c;
      for (++i; i < sql.size(); ++i) {
        out += sql[i];
        if (sql[i] == quote) break;
      }
      continue;
    }
    // `--` line comments are stripped (the lexer does the same), so a
    // comment can never glue the rest of its line into the statement when
    // the newline collapses.
    if (c == '-' && i + 1 < sql.size() && sql[i + 1] == '-') {
      while (i < sql.size() && sql[i] != '\n') ++i;
      pending_space = !out.empty();
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out += ' ';
      pending_space = false;
    }
    out += c;
  }
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

namespace {

/// Whether literals at the current position are value positions (liftable)
/// or structural/display positions (kept verbatim).
enum class Clause { kKeep, kLift };

bool IsValueToken(TokenType t) {
  return t == TokenType::kIdentifier || t == TokenType::kInteger ||
         t == TokenType::kFloat || t == TokenType::kString ||
         t == TokenType::kRParen || t == TokenType::kQuestion ||
         t == TokenType::kNamedParam;
}

/// Keywords that switch into a value clause. LIMIT counts are liftable too
/// (`LIMIT 10` and `LIMIT 20` share one prepared plan; binding re-checks
/// the count), unlike OFFSET which stays structural.
bool OpensLiftClause(const Token& t) {
  return t.IsKeyword("WHERE") || t.IsKeyword("HAVING") || t.IsKeyword("ON") ||
         t.IsKeyword("PREFERRING") || t.IsKeyword("ONLY") ||  // BUT ONLY
         t.IsKeyword("LIMIT");
}

/// Keywords that switch back to a keep clause (select list, FROM,
/// GROUP/ORDER BY, OFFSET, GROUPING attribute lists).
bool OpensKeepClause(const Token& t) {
  return t.IsKeyword("SELECT") || t.IsKeyword("FROM") ||
         t.IsKeyword("GROUP") || t.IsKeyword("ORDER") ||
         t.IsKeyword("OFFSET") || t.IsKeyword("GROUPING");
}

}  // namespace

ParameterizedSql ParameterizeSql(const std::string& sql,
                                 bool collapse_in_lists) {
  ParameterizedSql out;
  auto tokens = Tokenize(sql);
  if (!tokens.ok()) return out;  // let the parser report the error

  // One output piece per kept token (its source slice) or "?" placeholder.
  struct Piece {
    TokenType type;
    std::string text;
    uint32_t width = 1;
  };
  std::vector<Piece> pieces;
  std::vector<Value> values;
  Clause clause = Clause::kKeep;
  std::vector<Clause> paren_stack;

  for (const Token& tok : *tokens) {
    if (tok.type == TokenType::kEnd) break;
    // Explicitly parameterized statements are already canonical holes; the
    // two placeholder spaces must not mix.
    if (tok.type == TokenType::kQuestion ||
        tok.type == TokenType::kNamedParam) {
      return ParameterizedSql{};
    }
    if (tok.type == TokenType::kKeyword) {
      if (OpensLiftClause(tok)) {
        clause = Clause::kLift;
      } else if (OpensKeepClause(tok)) {
        clause = Clause::kKeep;
      }
    } else if (tok.type == TokenType::kLParen) {
      paren_stack.push_back(clause);
    } else if (tok.type == TokenType::kRParen) {
      if (!paren_stack.empty()) {
        clause = paren_stack.back();
        paren_stack.pop_back();
      }
    }

    const bool literal = tok.type == TokenType::kInteger ||
                         tok.type == TokenType::kFloat ||
                         tok.type == TokenType::kString;
    const bool after_date_keyword =
        !pieces.empty() && pieces.back().type == TokenType::kKeyword &&
        EqualsIgnoreCase(pieces.back().text, "DATE");
    if (clause == Clause::kLift && literal &&
        !(tok.type == TokenType::kString && after_date_keyword)) {
      Value v;
      if (tok.type == TokenType::kString) {
        v = Value::Text(tok.text);
      } else {
        // Fold a leading unary minus into the lifted value (`AROUND -5`,
        // `x = -5`): the minus is unary when what precedes it is not a
        // value.
        const bool negate =
            !pieces.empty() && pieces.back().type == TokenType::kMinus &&
            (pieces.size() < 2 ||
             !IsValueToken(pieces[pieces.size() - 2].type));
        if (negate) pieces.pop_back();
        v = NumberTokenValue(tok, negate);
      }
      values.push_back(std::move(v));
      pieces.push_back({TokenType::kQuestion, "?"});
      continue;
    }
    pieces.push_back({tok.type, sql.substr(tok.offset, tok.length)});
  }
  if (values.empty()) return ParameterizedSql{};

  // Arity normalization: a fully lifted IN list — `IN (?, ?, ?)` — becomes
  // one width-3 placeholder, `IN (?)`, so every arity keys identically.
  // Any unlifted member (an identifier, a DATE literal, a subquery) breaks
  // the pattern and the list is left as rendered.
  if (collapse_in_lists) {
    std::vector<Piece> collapsed;
    collapsed.reserve(pieces.size());
    for (size_t i = 0; i < pieces.size();) {
      const bool in_kw = pieces[i].type == TokenType::kKeyword &&
                         EqualsIgnoreCase(pieces[i].text, "IN");
      if (in_kw && i + 2 < pieces.size() &&
          pieces[i + 1].type == TokenType::kLParen &&
          pieces[i + 2].type == TokenType::kQuestion) {
        // Try to match `( ? (, ?)* )` starting at the LParen.
        size_t j = i + 3;
        uint32_t members = 1;
        while (j + 1 < pieces.size() &&
               pieces[j].type == TokenType::kComma &&
               pieces[j + 1].type == TokenType::kQuestion) {
          ++members;
          j += 2;
        }
        if (j < pieces.size() && pieces[j].type == TokenType::kRParen) {
          collapsed.push_back(pieces[i]);
          collapsed.push_back(pieces[i + 1]);
          collapsed.push_back({TokenType::kQuestion, "?", members});
          collapsed.push_back(pieces[j]);
          i = j + 1;
          continue;
        }
      }
      collapsed.push_back(pieces[i]);
      ++i;
    }
    pieces = std::move(collapsed);
  }

  // Drop trailing semicolons, then render with canonical spacing.
  while (!pieces.empty() && pieces.back().type == TokenType::kSemicolon) {
    pieces.pop_back();
  }
  std::string text;
  std::vector<uint32_t> widths;
  TokenType prev = TokenType::kEnd;
  for (const Piece& piece : pieces) {
    if (piece.type == TokenType::kQuestion) widths.push_back(piece.width);
    const bool no_space_before = piece.type == TokenType::kComma ||
                                 piece.type == TokenType::kRParen ||
                                 piece.type == TokenType::kDot ||
                                 piece.type == TokenType::kSemicolon;
    const bool no_space_after =
        prev == TokenType::kLParen || prev == TokenType::kDot;
    if (!text.empty() && !no_space_before && !no_space_after) text += ' ';
    text += piece.text;
    prev = piece.type;
  }
  out.parameterized = true;
  out.text = std::move(text);
  out.values = std::move(values);
  out.widths = std::move(widths);
  return out;
}

}  // namespace prefsql
