#include "sql/parser.h"

#include "sql/lexer.h"
#include "types/date.h"
#include "util/string_util.h"

namespace prefsql {
namespace {

/// Token-stream parser. Instantiated per statement; all Parse* methods
/// return Results and leave the cursor on the first unconsumed token.
class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatementTop();
  Result<ExprPtr> ParseExprTop();
  Result<PrefTermPtr> ParsePreferenceTop();

  bool AtEnd() {
    SkipSemicolons();
    return Peek().type == TokenType::kEnd;
  }

 private:
  // -- Token helpers ------------------------------------------------------
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Advance() { return tokens_[pos_ < tokens_.size() - 1 ? pos_++ : pos_]; }
  bool Check(TokenType t) const { return Peek().type == t; }
  bool CheckKeyword(const char* kw) const { return Peek().IsKeyword(kw); }
  bool Match(TokenType t) {
    if (Check(t)) {
      Advance();
      return true;
    }
    return false;
  }
  bool MatchKeyword(const char* kw) {
    if (CheckKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  Status Expect(TokenType t, const char* what) {
    if (Match(t)) return Status::OK();
    return Error(std::string("expected ") + what);
  }
  Status ExpectKeyword(const char* kw) {
    if (MatchKeyword(kw)) return Status::OK();
    return Error(std::string("expected ") + kw);
  }
  Status Error(const std::string& msg) const {
    return Status::ParseError(msg + ", found " + Peek().Describe() +
                              " at offset " + std::to_string(Peek().offset));
  }
  void SkipSemicolons() {
    while (Check(TokenType::kSemicolon)) Advance();
  }

  Result<std::string> ExpectIdentifier(const char* what) {
    if (Check(TokenType::kIdentifier)) return Advance().text;
    return Error(std::string("expected ") + what);
  }

  // -- Statements ---------------------------------------------------------
  Result<Statement> ParseStatementBody();
  Result<Statement> ParseCreate();
  Result<Statement> ParseInsert();
  Result<Statement> ParseUpdate();
  Result<Statement> ParseDelete();
  Result<Statement> ParseDrop();
  Result<Statement> ParseSet();
  Result<std::shared_ptr<SelectStmt>> ParseSelect();
  Result<std::unique_ptr<TableRef>> ParseTableRef();
  Result<std::unique_ptr<TableRef>> ParseTableRefPrimary();

  // -- Expressions (precedence climbing) -----------------------------------
  Result<ExprPtr> ParseExpr();
  Result<ExprPtr> ParseOr();
  Result<ExprPtr> ParseAnd();
  Result<ExprPtr> ParseNot();
  Result<ExprPtr> ParseComparison();
  Result<ExprPtr> ParseAdditive();
  Result<ExprPtr> ParseMultiplicative();
  Result<ExprPtr> ParseUnary();
  Result<ExprPtr> ParsePrimary();
  Result<ExprPtr> ParseCase();
  Result<std::vector<ExprPtr>> ParseExprList();

  // -- Preferences ---------------------------------------------------------
  Result<PrefTermPtr> ParsePrefPrioritized();
  Result<PrefTermPtr> ParsePrefPareto();
  Result<PrefTermPtr> ParsePrefIntersect();
  Result<PrefTermPtr> ParsePrefBase();
  Result<PrefTermPtr> ParsePrefAtom();
  Result<Value> ParsePrefLiteral();
  Result<std::vector<Value>> ParsePrefLiteralList();

  // -- Parameters ----------------------------------------------------------
  /// Registers a placeholder and returns its parameter value. Positional
  /// `?` placeholders get the next ordinal; `$name` placeholders share one
  /// ordinal per distinct name (first occurrence assigns it).
  Value MakeParam(std::string name) {
    if (!name.empty()) {
      for (size_t i = 0; i < param_names_.size(); ++i) {
        if (param_names_[i] == name) {
          return Value::Param(static_cast<int32_t>(i), std::move(name));
        }
      }
    }
    param_names_.push_back(name);
    return Value::Param(static_cast<int32_t>(param_names_.size() - 1),
                        std::move(name));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  /// Ordinal -> name ("" = positional) of the statement being parsed.
  std::vector<std::string> param_names_;
};

// ===========================================================================
// Statements
// ===========================================================================

Result<Statement> Parser::ParseStatementTop() {
  SkipSemicolons();
  param_names_.clear();  // parameter ordinals are per statement
  PSQL_ASSIGN_OR_RETURN(Statement st, ParseStatementBody());
  st.has_parameters = !param_names_.empty();
  return st;
}

Result<Statement> Parser::ParseStatementBody() {
  if (CheckKeyword("SELECT")) {
    PSQL_ASSIGN_OR_RETURN(auto sel, ParseSelect());
    Statement st;
    st.kind = StatementKind::kSelect;
    st.select = std::move(sel);
    return st;
  }
  if (CheckKeyword("CREATE")) return ParseCreate();
  if (CheckKeyword("INSERT")) return ParseInsert();
  if (CheckKeyword("UPDATE")) return ParseUpdate();
  if (CheckKeyword("DELETE")) return ParseDelete();
  if (CheckKeyword("DROP")) return ParseDrop();
  if (CheckKeyword("SET")) return ParseSet();
  if (MatchKeyword("EXPLAIN")) {
    Statement st;
    st.kind = StatementKind::kExplain;
    PSQL_ASSIGN_OR_RETURN(st.select, ParseSelect());
    return st;
  }
  return Error("expected a statement");
}

Result<Statement> Parser::ParseCreate() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("CREATE"));
  Statement st;
  if (MatchKeyword("TABLE")) {
    st.kind = StatementKind::kCreateTable;
    if (MatchKeyword("IF")) {
      PSQL_RETURN_IF_ERROR(ExpectKeyword("NOT"));
      PSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
      st.if_not_exists = true;
    }
    PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("table name"));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    do {
      ColumnDef def;
      PSQL_ASSIGN_OR_RETURN(def.name, ExpectIdentifier("column name"));
      std::string type_name;
      if (Check(TokenType::kIdentifier)) {
        type_name = Advance().text;
      } else if (CheckKeyword("DATE")) {
        Advance();
        type_name = "DATE";
      } else {
        return Error("expected column type");
      }
      auto ct = ParseColumnType(type_name);
      if (!ct) {
        return Status::ParseError("unknown column type: " + type_name);
      }
      def.type = *ct;
      // Accept and ignore a length suffix like VARCHAR(40).
      if (Match(TokenType::kLParen)) {
        if (!Check(TokenType::kInteger)) return Error("expected length");
        Advance();
        PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      }
      st.columns.push_back(std::move(def));
    } while (Match(TokenType::kComma));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return st;
  }
  if (MatchKeyword("VIEW")) {
    st.kind = StatementKind::kCreateView;
    PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("view name"));
    PSQL_RETURN_IF_ERROR(ExpectKeyword("AS"));
    PSQL_ASSIGN_OR_RETURN(st.select, ParseSelect());
    return st;
  }
  if (MatchKeyword("INDEX")) {
    st.kind = StatementKind::kCreateIndex;
    PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("index name"));
    PSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
    PSQL_ASSIGN_OR_RETURN(st.on_table, ExpectIdentifier("table name"));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    do {
      PSQL_ASSIGN_OR_RETURN(auto col, ExpectIdentifier("column name"));
      st.index_columns.push_back(std::move(col));
    } while (Match(TokenType::kComma));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return st;
  }
  if (MatchKeyword("PREFERENCE")) {
    // Preference Definition Language: CREATE PREFERENCE <name> AS <pref>.
    st.kind = StatementKind::kCreatePreference;
    PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("preference name"));
    PSQL_RETURN_IF_ERROR(ExpectKeyword("AS"));
    PSQL_ASSIGN_OR_RETURN(st.preference, ParsePrefPrioritized());
    return st;
  }
  return Error("expected TABLE, VIEW, INDEX or PREFERENCE after CREATE");
}

Result<Statement> Parser::ParseInsert() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("INSERT"));
  PSQL_RETURN_IF_ERROR(ExpectKeyword("INTO"));
  Statement st;
  st.kind = StatementKind::kInsert;
  PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("table name"));
  if (Check(TokenType::kLParen) &&
      Peek(1).type == TokenType::kIdentifier) {
    Advance();
    do {
      PSQL_ASSIGN_OR_RETURN(auto col, ExpectIdentifier("column name"));
      st.insert_columns.push_back(std::move(col));
    } while (Match(TokenType::kComma));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
  }
  if (MatchKeyword("VALUES")) {
    do {
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      PSQL_ASSIGN_OR_RETURN(auto row, ParseExprList());
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      st.insert_rows.push_back(std::move(row));
    } while (Match(TokenType::kComma));
    return st;
  }
  if (CheckKeyword("SELECT")) {
    PSQL_ASSIGN_OR_RETURN(st.select, ParseSelect());
    return st;
  }
  return Error("expected VALUES or SELECT in INSERT");
}

Result<Statement> Parser::ParseUpdate() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("UPDATE"));
  Statement st;
  st.kind = StatementKind::kUpdate;
  PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("table name"));
  PSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
  do {
    PSQL_ASSIGN_OR_RETURN(auto col, ExpectIdentifier("column name"));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
    PSQL_ASSIGN_OR_RETURN(auto value, ParseExpr());
    st.assignments.emplace_back(std::move(col), std::move(value));
  } while (Match(TokenType::kComma));
  if (MatchKeyword("WHERE")) {
    PSQL_ASSIGN_OR_RETURN(st.where, ParseExpr());
  }
  return st;
}

Result<Statement> Parser::ParseDelete() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("DELETE"));
  PSQL_RETURN_IF_ERROR(ExpectKeyword("FROM"));
  Statement st;
  st.kind = StatementKind::kDelete;
  PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("table name"));
  if (MatchKeyword("WHERE")) {
    PSQL_ASSIGN_OR_RETURN(st.where, ParseExpr());
  }
  return st;
}

Result<Statement> Parser::ParseDrop() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("DROP"));
  Statement st;
  st.kind = StatementKind::kDrop;
  if (MatchKeyword("TABLE")) {
    st.drop_kind = Statement::DropKind::kTable;
  } else if (MatchKeyword("VIEW")) {
    st.drop_kind = Statement::DropKind::kView;
  } else if (MatchKeyword("INDEX")) {
    st.drop_kind = Statement::DropKind::kIndex;
  } else if (MatchKeyword("PREFERENCE")) {
    st.drop_kind = Statement::DropKind::kPreference;
  } else {
    return Error("expected TABLE, VIEW, INDEX or PREFERENCE after DROP");
  }
  if (MatchKeyword("IF")) {
    PSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    st.if_exists = true;
  }
  PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("object name"));
  return st;
}

Result<Statement> Parser::ParseSet() {
  // SET <knob> = <value>; the value may be a literal or a bare word
  // (on/off/sfs/...), which arrives as text.
  PSQL_RETURN_IF_ERROR(ExpectKeyword("SET"));
  Statement st;
  st.kind = StatementKind::kSet;
  PSQL_ASSIGN_OR_RETURN(st.name, ExpectIdentifier("setting name"));
  PSQL_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kInteger:
    case TokenType::kFloat:
      st.set_value = NumberTokenValue(tok);
      break;
    case TokenType::kString:
    case TokenType::kIdentifier:
      st.set_value = Value::Text(tok.text);
      break;
    case TokenType::kKeyword:
      if (tok.IsKeyword("TRUE")) {
        st.set_value = Value::Bool(true);
      } else if (tok.IsKeyword("FALSE")) {
        st.set_value = Value::Bool(false);
      } else if (tok.IsKeyword("DEFAULT")) {
        st.set_value = Value::Null();  // Null = reset to the default
      } else {
        // Reserved words used as bare values (e.g. `SET x = on`) arrive as
        // upper-cased keywords; the knob layer matches case-insensitively.
        st.set_value = Value::Text(tok.text);
      }
      break;
    default:
      return Error("expected a SET value");
  }
  Advance();
  return st;
}

Result<std::shared_ptr<SelectStmt>> Parser::ParseSelect() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
  auto sel = std::make_shared<SelectStmt>();
  if (MatchKeyword("DISTINCT")) sel->distinct = true;
  // Select list.
  do {
    SelectItem item;
    if (Check(TokenType::kStar)) {
      Advance();
      item.expr = Expr::MakeStar();
    } else if (Check(TokenType::kIdentifier) &&
               Peek(1).type == TokenType::kDot &&
               Peek(2).type == TokenType::kStar) {
      std::string qual = Advance().text;
      Advance();  // '.'
      Advance();  // '*'
      item.expr = Expr::MakeStar(std::move(qual));
    } else {
      PSQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("AS")) {
        PSQL_ASSIGN_OR_RETURN(item.alias, ExpectIdentifier("alias"));
      } else if (Check(TokenType::kIdentifier)) {
        item.alias = Advance().text;
      }
    }
    sel->items.push_back(std::move(item));
  } while (Match(TokenType::kComma));

  if (MatchKeyword("FROM")) {
    do {
      PSQL_ASSIGN_OR_RETURN(auto tr, ParseTableRef());
      sel->from.push_back(std::move(tr));
    } while (Match(TokenType::kComma));
  }
  if (MatchKeyword("WHERE")) {
    PSQL_ASSIGN_OR_RETURN(sel->where, ParseExpr());
  }
  if (MatchKeyword("PREFERRING")) {
    PSQL_ASSIGN_OR_RETURN(sel->preferring, ParsePrefPrioritized());
    if (MatchKeyword("GROUPING")) {
      bool paren = Match(TokenType::kLParen);
      do {
        PSQL_ASSIGN_OR_RETURN(auto col, ExpectIdentifier("grouping column"));
        sel->grouping.push_back(std::move(col));
      } while (Match(TokenType::kComma));
      if (paren) PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    }
    if (MatchKeyword("BUT")) {
      PSQL_RETURN_IF_ERROR(ExpectKeyword("ONLY"));
      PSQL_ASSIGN_OR_RETURN(sel->but_only, ParseExpr());
    }
  }
  if (MatchKeyword("GROUP")) {
    PSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      PSQL_ASSIGN_OR_RETURN(auto e, ParseExpr());
      sel->group_by.push_back(std::move(e));
    } while (Match(TokenType::kComma));
    if (MatchKeyword("HAVING")) {
      PSQL_ASSIGN_OR_RETURN(sel->having, ParseExpr());
    }
  }
  if (MatchKeyword("ORDER")) {
    PSQL_RETURN_IF_ERROR(ExpectKeyword("BY"));
    do {
      OrderItem item;
      PSQL_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (MatchKeyword("DESC")) {
        item.ascending = false;
      } else {
        MatchKeyword("ASC");
      }
      sel->order_by.push_back(std::move(item));
    } while (Match(TokenType::kComma));
  }
  if (MatchKeyword("LIMIT")) {
    if (Check(TokenType::kQuestion)) {
      Advance();
      sel->limit_param = MakeParam("");
    } else if (Check(TokenType::kNamedParam)) {
      sel->limit_param = MakeParam(Advance().text);
    } else if (Check(TokenType::kInteger)) {
      sel->limit = Advance().int_value;
    } else {
      return Error("expected LIMIT count");
    }
    if (MatchKeyword("OFFSET")) {
      if (!Check(TokenType::kInteger)) return Error("expected OFFSET count");
      sel->offset = Advance().int_value;
    }
  }
  return sel;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTableRefPrimary() {
  auto tr = std::make_unique<TableRef>();
  if (Check(TokenType::kLParen)) {
    Advance();
    if (CheckKeyword("SELECT")) {
      tr->kind = TableRef::Kind::kSubquery;
      PSQL_ASSIGN_OR_RETURN(tr->subquery, ParseSelect());
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    } else {
      // Parenthesized join tree.
      PSQL_ASSIGN_OR_RETURN(tr, ParseTableRef());
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return tr;
    }
  } else {
    tr->kind = TableRef::Kind::kTable;
    PSQL_ASSIGN_OR_RETURN(tr->table_name, ExpectIdentifier("table name"));
  }
  if (MatchKeyword("AS")) {
    PSQL_ASSIGN_OR_RETURN(tr->alias, ExpectIdentifier("alias"));
  } else if (Check(TokenType::kIdentifier)) {
    tr->alias = Advance().text;
  }
  if (tr->kind == TableRef::Kind::kSubquery && tr->alias.empty()) {
    return Status::ParseError("derived table requires an alias");
  }
  return tr;
}

Result<std::unique_ptr<TableRef>> Parser::ParseTableRef() {
  PSQL_ASSIGN_OR_RETURN(auto left, ParseTableRefPrimary());
  for (;;) {
    TableRef::JoinType jt;
    if (MatchKeyword("CROSS")) {
      PSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      jt = TableRef::JoinType::kCross;
    } else if (MatchKeyword("LEFT")) {
      MatchKeyword("OUTER");
      PSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      jt = TableRef::JoinType::kLeft;
    } else if (MatchKeyword("INNER")) {
      PSQL_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
      jt = TableRef::JoinType::kInner;
    } else if (MatchKeyword("JOIN")) {
      jt = TableRef::JoinType::kInner;
    } else {
      break;
    }
    PSQL_ASSIGN_OR_RETURN(auto right, ParseTableRefPrimary());
    auto join = std::make_unique<TableRef>();
    join->kind = TableRef::Kind::kJoin;
    join->join_type = jt;
    join->join_left = std::move(left);
    join->join_right = std::move(right);
    if (jt != TableRef::JoinType::kCross) {
      PSQL_RETURN_IF_ERROR(ExpectKeyword("ON"));
      PSQL_ASSIGN_OR_RETURN(join->join_on, ParseExpr());
    }
    left = std::move(join);
  }
  return left;
}

// ===========================================================================
// Expressions
// ===========================================================================

Result<ExprPtr> Parser::ParseExprTop() {
  PSQL_ASSIGN_OR_RETURN(auto e, ParseExpr());
  if (!AtEnd()) return Error("unexpected trailing input");
  return e;
}

Result<ExprPtr> Parser::ParseExpr() {
  // A number or string literal directly followed by ',' or ')' (a VALUES
  // row, an IN list, a call argument) is a literal: every level of the
  // ladder below would return it unchanged, so skip the descent.
  const Token& tok = Peek();
  const TokenType next = Peek(1).type;
  if (next == TokenType::kComma || next == TokenType::kRParen) {
    if (tok.type == TokenType::kInteger || tok.type == TokenType::kFloat) {
      Advance();
      return Expr::MakeLiteral(NumberTokenValue(tok));
    }
    if (tok.type == TokenType::kString) {
      Advance();
      return Expr::MakeLiteral(Value::Text(tok.text));
    }
  }
  return ParseOr();
}

Result<ExprPtr> Parser::ParseOr() {
  PSQL_ASSIGN_OR_RETURN(auto left, ParseAnd());
  while (MatchKeyword("OR")) {
    PSQL_ASSIGN_OR_RETURN(auto right, ParseAnd());
    left = Expr::MakeBinary(BinaryOp::kOr, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseAnd() {
  PSQL_ASSIGN_OR_RETURN(auto left, ParseNot());
  while (MatchKeyword("AND")) {
    PSQL_ASSIGN_OR_RETURN(auto right, ParseNot());
    left = Expr::MakeBinary(BinaryOp::kAnd, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseNot() {
  if (CheckKeyword("NOT") && !Peek(1).IsKeyword("EXISTS")) {
    Advance();
    PSQL_ASSIGN_OR_RETURN(auto operand, ParseNot());
    return Expr::MakeUnary(UnaryOp::kNot, std::move(operand));
  }
  return ParseComparison();
}

Result<ExprPtr> Parser::ParseComparison() {
  // [NOT] EXISTS (subquery) is prefix-shaped.
  if (CheckKeyword("EXISTS") ||
      (CheckKeyword("NOT") && Peek(1).IsKeyword("EXISTS"))) {
    bool negated = MatchKeyword("NOT");
    PSQL_RETURN_IF_ERROR(ExpectKeyword("EXISTS"));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    auto e = std::make_unique<Expr>();
    e->kind = ExprKind::kExists;
    e->negated = negated;
    PSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return e;
  }

  PSQL_ASSIGN_OR_RETURN(auto left, ParseAdditive());

  // Postfix predicates.
  for (;;) {
    bool negated = false;
    if (CheckKeyword("NOT") &&
        (Peek(1).IsKeyword("IN") || Peek(1).IsKeyword("BETWEEN") ||
         Peek(1).IsKeyword("LIKE"))) {
      Advance();
      negated = true;
    }
    if (MatchKeyword("IS")) {
      bool is_not = MatchKeyword("NOT");
      PSQL_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIsNull;
      e->negated = is_not;
      e->left = std::move(left);
      left = std::move(e);
      continue;
    }
    if (MatchKeyword("IN")) {
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kIn;
      e->negated = negated;
      e->left = std::move(left);
      if (CheckKeyword("SELECT")) {
        PSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
      } else {
        PSQL_ASSIGN_OR_RETURN(e->in_list, ParseExprList());
      }
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      left = std::move(e);
      continue;
    }
    if (MatchKeyword("BETWEEN")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kBetween;
      e->negated = negated;
      e->left = std::move(left);
      PSQL_ASSIGN_OR_RETURN(e->lo, ParseAdditive());
      PSQL_RETURN_IF_ERROR(ExpectKeyword("AND"));
      PSQL_ASSIGN_OR_RETURN(e->hi, ParseAdditive());
      left = std::move(e);
      continue;
    }
    if (MatchKeyword("LIKE")) {
      auto e = std::make_unique<Expr>();
      e->kind = ExprKind::kLike;
      e->negated = negated;
      e->left = std::move(left);
      PSQL_ASSIGN_OR_RETURN(e->right, ParseAdditive());
      left = std::move(e);
      continue;
    }
    if (negated) return Error("expected IN, BETWEEN or LIKE after NOT");
    break;
  }

  BinaryOp op;
  switch (Peek().type) {
    case TokenType::kEq: op = BinaryOp::kEq; break;
    case TokenType::kNe: op = BinaryOp::kNe; break;
    case TokenType::kLt: op = BinaryOp::kLt; break;
    case TokenType::kLe: op = BinaryOp::kLe; break;
    case TokenType::kGt: op = BinaryOp::kGt; break;
    case TokenType::kGe: op = BinaryOp::kGe; break;
    default:
      return left;
  }
  Advance();
  PSQL_ASSIGN_OR_RETURN(auto right, ParseAdditive());
  return Expr::MakeBinary(op, std::move(left), std::move(right));
}

Result<ExprPtr> Parser::ParseAdditive() {
  PSQL_ASSIGN_OR_RETURN(auto left, ParseMultiplicative());
  for (;;) {
    BinaryOp op;
    if (Check(TokenType::kPlus)) {
      op = BinaryOp::kAdd;
    } else if (Check(TokenType::kMinus)) {
      op = BinaryOp::kSub;
    } else if (Check(TokenType::kConcat)) {
      op = BinaryOp::kConcat;
    } else {
      break;
    }
    Advance();
    PSQL_ASSIGN_OR_RETURN(auto right, ParseMultiplicative());
    left = Expr::MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseMultiplicative() {
  PSQL_ASSIGN_OR_RETURN(auto left, ParseUnary());
  for (;;) {
    BinaryOp op;
    if (Check(TokenType::kStar)) {
      op = BinaryOp::kMul;
    } else if (Check(TokenType::kSlash)) {
      op = BinaryOp::kDiv;
    } else if (Check(TokenType::kPercent)) {
      op = BinaryOp::kMod;
    } else {
      break;
    }
    Advance();
    PSQL_ASSIGN_OR_RETURN(auto right, ParseUnary());
    left = Expr::MakeBinary(op, std::move(left), std::move(right));
  }
  return left;
}

Result<ExprPtr> Parser::ParseUnary() {
  if (Match(TokenType::kMinus)) {
    if (Peek().negates_to_int64_min) {
      // -9223372036854775808: its magnitude 2^63 lexed as a DOUBLE, but
      // the negation is an int64, INT64_MIN.
      return Expr::MakeLiteral(NumberTokenValue(Advance(), /*negate=*/true));
    }
    PSQL_ASSIGN_OR_RETURN(auto operand, ParseUnary());
    if (operand->kind == ExprKind::kLiteral && operand->literal.is_numeric()) {
      // Fold -literal so preference targets stay plain literals.
      return Expr::MakeLiteral(NegateNumeric(operand->literal));
    }
    return Expr::MakeUnary(UnaryOp::kNegate, std::move(operand));
  }
  if (Match(TokenType::kPlus)) return ParseUnary();
  return ParsePrimary();
}

Result<ExprPtr> Parser::ParsePrimary() {
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kInteger:
    case TokenType::kFloat: {
      Advance();
      return Expr::MakeLiteral(NumberTokenValue(tok));
    }
    case TokenType::kString: {
      Advance();
      return Expr::MakeLiteral(Value::Text(tok.text));
    }
    case TokenType::kKeyword: {
      if (MatchKeyword("NULL")) return Expr::MakeLiteral(Value::Null());
      if (MatchKeyword("TRUE")) return Expr::MakeLiteral(Value::Bool(true));
      if (MatchKeyword("FALSE")) return Expr::MakeLiteral(Value::Bool(false));
      if (MatchKeyword("DATE")) {
        if (!Check(TokenType::kString)) return Error("expected date string");
        std::string text = Advance().text;
        auto days = ParseDate(text);
        if (!days) return Status::ParseError("invalid date literal: " + text);
        return Expr::MakeLiteral(Value::Date(*days));
      }
      if (CheckKeyword("CASE")) return ParseCase();
      if (CheckKeyword("CONTAINS") && Peek(1).type == TokenType::kLParen) {
        // CONTAINS doubles as the scalar function contains(text, needle)
        // (the rewriter emits it for the CONTAINS base preference).
        Advance();
        Advance();
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFunction;
        e->function_name = "contains";
        PSQL_ASSIGN_OR_RETURN(e->args, ParseExprList());
        PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      return Error("unexpected keyword in expression");
    }
    case TokenType::kQuestion: {
      Advance();
      return Expr::MakeLiteral(MakeParam(""));
    }
    case TokenType::kNamedParam: {
      Advance();
      return Expr::MakeLiteral(MakeParam(tok.text));
    }
    case TokenType::kLParen: {
      Advance();
      if (CheckKeyword("SELECT")) {
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kSubquery;
        PSQL_ASSIGN_OR_RETURN(e->subquery, ParseSelect());
        PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      PSQL_ASSIGN_OR_RETURN(auto e, ParseExpr());
      PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      return e;
    }
    case TokenType::kIdentifier: {
      std::string name = Advance().text;
      if (Match(TokenType::kLParen)) {
        // Function call.
        auto e = std::make_unique<Expr>();
        e->kind = ExprKind::kFunction;
        e->function_name = ToLower(name);
        if (Check(TokenType::kStar)) {
          // COUNT(*)
          Advance();
          e->args.push_back(Expr::MakeStar());
        } else if (!Check(TokenType::kRParen)) {
          if (MatchKeyword("DISTINCT")) e->distinct_arg = true;
          PSQL_ASSIGN_OR_RETURN(e->args, ParseExprList());
        }
        PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return e;
      }
      if (Match(TokenType::kDot)) {
        PSQL_ASSIGN_OR_RETURN(auto col, ExpectIdentifier("column name"));
        return Expr::MakeColumn(std::move(name), std::move(col));
      }
      return Expr::MakeColumn("", std::move(name));
    }
    default:
      return Error("expected an expression");
  }
}

Result<ExprPtr> Parser::ParseCase() {
  PSQL_RETURN_IF_ERROR(ExpectKeyword("CASE"));
  auto e = std::make_unique<Expr>();
  e->kind = ExprKind::kCase;
  if (!CheckKeyword("WHEN")) {
    // Simple CASE with an operand: CASE x WHEN v THEN r ...
    PSQL_ASSIGN_OR_RETURN(e->left, ParseExpr());
  }
  while (MatchKeyword("WHEN")) {
    CaseWhen cw;
    PSQL_ASSIGN_OR_RETURN(cw.when, ParseExpr());
    PSQL_RETURN_IF_ERROR(ExpectKeyword("THEN"));
    PSQL_ASSIGN_OR_RETURN(cw.then, ParseExpr());
    e->case_whens.push_back(std::move(cw));
  }
  if (e->case_whens.empty()) return Error("CASE requires at least one WHEN");
  if (MatchKeyword("ELSE")) {
    PSQL_ASSIGN_OR_RETURN(e->case_else, ParseExpr());
  }
  PSQL_RETURN_IF_ERROR(ExpectKeyword("END"));
  return e;
}

Result<std::vector<ExprPtr>> Parser::ParseExprList() {
  std::vector<ExprPtr> out;
  do {
    PSQL_ASSIGN_OR_RETURN(auto e, ParseExpr());
    out.push_back(std::move(e));
  } while (Match(TokenType::kComma));
  return out;
}

// ===========================================================================
// Preferences (PREFERRING clause)
// ===========================================================================
//
// Grammar (paper §2.2.2; CASCADE binds weakest, then AND = Pareto):
//   pref      := pareto ((CASCADE | ',') pareto)*
//   pareto    := base (AND base)*
//   base      := '(' pref ')' | LOWEST '(' expr ')' | HIGHEST '(' expr ')'
//              | atom [ELSE atom]
//   atom      := expr AROUND literal
//              | expr BETWEEN literal ',' literal
//              | expr [NOT] IN '(' literals ')'
//              | expr '=' literal | expr '<>' literal
//              | expr CONTAINS literal
//              | expr EXPLICIT '(' lit BETTER THAN lit {',' ...} ')'

Result<PrefTermPtr> Parser::ParsePreferenceTop() {
  PSQL_ASSIGN_OR_RETURN(auto p, ParsePrefPrioritized());
  if (!AtEnd()) return Error("unexpected trailing input after preference");
  return p;
}

Result<PrefTermPtr> Parser::ParsePrefPrioritized() {
  PSQL_ASSIGN_OR_RETURN(auto first, ParsePrefPareto());
  std::vector<PrefTermPtr> children;
  children.push_back(std::move(first));
  while (MatchKeyword("CASCADE") || Match(TokenType::kComma)) {
    PSQL_ASSIGN_OR_RETURN(auto next, ParsePrefPareto());
    children.push_back(std::move(next));
  }
  if (children.size() == 1) return std::move(children[0]);
  auto p = std::make_unique<PrefTerm>();
  p->kind = PrefKind::kPrioritized;
  p->children = std::move(children);
  return p;
}

Result<PrefTermPtr> Parser::ParsePrefPareto() {
  PSQL_ASSIGN_OR_RETURN(auto first, ParsePrefIntersect());
  std::vector<PrefTermPtr> children;
  children.push_back(std::move(first));
  while (MatchKeyword("AND")) {
    PSQL_ASSIGN_OR_RETURN(auto next, ParsePrefIntersect());
    children.push_back(std::move(next));
  }
  if (children.size() == 1) return std::move(children[0]);
  auto p = std::make_unique<PrefTerm>();
  p->kind = PrefKind::kPareto;
  p->children = std::move(children);
  return p;
}

Result<PrefTermPtr> Parser::ParsePrefIntersect() {
  // Preference algebra: INTERSECT binds tighter than Pareto's AND.
  PSQL_ASSIGN_OR_RETURN(auto first, ParsePrefBase());
  std::vector<PrefTermPtr> children;
  children.push_back(std::move(first));
  while (MatchKeyword("INTERSECT")) {
    PSQL_ASSIGN_OR_RETURN(auto next, ParsePrefBase());
    children.push_back(std::move(next));
  }
  if (children.size() == 1) return std::move(children[0]);
  auto p = std::make_unique<PrefTerm>();
  p->kind = PrefKind::kIntersect;
  p->children = std::move(children);
  return p;
}

Result<PrefTermPtr> Parser::ParsePrefBase() {
  if (MatchKeyword("DUAL")) {
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    PSQL_ASSIGN_OR_RETURN(auto inner, ParsePrefPrioritized());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    auto p = std::make_unique<PrefTerm>();
    p->kind = PrefKind::kDual;
    p->children.push_back(std::move(inner));
    return p;
  }
  if (MatchKeyword("PREFERENCE")) {
    // Reference to a stored preference (PDL).
    auto p = std::make_unique<PrefTerm>();
    p->kind = PrefKind::kNamedRef;
    PSQL_ASSIGN_OR_RETURN(p->pref_name, ExpectIdentifier("preference name"));
    return p;
  }
  if (Check(TokenType::kLParen)) {
    Advance();
    PSQL_ASSIGN_OR_RETURN(auto p, ParsePrefPrioritized());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return p;
  }
  if (MatchKeyword("LOWEST") || MatchKeyword("HIGHEST")) {
    bool lowest = tokens_[pos_ - 1].text == "LOWEST";
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    auto p = std::make_unique<PrefTerm>();
    p->kind = lowest ? PrefKind::kLowest : PrefKind::kHighest;
    PSQL_ASSIGN_OR_RETURN(p->attr, ParseAdditive());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return p;
  }
  PSQL_ASSIGN_OR_RETURN(auto first, ParsePrefAtom());
  if (MatchKeyword("ELSE")) {
    PSQL_ASSIGN_OR_RETURN(auto second, ParsePrefAtom());
    if (!ExprStructurallyEqual(*first->attr, *second->attr)) {
      return Status::ParseError(
          "both sides of a preference ELSE must refer to the same attribute");
    }
    auto p = std::make_unique<PrefTerm>();
    p->attr = std::move(first->attr);
    if (first->kind == PrefKind::kPos && second->kind == PrefKind::kPos) {
      p->kind = PrefKind::kPosPos;
    } else if (first->kind == PrefKind::kPos &&
               second->kind == PrefKind::kNeg) {
      p->kind = PrefKind::kPosNeg;
    } else {
      return Status::ParseError(
          "ELSE combines POS ELSE POS or POS ELSE NEG preferences only");
    }
    p->values = std::move(first->values);
    p->values2 = std::move(second->values);
    return p;
  }
  return first;
}

Result<Value> Parser::ParsePrefLiteral() {
  bool negate = Match(TokenType::kMinus);
  const Token& tok = Peek();
  switch (tok.type) {
    case TokenType::kQuestion:
      if (negate) return Error("cannot negate a parameter");
      Advance();
      return MakeParam("");
    case TokenType::kNamedParam: {
      if (negate) return Error("cannot negate a parameter");
      std::string name = Advance().text;
      return MakeParam(std::move(name));
    }
    case TokenType::kInteger:
    case TokenType::kFloat:
      Advance();
      return NumberTokenValue(tok, negate);
    case TokenType::kString:
      if (negate) return Error("cannot negate a string literal");
      Advance();
      return Value::Text(tok.text);
    case TokenType::kKeyword:
      if (negate) return Error("cannot negate this literal");
      if (MatchKeyword("NULL")) return Value::Null();
      if (MatchKeyword("TRUE")) return Value::Bool(true);
      if (MatchKeyword("FALSE")) return Value::Bool(false);
      if (MatchKeyword("DATE")) {
        if (!Check(TokenType::kString)) return Error("expected date string");
        std::string text = Advance().text;
        auto days = ParseDate(text);
        if (!days) return Status::ParseError("invalid date literal: " + text);
        return Value::Date(*days);
      }
      return Error("expected a literal");
    default:
      return Error("expected a literal");
  }
}

Result<std::vector<Value>> Parser::ParsePrefLiteralList() {
  std::vector<Value> out;
  do {
    PSQL_ASSIGN_OR_RETURN(auto v, ParsePrefLiteral());
    out.push_back(std::move(v));
  } while (Match(TokenType::kComma));
  return out;
}

Result<PrefTermPtr> Parser::ParsePrefAtom() {
  auto p = std::make_unique<PrefTerm>();
  PSQL_ASSIGN_OR_RETURN(p->attr, ParseAdditive());

  if (MatchKeyword("AROUND")) {
    p->kind = PrefKind::kAround;
    PSQL_ASSIGN_OR_RETURN(p->target, ParsePrefLiteral());
    if (!p->target.is_param() && !p->target.is_numeric() &&
        !p->target.ToNumeric()) {
      return Status::ParseError(
          "AROUND requires a numeric or date target, got " +
          p->target.ToString());
    }
    return p;
  }
  if (MatchKeyword("BETWEEN")) {
    p->kind = PrefKind::kBetween;
    PSQL_ASSIGN_OR_RETURN(p->low, ParsePrefLiteral());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kComma, "','"));
    PSQL_ASSIGN_OR_RETURN(p->high, ParsePrefLiteral());
    return p;
  }
  if (MatchKeyword("CONTAINS")) {
    p->kind = PrefKind::kContains;
    PSQL_ASSIGN_OR_RETURN(p->target, ParsePrefLiteral());
    if (!p->target.is_param() && p->target.type() != ValueType::kText) {
      return Status::ParseError("CONTAINS requires a string literal");
    }
    return p;
  }
  if (MatchKeyword("EXPLICIT")) {
    p->kind = PrefKind::kExplicit;
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    do {
      PSQL_ASSIGN_OR_RETURN(auto better, ParsePrefLiteral());
      PSQL_RETURN_IF_ERROR(ExpectKeyword("BETTER"));
      PSQL_RETURN_IF_ERROR(ExpectKeyword("THAN"));
      PSQL_ASSIGN_OR_RETURN(auto worse, ParsePrefLiteral());
      p->edges.emplace_back(std::move(better), std::move(worse));
    } while (Match(TokenType::kComma));
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    return p;
  }
  bool negated = false;
  if (MatchKeyword("NOT")) {
    PSQL_RETURN_IF_ERROR(ExpectKeyword("IN"));
    negated = true;
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    PSQL_ASSIGN_OR_RETURN(p->values, ParsePrefLiteralList());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    p->kind = PrefKind::kNeg;
    return p;
  }
  if (MatchKeyword("IN")) {
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kLParen, "'('"));
    PSQL_ASSIGN_OR_RETURN(p->values, ParsePrefLiteralList());
    PSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
    p->kind = PrefKind::kPos;
    return p;
  }
  if (Match(TokenType::kEq)) {
    PSQL_ASSIGN_OR_RETURN(auto v, ParsePrefLiteral());
    p->kind = PrefKind::kPos;
    p->values.push_back(std::move(v));
    return p;
  }
  if (Match(TokenType::kNe)) {
    PSQL_ASSIGN_OR_RETURN(auto v, ParsePrefLiteral());
    p->kind = PrefKind::kNeg;
    p->values.push_back(std::move(v));
    return p;
  }
  (void)negated;
  return Error(
      "expected a preference operator (AROUND, BETWEEN, IN, =, <>, CONTAINS, "
      "EXPLICIT)");
}

}  // namespace

Result<Statement> ParseStatement(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  PSQL_ASSIGN_OR_RETURN(auto st, parser.ParseStatementTop());
  if (!parser.AtEnd()) {
    return Status::ParseError("unexpected trailing input after statement");
  }
  return st;
}

Result<std::vector<Statement>> ParseScript(const std::string& sql) {
  PSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(sql));
  Parser parser(std::move(tokens));
  std::vector<Statement> out;
  while (!parser.AtEnd()) {
    PSQL_ASSIGN_OR_RETURN(auto st, parser.ParseStatementTop());
    out.push_back(std::move(st));
  }
  return out;
}

Result<ExprPtr> ParseExpression(const std::string& text) {
  PSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParseExprTop();
}

Result<PrefTermPtr> ParsePreference(const std::string& text) {
  PSQL_ASSIGN_OR_RETURN(auto tokens, Tokenize(text));
  Parser parser(std::move(tokens));
  return parser.ParsePreferenceTop();
}

}  // namespace prefsql
