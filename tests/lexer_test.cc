#include "sql/lexer.h"

#include <gtest/gtest.h>

#include <limits>

namespace prefsql {
namespace {

std::vector<Token> Lex(const std::string& s) {
  auto r = Tokenize(s);
  EXPECT_TRUE(r.ok()) << r.status().ToString();
  return std::move(r).value();
}

TEST(LexerTest, KeywordsAreCaseInsensitive) {
  auto toks = Lex("select SeLeCt FROM");
  ASSERT_EQ(toks.size(), 4u);  // + end
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_TRUE(toks[1].IsKeyword("SELECT"));
  EXPECT_TRUE(toks[2].IsKeyword("FROM"));
  EXPECT_EQ(toks[3].type, TokenType::kEnd);
}

TEST(LexerTest, PreferenceKeywords) {
  auto toks = Lex("PREFERRING around CASCADE but only lowest highest");
  EXPECT_TRUE(toks[0].IsKeyword("PREFERRING"));
  EXPECT_TRUE(toks[1].IsKeyword("AROUND"));
  EXPECT_TRUE(toks[2].IsKeyword("CASCADE"));
  EXPECT_TRUE(toks[3].IsKeyword("BUT"));
  EXPECT_TRUE(toks[4].IsKeyword("ONLY"));
  EXPECT_TRUE(toks[5].IsKeyword("LOWEST"));
  EXPECT_TRUE(toks[6].IsKeyword("HIGHEST"));
}

TEST(LexerTest, IdentifiersKeepCase) {
  auto toks = Lex("MyTable _col2");
  EXPECT_EQ(toks[0].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[0].text, "MyTable");
  EXPECT_EQ(toks[1].text, "_col2");
}

TEST(LexerTest, QualityFunctionNamesAreNotReserved) {
  auto toks = Lex("top level distance");
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(toks[i].type, TokenType::kIdentifier) << i;
  }
}

TEST(LexerTest, Numbers) {
  auto toks = Lex("42 3.25 1e3 2.5E-2 7.");
  EXPECT_EQ(toks[0].type, TokenType::kInteger);
  EXPECT_EQ(toks[0].int_value, 42);
  EXPECT_EQ(toks[1].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(toks[1].double_value, 3.25);
  EXPECT_EQ(toks[2].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(toks[2].double_value, 1000.0);
  EXPECT_DOUBLE_EQ(toks[3].double_value, 0.025);
  EXPECT_EQ(toks[4].type, TokenType::kFloat);
  EXPECT_DOUBLE_EQ(toks[4].double_value, 7.0);
}

TEST(LexerTest, OutOfRangeIntegersLexAsFloats) {
  auto toks = Lex("9223372036854775807 9223372036854775808 "
                  "99999999999999999999 09223372036854775808 1e400");
  EXPECT_EQ(toks[0].type, TokenType::kInteger);
  EXPECT_EQ(toks[0].int_value, std::numeric_limits<int64_t>::max());
  EXPECT_EQ(toks[1].type, TokenType::kFloat);
  EXPECT_EQ(toks[1].double_value, 0x1p63);
  EXPECT_TRUE(toks[1].negates_to_int64_min);
  EXPECT_EQ(toks[2].type, TokenType::kFloat);
  EXPECT_EQ(toks[2].double_value, 1e20);
  EXPECT_FALSE(toks[2].negates_to_int64_min);
  EXPECT_TRUE(toks[3].negates_to_int64_min);  // leading zeros
  EXPECT_EQ(toks[4].type, TokenType::kFloat);
  EXPECT_EQ(toks[4].double_value, std::numeric_limits<double>::infinity());
  EXPECT_FALSE(toks[0].negates_to_int64_min);
}

TEST(LexerTest, NumberTokenValues) {
  auto toks = Lex("42 2.5 9223372036854775808");
  EXPECT_EQ(NumberTokenValue(toks[0]).AsInt(), 42);
  EXPECT_EQ(NumberTokenValue(toks[0], /*negate=*/true).AsInt(), -42);
  EXPECT_EQ(NumberTokenValue(toks[1], /*negate=*/true).AsDouble(), -2.5);
  const Value big = NumberTokenValue(toks[2]);
  EXPECT_EQ(big.type(), ValueType::kDouble);
  const Value min = NumberTokenValue(toks[2], /*negate=*/true);
  ASSERT_EQ(min.type(), ValueType::kInt);
  EXPECT_EQ(min.AsInt(), std::numeric_limits<int64_t>::min());
}

TEST(LexerTest, PunctuationAndNumbersCarryNoText) {
  auto toks = Lex("(1, 2.5) <= !=");
  for (int i = 0; i < 6; ++i) EXPECT_TRUE(toks[i].text.empty()) << i;
  EXPECT_EQ(toks[6].text, "!=");  // kNe keeps its spelling for messages
  EXPECT_EQ(toks[2].Describe(), "','");
  EXPECT_EQ(toks[5].Describe(), "'<='");
  EXPECT_EQ(toks[6].Describe(), "'!='");
}

TEST(LexerTest, StringRunsAndEscapes) {
  const std::string forty(40, 'x');
  auto toks = Lex("'" + forty + "' 'a''b''''c' '''' 'x y'");
  EXPECT_EQ(toks[0].text, forty);
  EXPECT_EQ(toks[0].length, 42u);
  EXPECT_EQ(toks[1].text, "a'b''c");
  EXPECT_EQ(toks[2].text, "'");
  EXPECT_EQ(toks[3].text, "x y");
  auto bad = Tokenize("SELECT 'ab''");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().message(), "unterminated string literal at offset 7");
}

TEST(LexerTest, Strings) {
  auto toks = Lex("'hello' 'it''s' ''");
  EXPECT_EQ(toks[0].type, TokenType::kString);
  EXPECT_EQ(toks[0].text, "hello");
  EXPECT_EQ(toks[1].text, "it's");
  EXPECT_EQ(toks[2].text, "");
}

TEST(LexerTest, UnterminatedStringIsError) {
  EXPECT_FALSE(Tokenize("'oops").ok());
  EXPECT_FALSE(Tokenize("\"oops").ok());
}

TEST(LexerTest, QuotedIdentifiers) {
  auto toks = Lex("\"LEVEL(color)\"");
  EXPECT_EQ(toks[0].type, TokenType::kIdentifier);
  EXPECT_EQ(toks[0].text, "LEVEL(color)");
}

TEST(LexerTest, Operators) {
  auto toks = Lex("<> != <= >= || < > = + - * / % ( ) , . ;");
  EXPECT_EQ(toks[0].type, TokenType::kNe);
  EXPECT_EQ(toks[1].type, TokenType::kNe);
  EXPECT_EQ(toks[2].type, TokenType::kLe);
  EXPECT_EQ(toks[3].type, TokenType::kGe);
  EXPECT_EQ(toks[4].type, TokenType::kConcat);
  EXPECT_EQ(toks[5].type, TokenType::kLt);
  EXPECT_EQ(toks[6].type, TokenType::kGt);
  EXPECT_EQ(toks[7].type, TokenType::kEq);
  EXPECT_EQ(toks[8].type, TokenType::kPlus);
  EXPECT_EQ(toks[9].type, TokenType::kMinus);
  EXPECT_EQ(toks[10].type, TokenType::kStar);
  EXPECT_EQ(toks[11].type, TokenType::kSlash);
  EXPECT_EQ(toks[12].type, TokenType::kPercent);
}

TEST(LexerTest, CommentsAndWhitespaceSkipped) {
  auto toks = Lex("SELECT -- the select\n  1");
  EXPECT_TRUE(toks[0].IsKeyword("SELECT"));
  EXPECT_EQ(toks[1].type, TokenType::kInteger);
  EXPECT_EQ(toks.size(), 3u);
}

TEST(LexerTest, MinusMinusAtEndOfInput) {
  auto toks = Lex("1 --");
  EXPECT_EQ(toks.size(), 2u);  // integer + end
}

TEST(LexerTest, UnexpectedCharacterIsError) {
  auto r = Tokenize("SELECT @");
  EXPECT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsParseError());
}

TEST(LexerTest, OffsetsPointIntoInput) {
  auto toks = Lex("ab cd");
  EXPECT_EQ(toks[0].offset, 0u);
  EXPECT_EQ(toks[1].offset, 3u);
}

}  // namespace
}  // namespace prefsql
