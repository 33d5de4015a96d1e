// Hand-written lexer for the SQL / Preference SQL dialect.

#pragma once

#include <string>
#include <vector>

#include "sql/token.h"
#include "types/value.h"
#include "util/status.h"

namespace prefsql {

/// Tokenizes `input`. The result always ends with a kEnd token. Comments
/// (`-- ...` to end of line) and whitespace are skipped.
Result<std::vector<Token>> Tokenize(const std::string& input);

/// The value of a kInteger or kFloat token, negated when `negate` (a unary
/// minus precedes it): INT for an int64 spelling, DOUBLE otherwise, and
/// INT64_MIN for -9223372036854775808.
Value NumberTokenValue(const Token& tok, bool negate = false);

}  // namespace prefsql
