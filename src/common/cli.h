#ifndef GRALMATCH_COMMON_CLI_H_
#define GRALMATCH_COMMON_CLI_H_

/// \file cli.h
/// Minimal command-line flag parsing for the bench/example binaries.
/// Supports `--name value`, `--name=value`, and boolean `--name`. A flag
/// given more than once keeps the last value (standard last-wins CLI
/// semantics, pinned by common_test.cc).

#include <cstdint>
#include <map>
#include <string>

#include "common/status.h"

namespace gralmatch {

/// Parse a complete string as a base-10 int64. Unlike a bare strtoll, the
/// whole string must be consumed ("5x" is an error, not 5) and the value
/// must fit in int64 ("9223372036854775808" is an error, not a silent
/// clamp). Empty strings are errors; leading/trailing whitespace is not
/// accepted.
Result<int64_t> ParseInt64(const std::string& text);

/// Parse a complete string as a double, with the same whole-string and
/// range discipline as ParseInt64: trailing garbage and magnitudes outside
/// the double range are errors. Underflow to zero/subnormal is accepted.
Result<double> ParseDouble(const std::string& text);

/// \brief Parsed command-line flags.
class CliFlags {
 public:
  /// Parse argv; unknown flags are kept (benches decide what to accept)
  /// and non-flag arguments are skipped.
  static CliFlags Parse(int argc, char** argv);

  /// True if --name was given (with or without a value).
  bool Has(const std::string& name) const;

  /// String value or fallback.
  std::string GetString(const std::string& name, const std::string& fallback) const;

  /// Integer value, or fallback when the flag is absent or value-less
  /// (`--name` with no value). A present but malformed value — trailing
  /// garbage, not a number, out of int64 range — prints a clear diagnostic
  /// and exits with status 2 instead of silently truncating (the pre-PR-5
  /// strtoll behaviour turned "--seed 5x" into 5 and "--seed x" into 0).
  int64_t GetInt(const std::string& name, int64_t fallback) const;

  /// Double value or fallback; same malformed-value discipline as GetInt.
  double GetDouble(const std::string& name, double fallback) const;

 private:
  std::map<std::string, std::string> flags_;
};

}  // namespace gralmatch

#endif  // GRALMATCH_COMMON_CLI_H_
