#include "common/cli.h"

#include <cctype>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace gralmatch {

Result<int64_t> ParseInt64(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty string is not an integer");
  }
  // strtoll silently skips leading whitespace; flag values should not.
  if (std::isspace(static_cast<unsigned char>(text.front()))) {
    return Status::InvalidArgument("\"" + text +
                                   "\" has leading whitespace");
  }
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text.c_str(), &end, 10);
  if (end == text.c_str()) {
    return Status::InvalidArgument("\"" + text + "\" is not an integer");
  }
  if (errno == ERANGE) {
    return Status::OutOfRange("\"" + text + "\" is outside the int64 range");
  }
  if (*end != '\0') {
    return Status::InvalidArgument("\"" + text +
                                   "\" has trailing characters after the "
                                   "integer");
  }
  return static_cast<int64_t>(value);
}

Result<double> ParseDouble(const std::string& text) {
  if (text.empty()) {
    return Status::InvalidArgument("empty string is not a number");
  }
  if (std::isspace(static_cast<unsigned char>(text.front()))) {
    return Status::InvalidArgument("\"" + text +
                                   "\" has leading whitespace");
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  if (end == text.c_str()) {
    return Status::InvalidArgument("\"" + text + "\" is not a number");
  }
  // ERANGE covers both overflow (±HUGE_VAL) and underflow (≈0); only
  // overflow loses the magnitude, so only overflow is rejected.
  if (errno == ERANGE && std::abs(value) == HUGE_VAL) {
    return Status::OutOfRange("\"" + text + "\" is outside the double range");
  }
  if (*end != '\0') {
    return Status::InvalidArgument(
        "\"" + text + "\" has trailing characters after the number");
  }
  return value;
}

namespace {

/// Flag values are user input on binaries without an error channel back to
/// the caller, so a malformed value is diagnosed and the process exits —
/// never a silently truncated number.
[[noreturn]] void DieOnBadFlag(const std::string& name, const Status& status) {
  std::fprintf(stderr, "error: invalid value for --%s: %s\n", name.c_str(),
               status.message().c_str());
  std::exit(2);
}

}  // namespace

CliFlags CliFlags::Parse(int argc, char** argv) {
  CliFlags out;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (!StartsWith(arg, "--")) continue;
    std::string body = arg.substr(2);
    size_t eq = body.find('=');
    if (eq != std::string::npos) {
      out.flags_[body.substr(0, eq)] = body.substr(eq + 1);
    } else if (i + 1 < argc && !StartsWith(argv[i + 1], "--")) {
      out.flags_[body] = argv[++i];
    } else {
      out.flags_[body] = "";
    }
  }
  return out;
}

bool CliFlags::Has(const std::string& name) const { return flags_.count(name) > 0; }

std::string CliFlags::GetString(const std::string& name,
                                const std::string& fallback) const {
  auto it = flags_.find(name);
  return it == flags_.end() ? fallback : it->second;
}

int64_t CliFlags::GetInt(const std::string& name, int64_t fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  Result<int64_t> parsed = ParseInt64(it->second);
  if (!parsed.ok()) DieOnBadFlag(name, parsed.status());
  return *parsed;
}

double CliFlags::GetDouble(const std::string& name, double fallback) const {
  auto it = flags_.find(name);
  if (it == flags_.end() || it->second.empty()) return fallback;
  Result<double> parsed = ParseDouble(it->second);
  if (!parsed.ok()) DieOnBadFlag(name, parsed.status());
  return *parsed;
}

}  // namespace gralmatch
