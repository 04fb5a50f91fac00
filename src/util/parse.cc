#include "util/parse.h"

#include <cstdio>
#include <string>

namespace rstlab {

Result<std::uint64_t> ParseUnsigned(std::string_view text, std::uint64_t min,
                                    std::uint64_t max) {
  const auto reject = [&]() {
    return Status::InvalidArgument("'" + std::string(text) +
                                   "' is not an integer in [" +
                                   std::to_string(min) + ", " +
                                   std::to_string(max) + "]");
  };
  if (text.empty()) return reject();
  std::uint64_t value = 0;
  for (const char c : text) {
    if (c < '0' || c > '9') return reject();
    const std::uint64_t digit = static_cast<std::uint64_t>(c - '0');
    // value * 10 + digit > max, without computing it.
    if (digit > max || value > (max - digit) / 10) return reject();
    value = value * 10 + digit;
  }
  if (value < min) return reject();
  return value;
}

std::optional<std::uint64_t> ParseKnob(const char* component,
                                       const std::string& what,
                                       std::string_view value,
                                       std::uint64_t min, std::uint64_t max) {
  Result<std::uint64_t> parsed = ParseUnsigned(value, min, max);
  if (!parsed.ok()) {
    std::fprintf(stderr, "rstlab %s: ignoring %s (%s)\n", component,
                 what.c_str(), parsed.status().message().c_str());
    return std::nullopt;
  }
  return parsed.value();
}

}  // namespace rstlab
