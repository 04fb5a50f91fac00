#ifndef RSTLAB_UTIL_PARSE_H_
#define RSTLAB_UTIL_PARSE_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace rstlab {

/// Parses `text` as an unsigned decimal integer in [min, max]: one or
/// more ASCII digits and nothing else — no sign, no whitespace, no
/// trailing characters — and no overflow. Unlike `strtoull`, which
/// accepts "-1" (wrapping it to 2^64 - 1) and reads "12abc" as 12,
/// every malformed or out-of-range value is an InvalidArgument naming
/// the accepted range. The one numeric-knob parser behind the
/// `--flag=N` / `RSTLAB_*` settings of the sort, storage and trial
/// engines.
Result<std::uint64_t> ParseUnsigned(std::string_view text, std::uint64_t min,
                                    std::uint64_t max);

/// `ParseUnsigned` for a user-set knob: on failure prints
/// "rstlab <component>: ignoring <what> (<reason>)" to stderr and
/// returns nullopt, so the caller keeps its current value. `what` is
/// the flag or variable as the user wrote it.
std::optional<std::uint64_t> ParseKnob(const char* component,
                                       const std::string& what,
                                       std::string_view value,
                                       std::uint64_t min, std::uint64_t max);

}  // namespace rstlab

#endif  // RSTLAB_UTIL_PARSE_H_
