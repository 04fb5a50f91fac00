#include "sorting/sort_config.h"

#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

#include "util/parse.h"

namespace rstlab::sorting {

namespace {

/// One numeric sort knob: its flag, environment variable, accepted
/// range and the config field it sets.
struct Knob {
  const char* flag;  // "--name=" prefix
  const char* env;
  std::size_t min;
  std::size_t max;
  std::size_t SortConfig::*field;
};

constexpr Knob kKnobs[] = {
    {"--sort-threads=", "RSTLAB_SORT_THREADS", 1, kMaxSortThreads,
     &SortConfig::threads},
    {"--merge-fanout=", "RSTLAB_MERGE_FANOUT", 2, kMaxMergeFanout,
     &SortConfig::fanout},
    {"--run-length=", "RSTLAB_RUN_LENGTH", 1, kMaxRunLength,
     &SortConfig::run_length},
};

/// Sets `knob` on `config` from `value`, or warns on stderr and keeps
/// the current value when `value` is malformed or out of range. `what`
/// is the flag or variable as the user wrote it.
void SetKnob(const Knob& knob, const char* value, const std::string& what,
             SortConfig& config) {
  if (const std::optional<std::uint64_t> parsed =
          ParseKnob("sorting", what, value, knob.min, knob.max)) {
    config.*knob.field = static_cast<std::size_t>(*parsed);
  }
}

SortConfig* ProcessConfigSlot() {
  static SortConfig slot;
  return &slot;
}

bool g_process_config_set = false;

}  // namespace

Status ValidateSortConfig(const SortConfig& config) {
  for (const Knob& knob : kKnobs) {
    const std::size_t value = config.*knob.field;
    if (value < knob.min || value > knob.max) {
      return Status::InvalidArgument(
          std::string("sort config: ") + knob.flag + std::to_string(value) +
          " outside [" + std::to_string(knob.min) + ", " +
          std::to_string(knob.max) + "]");
    }
  }
  return Status::OK();
}

bool UsesParallelPath(const SortConfig& config) {
  return config.fanout >= 2;
}

void SetProcessSortConfig(const SortConfig& config) {
  *ProcessConfigSlot() = config;
  g_process_config_set = true;
}

SortConfig DefaultSortConfig() {
  if (g_process_config_set) return *ProcessConfigSlot();
  SortConfig config;
  for (const Knob& knob : kKnobs) {
    const char* value = std::getenv(knob.env);
    if (value == nullptr || *value == '\0') continue;
    SetKnob(knob, value, std::string(knob.env) + "=" + value, config);
  }
  return config;
}

SortConfig PaperSortConfig() {
  SortConfig config = DefaultSortConfig();
  config.fanout = 2;
  config.run_length = 1;
  return config;
}

ScopedSortConfig::ScopedSortConfig(const SortConfig& config) {
  if (g_process_config_set) previous_ = *ProcessConfigSlot();
  SetProcessSortConfig(config);
}

ScopedSortConfig::~ScopedSortConfig() {
  if (previous_.has_value()) {
    SetProcessSortConfig(*previous_);
  } else {
    g_process_config_set = false;
  }
}

SortConfig ParseSortFlags(int* argc, char** argv) {
  SortConfig config = DefaultSortConfig();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    bool consumed = false;
    for (const Knob& knob : kKnobs) {
      const std::size_t prefix = std::strlen(knob.flag);
      if (std::strncmp(arg, knob.flag, prefix) == 0) {
        SetKnob(knob, arg + prefix, arg, config);
        consumed = true;
        break;
      }
    }
    if (!consumed) argv[out++] = argv[i];
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
  return config;
}

}  // namespace rstlab::sorting
