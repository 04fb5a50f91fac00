#include "extmem/storage.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>

#include <unistd.h>

#include "extmem/file_storage.h"
#include "util/parse.h"

namespace rstlab::extmem {

void TapeStorage::WriteRange(std::size_t pos, std::string_view data) {
  for (std::size_t i = 0; i < data.size(); ++i) {
    WriteCell(pos + i, data[i]);
  }
}

void MemStorage::Grow(std::size_t cells) {
  length_ = cells;
  if (cells > cells_.size()) {
    // Geometric buffer growth keeps the amortized append cost at O(1)
    // and the blank-fill off the per-move path; the logical length
    // stays exact for space accounting.
    cells_.resize(std::max(cells, cells_.size() + cells_.size() / 2),
                  kBlankCell);
  }
}

void MemStorage::Assign(std::string content) {
  cells_ = std::move(content);
  length_ = cells_.size();
}

std::string MemStorage::ReadRange(std::size_t pos, std::size_t count) {
  if (pos >= length_) return std::string();
  return cells_.substr(pos, std::min(count, length_ - pos));
}

void MemStorage::WriteRange(std::size_t pos, std::string_view data) {
  if (data.empty()) return;
  EnsureLength(pos + data.size());
  std::memcpy(cells_.data() + pos, data.data(), data.size());
}

const char* BackendName(BackendKind kind) {
  return kind == BackendKind::kFile ? "file" : "mem";
}

namespace {

std::string DefaultTapeDir() {
  std::error_code ec;
  std::filesystem::path tmp = std::filesystem::temp_directory_path(ec);
  if (ec) tmp = ".";
  return (tmp / "rstlab-tapes").string();
}

/// Uniquely named backing file under `dir` (per process and per tape).
std::string NextTapePath(const std::string& dir) {
  static std::atomic<std::uint64_t> counter{0};
  return dir + "/tape-" + std::to_string(static_cast<long>(::getpid())) +
         "-" + std::to_string(counter.fetch_add(1)) + ".rstape";
}

/// `value` as a size knob in [1, max]; `fallback` (with a warning on
/// stderr naming `what`, the flag or variable as written) when it is
/// malformed or out of range.
std::size_t SizeKnob(const std::string& what, const char* value,
                     std::size_t max, std::size_t fallback) {
  return static_cast<std::size_t>(
      ParseKnob("extmem", what, value, 1, max).value_or(fallback));
}

std::size_t EnvSize(const char* name, std::size_t max, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') return fallback;
  return SizeKnob(std::string(name) + "=" + value, value, max, fallback);
}

}  // namespace

Result<std::unique_ptr<TapeStorage>> CreateStorage(
    const StorageOptions& options) {
  if (options.backend == BackendKind::kMem) {
    return std::unique_ptr<TapeStorage>(std::make_unique<MemStorage>());
  }
  const std::string dir = options.dir.empty() ? DefaultTapeDir() : options.dir;
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::NotFound("extmem: cannot create tape directory " + dir +
                            ": " + ec.message());
  }
  FileStorage::FileOptions file_options;
  file_options.block_size = options.block_size;
  file_options.cache_blocks = options.cache_blocks;
  file_options.readahead_blocks = options.readahead_blocks;
  file_options.delete_on_close = true;
  file_options.metrics = options.metrics;
  Result<std::unique_ptr<FileStorage>> storage =
      FileStorage::Create(NextTapePath(dir), file_options);
  if (!storage.ok()) return storage.status();
  return std::unique_ptr<TapeStorage>(std::move(storage).value());
}

namespace {

StorageOptions* ProcessOptionsSlot() {
  static StorageOptions slot;
  return &slot;
}

bool g_process_options_set = false;

}  // namespace

void SetProcessStorageOptions(const StorageOptions& options) {
  *ProcessOptionsSlot() = options;
  g_process_options_set = true;
}

StorageOptions DefaultStorageOptions() {
  if (g_process_options_set) return *ProcessOptionsSlot();
  StorageOptions options;
  if (const char* backend = std::getenv("RSTLAB_TAPE_BACKEND")) {
    if (std::strcmp(backend, "file") == 0) {
      options.backend = BackendKind::kFile;
    } else if (std::strcmp(backend, "mem") != 0 && *backend != '\0') {
      std::fprintf(stderr,
                   "rstlab extmem: ignoring RSTLAB_TAPE_BACKEND=%s "
                   "(want mem or file)\n",
                   backend);
    }
  }
  options.block_size =
      EnvSize("RSTLAB_BLOCK_SIZE", kMaxBlockSize, options.block_size);
  options.cache_blocks =
      EnvSize("RSTLAB_CACHE_BLOCKS", kMaxCacheBlocks, options.cache_blocks);
  options.readahead_blocks = EnvSize(
      "RSTLAB_READAHEAD_BLOCKS", kMaxReadaheadBlocks, options.readahead_blocks);
  if (const char* dir = std::getenv("RSTLAB_TAPE_DIR")) {
    if (*dir != '\0') options.dir = dir;
  }
  return options;
}

StorageOptions ParseBackendFlags(int* argc, char** argv) {
  StorageOptions options = DefaultStorageOptions();
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--tape-backend=", 15) == 0) {
      const char* value = arg + 15;
      if (std::strcmp(value, "file") == 0) {
        options.backend = BackendKind::kFile;
      } else if (std::strcmp(value, "mem") == 0) {
        options.backend = BackendKind::kMem;
      } else {
        std::fprintf(stderr,
                     "rstlab extmem: ignoring --tape-backend=%s "
                     "(want mem or file)\n",
                     value);
      }
      continue;
    }
    if (std::strncmp(arg, "--cache-blocks=", 15) == 0) {
      options.cache_blocks =
          SizeKnob(arg, arg + 15, kMaxCacheBlocks, options.cache_blocks);
      continue;
    }
    if (std::strncmp(arg, "--readahead-blocks=", 19) == 0) {
      options.readahead_blocks = SizeKnob(arg, arg + 19, kMaxReadaheadBlocks,
                                          options.readahead_blocks);
      continue;
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
  return options;
}

}  // namespace rstlab::extmem
