#include "parallel/trial_runner.h"

#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "util/parse.h"

namespace rstlab::parallel {

std::vector<TrialRunner::ChunkBounds> TrialRunner::PartitionTrials(
    std::uint64_t trials) const {
  std::vector<ChunkBounds> chunks;
  if (trials == 0) return chunks;
  const std::uint64_t count =
      std::min<std::uint64_t>(trials, chunks_hint_);
  chunks.reserve(static_cast<std::size_t>(count));
  // Near-equal split: the first (trials % count) chunks get one extra.
  const std::uint64_t base = trials / count;
  const std::uint64_t extra = trials % count;
  std::uint64_t begin = 0;
  for (std::uint64_t c = 0; c < count; ++c) {
    const std::uint64_t size = base + (c < extra ? 1 : 0);
    chunks.push_back({begin, begin + size});
    begin += size;
  }
  return chunks;
}

namespace {

/// `value` as a thread count in [1, kMaxTrialThreads], or 0 (with a
/// warning on stderr naming `what`) when malformed or out of range.
std::size_t ThreadsKnob(const std::string& what, const char* value) {
  return static_cast<std::size_t>(
      ParseKnob("parallel", what, value, 1, kMaxTrialThreads).value_or(0));
}

}  // namespace

std::size_t ResolveThreadCount(std::size_t cli_threads) {
  if (cli_threads > 0) return cli_threads;
  if (const char* env = std::getenv("RSTLAB_THREADS");
      env != nullptr && *env != '\0') {
    const std::size_t threads =
        ThreadsKnob(std::string("RSTLAB_THREADS=") + env, env);
    if (threads > 0) return threads;
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

std::size_t ParseThreadsFlag(int* argc, char** argv) {
  std::size_t cli_threads = 0;
  int out = 1;
  for (int i = 1; i < *argc; ++i) {
    const char* arg = argv[i];
    if (std::strncmp(arg, "--threads=", 10) == 0) {
      cli_threads = ThreadsKnob(arg, arg + 10);
      continue;  // strip the flag either way
    }
    argv[out++] = argv[i];
  }
  for (int i = out; i < *argc; ++i) argv[i] = nullptr;
  *argc = out;
  return ResolveThreadCount(cli_threads);
}

}  // namespace rstlab::parallel
