#include "env.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <thread>

#include "extmem/storage.h"
#include "sorting/sort_config.h"
#include "util/simd.h"

extern char** environ;

namespace perfbench {

std::vector<std::string> ScrubRstlabEnvironment() {
  std::vector<std::string> names;
  for (char** entry = environ; entry != nullptr && *entry != nullptr;
       ++entry) {
    const char* eq = std::strchr(*entry, '=');
    std::string name = eq == nullptr ? std::string(*entry)
                                     : std::string(*entry, eq - *entry);
    if (name.rfind("RSTLAB_", 0) == 0) names.push_back(std::move(name));
  }
  for (const std::string& name : names) unsetenv(name.c_str());
  return names;
}

const char* BuildType() { return PERFBENCH_BUILD_TYPE; }

bool IsDebugBuild() {
#ifndef NDEBUG
  return true;
#else
  return std::strcmp(BuildType(), "Debug") == 0 ||
         std::strcmp(BuildType(), "") == 0;
#endif
}

void PrintEffectiveConfig(std::ostream& os, const std::string& git_sha,
                          const std::vector<std::string>& scrubbed) {
  char host[256] = "unknown";
  gethostname(host, sizeof(host) - 1);
  os << "build: type=" << BuildType() << " compiler=" << __VERSION__
     << " git=" << git_sha << " host=" << host
     << " nproc=" << std::thread::hardware_concurrency() << "\n";
  os << "environment: unset";
  if (scrubbed.empty()) os << " (none)";
  for (const std::string& name : scrubbed) os << " " << name;
  os << "\n";
  const rstlab::sorting::SortConfig sort = rstlab::sorting::DefaultSortConfig();
  os << "SortConfig: threads=" << sort.threads << " fanout=" << sort.fanout
     << " run_length=" << sort.run_length
     << " merge_width=" << sort.merge_width << " ("
     << (rstlab::sorting::UsesParallelPath(sort) ? "parallel k-way"
                                                 : "binary cascade")
     << ")\n";
  const rstlab::extmem::StorageOptions storage =
      rstlab::extmem::DefaultStorageOptions();
  os << "StorageOptions: backend="
     << rstlab::extmem::BackendName(storage.backend)
     << " block_size=" << storage.block_size
     << " cache_blocks=" << storage.cache_blocks
     << " readahead_blocks=" << storage.readahead_blocks << "\n";
  const rstlab::simd::SimdLevel level = rstlab::simd::ProcessSimdLevel();
  os << "SIMD: level=" << rstlab::simd::SimdLevelName(level)
     << " vector_kernels="
     << (rstlab::simd::VectorKernelsAvailable() ? "yes" : "no") << "\n";
}

bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
    }
  }
  return 0.0;
}

}  // namespace perfbench
