// Run environment: the RSTLAB_* scrub, the effective configuration and
// build facts printed with every run, and process memory.
#ifndef PERFBENCH_ENV_H_
#define PERFBENCH_ENV_H_

#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Unsets every RSTLAB_* environment variable so that every
/// Default*Config() call sees library defaults. Returns the names
/// removed. Must run before the first Default*Config() call.
std::vector<std::string> ScrubRstlabEnvironment();

/// The CMake build type this binary was compiled with.
const char* BuildType();

/// True for builds whose timings are meaningless (Debug, or assertions
/// compiled in).
bool IsDebugBuild();

/// Prints build type, compiler, git SHA, host, nproc, the effective
/// SortConfig, default StorageOptions and SIMD level.
void PrintEffectiveConfig(std::ostream& os, const std::string& git_sha,
                          const std::vector<std::string>& scrubbed);

/// Restarts the process's peak-RSS high-water mark at the current
/// resident set (Linux /proc/self/clear_refs). Returns false where the
/// kernel does not allow it; the peak then covers the whole process.
bool ResetPeakRss();

/// Peak resident set size of this process in MiB since the last
/// successful ResetPeakRss() (VmHWM).
double PeakRssMb();

}  // namespace perfbench

#endif  // PERFBENCH_ENV_H_
