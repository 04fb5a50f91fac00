#ifndef RSTLAB_SORTING_SORT_CONFIG_H_
#define RSTLAB_SORTING_SORT_CONFIG_H_

#include <cstddef>
#include <optional>

#include "util/status.h"

namespace rstlab::sorting {

/// Largest accepted `SortConfig::threads`.
inline constexpr std::size_t kMaxSortThreads = 256;
/// Largest accepted `SortConfig::fanout`. With at most 64 merge passes
/// the scratch bill 4 * fanout * P + 2 stays far below 2^64.
inline constexpr std::size_t kMaxMergeFanout = 1024;
/// Largest accepted `SortConfig::run_length`. The formation buffer
/// bill run_length * max_field_len cannot wrap for any field shorter
/// than 2^40 cells.
inline constexpr std::size_t kMaxRunLength = std::size_t{1} << 24;

/// Configuration of the k-way external merge sort — the knob set
/// behind `--sort-threads` / `--merge-fanout` / `--run-length` and
/// their environment fallbacks (`RSTLAB_SORT_THREADS`,
/// `RSTLAB_MERGE_FANOUT`, `RSTLAB_RUN_LENGTH`).
///
/// Everything that shapes the *algorithm* (fanout, run_length,
/// merge_width) is thread-count-independent, so the sorted output, the
/// run/slice structure and the measured (r, s) bill are bit-identical
/// at every thread count; `threads` only decides how many workers chew
/// on the deterministic task list.
struct SortConfig {
  /// Worker threads for run formation and merging (1 = everything runs
  /// inline on the calling thread), in [1, kMaxSortThreads].
  std::size_t threads = 1;
  /// Merge fanout k (runs merged per group), in [2, kMaxMergeFanout].
  std::size_t fanout = 8;
  /// Fields per formation run, in [1, kMaxRunLength]. Constant with
  /// respect to N, which is what keeps the internal-memory bill
  /// independent of N (Corollary 7 shape); the pass count is then
  /// ceil(log_fanout(m / run_length)).
  std::size_t run_length = 1024;
  /// Number of slices the merge work is split into by binary-search
  /// splitting once fewer than this many groups remain. Constant and
  /// thread-count-independent so the slice structure is deterministic.
  static constexpr std::size_t merge_width = 8;
  /// Test hook: fail (Status) after run formation, before merging —
  /// exercises the temp-tape cleanup-on-error path. Never set by flag
  /// or environment parsing.
  bool inject_failure_before_merge = false;
};

/// OK iff every field of `config` lies in its documented range;
/// otherwise an InvalidArgument naming the offending field.
Status ValidateSortConfig(const SortConfig& config);

/// True iff `config.fanout` is a merge fanout (>= 2). Every config
/// that passes `ValidateSortConfig` satisfies it.
bool UsesParallelPath(const SortConfig& config);

/// Process-default config: the override installed by
/// `SetProcessSortConfig` (or a live `ScopedSortConfig`) if any, else
/// RSTLAB_SORT_THREADS / RSTLAB_MERGE_FANOUT / RSTLAB_RUN_LENGTH read
/// from the environment, else `SortConfig{}`. `sorting::SortForDecider`
/// consults this, which is how CI pushes the whole decider suite
/// through a multi-pass geometry without touching each test.
/// Malformed or out-of-range environment values keep the default and
/// warn on stderr.
SortConfig DefaultSortConfig();

/// Installs `config` as the process default handed out by
/// `DefaultSortConfig()`.
void SetProcessSortConfig(const SortConfig& config);

/// The Corollary 7 geometry on top of `DefaultSortConfig()`: fanout 2
/// and run_length 1, i.e. a binary merge sort whose internal buffer is
/// O(n + log N) bits and whose pass count is ceil(log2 m) at every m.
/// Paper-shaped experiments at small N use it; under the default
/// run_length every m <= 1024 sorts in one formation run, so their
/// scan counts would be flat. The thread count is kept (the bill does
/// not depend on it).
SortConfig PaperSortConfig();

/// Installs a process sort config for the lifetime of the guard and
/// restores the previous one (or the environment-derived default) on
/// destruction. Not thread-safe, like `SetProcessSortConfig`.
class ScopedSortConfig {
 public:
  explicit ScopedSortConfig(const SortConfig& config);
  ~ScopedSortConfig();
  ScopedSortConfig(const ScopedSortConfig&) = delete;
  ScopedSortConfig& operator=(const ScopedSortConfig&) = delete;

 private:
  std::optional<SortConfig> previous_;
};

/// Extracts `--sort-threads=T`, `--merge-fanout=K` and `--run-length=L`
/// from argv (removing them, like `extmem::ParseBackendFlags`),
/// starting from `DefaultSortConfig()` so flags override environment
/// overrides defaults. Malformed or out-of-range values keep the
/// default and warn on stderr.
SortConfig ParseSortFlags(int* argc, char** argv);

}  // namespace rstlab::sorting

#endif  // RSTLAB_SORTING_SORT_CONFIG_H_
