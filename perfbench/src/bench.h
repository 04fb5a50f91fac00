// Shared plumbing of the benchmark: run options, the metric sink, the
// timed iteration loop and the workload entry points.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <ostream>
#include <string>
#include <vector>

#include "extmem/storage.h"
#include "span.h"
#include "stats.h"

namespace perfbench {

/// Command-line options of one benchmark run.
struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory (inside the checkout) for file-backed tapes.
  std::string work_dir;
  /// Where the traced run writes its spans ("" = do not write).
  std::string spans_path;
  std::string git_sha = "unknown";
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// Everything one run measured and checked.
class Run {
 public:
  Run(const RunOptions& options, std::ostream& log);

  const RunOptions& options() const { return options_; }
  std::ostream& log() { return log_; }
  FailureLedger& ledger() { return ledger_; }
  /// The span recorder, or null in the untraced run.
  SpanRecorder* spans() { return options_.trace ? &spans_ : nullptr; }
  const SpanRecorder& recorder() const { return spans_; }

  /// Records metric `name` (printed by name with its unit at the end).
  void Set(const std::string& name, double value, const std::string& unit);
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

  /// File-backed storage options: library defaults except the backing
  /// directory, which is kept inside the checkout.
  rstlab::extmem::StorageOptions FileStorage() const;

 private:
  RunOptions options_;
  std::ostream& log_;
  FailureLedger ledger_;
  SpanRecorder spans_;
  std::map<std::string, Metric> metrics_;
};

/// Seconds elapsed since `start`.
inline double Since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// Times of one iteration of a workload: set-up and the job itself.
struct IterationTimes {
  double setup_s = 0.0;
  double job_s = 0.0;
};

/// Runs `iteration(traced)` for `options.seconds` (at least
/// `min_iterations` times; no iteration is started that would typically
/// end after that). Records `setup_s` and `job_s` as medians over
/// iterations, and `peak_rss_mb` as the peak resident set during the
/// first iteration: later ones are left out because their
/// number depends on machine speed and, in a process that keeps
/// restarting a multi-threaded daemon, allocator fragmentation makes
/// each one start from a higher resident set. In the traced run
/// iterations alternate between untraced and traced, so the same
/// process also measures the tracing overhead (`trace.overhead` =
/// traced job_s / untraced job_s). A workload that measures its
/// resident set elsewhere passes `record_peak_rss` false.
void TimedLoop(Run& run, std::size_t min_iterations,
               const std::function<IterationTimes(bool traced)>& iteration,
               bool record_peak_rss = true);

/// Workload entry points.
void RunDecideSort(Run& run);
void RunQueryXmlOoc(Run& run);
void RunFingerprintMc(Run& run);
void RunServeMix(Run& run);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
