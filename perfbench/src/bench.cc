#include "bench.h"

#include "env.h"

namespace perfbench {

Run::Run(const RunOptions& options, std::ostream& log)
    : options_(options), log_(log), spans_(options.seed) {}

void Run::Set(const std::string& name, double value,
              const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

rstlab::extmem::StorageOptions Run::FileStorage() const {
  rstlab::extmem::StorageOptions options;
  options.backend = rstlab::extmem::BackendKind::kFile;
  options.dir = options_.work_dir;
  return options;
}

void TimedLoop(
    Run& run, std::size_t min_iterations,
    const std::function<IterationTimes(bool traced)>& iteration,
    bool record_peak_rss) {
  const auto start = std::chrono::steady_clock::now();
  std::vector<double> setups;
  std::vector<double> untraced;
  std::vector<double> traced;
  if (record_peak_rss && !ResetPeakRss()) {
    run.log() << "  (cannot reset the peak RSS; peak_rss_mb covers the run)\n";
  }
  const bool tracing = run.options().trace;
  const std::size_t min_total = tracing ? 2 * min_iterations : min_iterations;
  // Whole iterations only: the next one starts if a typical iteration
  // still ends within `seconds`, so a run of long jobs does not overrun.
  std::vector<double> durations;
  for (std::size_t i = 0;
       i < min_total ||
       Since(start) + Median(durations) <= run.options().seconds;
       ++i) {
    const bool traced_iteration = tracing && i % 2 == 1;
    const auto iteration_start = std::chrono::steady_clock::now();
    SpanRecorder::Scope span(traced_iteration ? run.spans() : nullptr,
                             "iteration");
    const IterationTimes t = iteration(traced_iteration);
    durations.push_back(Since(iteration_start));
    setups.push_back(t.setup_s);
    (traced_iteration ? traced : untraced).push_back(t.job_s);
    if (i == 0 && record_peak_rss) {
      run.Set("peak_rss_mb", PeakRssMb(), "MB");
    }
  }
  run.Set("setup_s", Median(setups), "s");
  run.Set("job_s", Median(untraced), "s");
  run.log() << "  iterations: " << setups.size() << " (" << untraced.size()
            << " untraced, " << traced.size() << " traced); job_s:";
  for (double t : untraced) run.log() << " " << t;
  run.log() << "\n";
  if (tracing) {
    const double base = Median(untraced);
    const double with_spans = Median(traced);
    run.Set("trace.job_s", with_spans, "s");
    run.Set("trace.overhead", base > 0.0 ? with_spans / base : 0.0, "x");
  }
}

}  // namespace perfbench
