// Order statistics and failure accounting shared by every workload.
#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// A nearest-rank percentile together with the evidence behind it.
struct Percentile {
  double value = 0.0;
  /// Samples the percentile was taken over.
  std::size_t samples = 0;
  /// Samples strictly above the percentile's rank — the guide's rule is
  /// that a tail percentile is only reported with at least ten of them.
  std::size_t beyond = 0;
};

/// The `p`-th percentile (0 < p <= 100) of `values` by nearest rank:
/// the smallest sample with at least p% of the samples at or below it.
/// Empty input gives a zero Percentile.
Percentile NearestRank(std::vector<double> values, double p);

/// Median (mean of the two middle samples for even counts); 0 if empty.
double Median(std::vector<double> values);

/// Tallies operations attempted and failed. Every correctness check in a
/// workload goes through `Check`, so `failed_ratio` counts wrong
/// verdicts, wrong query results, bad responses and library-reported
/// failures alike.
class FailureLedger {
 public:
  /// Records one attempted operation; `ok` false counts it as failed and
  /// keeps `what` (the first few messages only) for the report.
  void Check(bool ok, const std::string& what);

  /// Records `attempted` operations of which `failed` failed, all for
  /// the same reason `what` (batches counted on worker threads).
  void Record(std::uint64_t attempted, std::uint64_t failed,
              const std::string& what);

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// failed / attempted (0 when nothing was attempted).
  double ratio() const;
  const std::vector<std::string>& messages() const { return messages_; }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> messages_;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
