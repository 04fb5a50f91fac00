#include "stats.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile NearestRank(std::vector<double> values, double p) {
  Percentile out;
  out.samples = values.size();
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const double exact = p / 100.0 * static_cast<double>(values.size());
  std::size_t rank = static_cast<std::size_t>(std::ceil(exact - 1e-9));
  rank = std::clamp<std::size_t>(rank, 1, values.size());
  out.value = values[rank - 1];
  out.beyond = values.size() - rank;
  return out;
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                 : (values[mid - 1] + values[mid]) / 2.0;
}

void FailureLedger::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (messages_.size() < 8) messages_.push_back(what);
}

void FailureLedger::Record(std::uint64_t attempted, std::uint64_t failed,
                           const std::string& what) {
  attempted_ += attempted;
  failed_ += failed;
  if (failed > 0 && messages_.size() < 8) messages_.push_back(what);
}

double FailureLedger::ratio() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(failed_) /
                               static_cast<double>(attempted_);
}

}  // namespace perfbench
