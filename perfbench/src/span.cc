#include "span.h"

#include <algorithm>
#include <fstream>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder(std::uint64_t run_id)
    : run_id_(run_id), origin_(std::chrono::steady_clock::now()) {}

double SpanRecorder::Now() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin_)
      .count();
}

void SpanRecorder::Begin(const std::string& name) {
  SpanRecord span;
  span.name = name;
  span.start = Now();
  span.parent =
      open_.empty() ? -1 : static_cast<std::int64_t>(open_.back());
  span.run_id = run_id_;
  open_.push_back(spans_.size());
  spans_.push_back(std::move(span));
}

void SpanRecorder::End() {
  if (open_.empty()) return;
  spans_[open_.back()].end = Now();
  open_.pop_back();
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out.precision(9);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start\":" << s.start << ",\"end\":" << s.end
        << ",\"parent\":" << s.parent << ",\"run_id\":" << s.run_id
        << "}\n";
  }
  return static_cast<bool>(out);
}

std::map<std::string, SelfTimeRow> SelfTimeTable(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent >= 0 && static_cast<std::size_t>(s.parent) < spans.size()) {
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                               s.end);
    }
  }
  std::map<std::string, SelfTimeRow> table;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const double duration = std::max(0.0, s.end - s.start);
    std::vector<std::pair<double, double>>& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double reach = s.start;  // right edge of the union so far
    for (const auto& [begin, end] : kids) {
      const double lo = std::max(begin, reach);
      const double hi = std::min(end, s.end);
      if (hi > lo) covered += hi - lo;
      reach = std::max(reach, std::min(end, s.end));
    }
    SelfTimeRow& row = table[s.name];
    row.count += 1;
    row.total += duration;
    row.self += std::max(0.0, duration - covered);
  }
  return table;
}

}  // namespace perfbench
