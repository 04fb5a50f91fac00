// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its calls into each rstlab layer (the library itself
// has no clock), kept in memory and written out once at exit.
#ifndef PERFBENCH_SPAN_H_
#define PERFBENCH_SPAN_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// One finished span. Times are seconds since the recorder was created.
struct SpanRecord {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  /// Index of the enclosing span in the recorder, -1 for a root.
  std::int64_t parent = -1;
  /// Identifier shared by every span of one benchmark run.
  std::uint64_t run_id = 0;
};

/// Per-name totals: a span's self time is its duration minus the part
/// of its interval covered by its children.
struct SelfTimeRow {
  std::size_t count = 0;
  double total = 0.0;
  double self = 0.0;
};

/// Records nested spans from one thread. `Begin`/`End` must pair up in
/// stack order; `Scope` does that for a C++ block.
class SpanRecorder {
 public:
  explicit SpanRecorder(std::uint64_t run_id);

  /// Opens a span named `name` as a child of the innermost open span.
  void Begin(const std::string& name);
  /// Closes the innermost open span.
  void End();

  /// RAII span; a null recorder makes it a no-op, which is how the
  /// untraced run shares the traced run's code.
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const std::string& name)
        : recorder_(recorder) {
      if (recorder_ != nullptr) recorder_->Begin(name);
    }
    ~Scope() {
      if (recorder_ != nullptr) recorder_->End();
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanRecorder* recorder_;
  };

  const std::vector<SpanRecord>& spans() const { return spans_; }
  std::uint64_t run_id() const { return run_id_; }

  /// Writes every span as one JSON object per line. Returns false if the
  /// file cannot be written.
  bool WriteJsonLines(const std::string& path) const;

 private:
  double Now() const;

  std::uint64_t run_id_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<SpanRecord> spans_;
  std::vector<std::size_t> open_;
};

/// Self-time table over finished spans, keyed by span name. Children
/// may overlap each other (the union of their intervals is what is
/// subtracted) and are clipped to the parent's interval.
std::map<std::string, SelfTimeRow> SelfTimeTable(
    const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPAN_H_
