// The traced mode's span log. Spans are recorded by the benchmark around
// its own calls into each layer's public functions (the program itself is
// not instrumented here); each span carries name, start, end, parent and
// query id, is kept in memory, and is written out once the run ends.
//
// Every span is recorded on the thread that replays the query (the replay
// runs the layers serially), and its parent is the innermost span open
// there; a span opened with nothing open is a root. Self time is a span's
// duration minus the part of its interval that its children cover
// (overlapping children counted once).

#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct SpanRecord {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;  ///< 0 = root.
  uint64_t query = 0;
  double start_ms = 0.0;
  double end_ms = 0.0;
};

class SpanLog {
 public:
  SpanLog();
  SpanLog(const SpanLog&) = delete;
  SpanLog& operator=(const SpanLog&) = delete;

  /// RAII span: opened by the constructor, recorded by the destructor.
  class Scope {
   public:
    /// A null `log` makes the scope a no-op (untraced replay).
    Scope(SpanLog* log, const char* name);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    SpanLog* log_;
    SpanRecord rec_;
  };

  /// Tags every span opened from now on with `query_id`.
  void BeginQuery(uint64_t query_id);

  /// Self time summed per span name, in ms.
  std::map<std::string, double> SelfMsByName() const;
  /// Summed duration of root spans, in ms.
  double RootMs() const;

  /// Writes one JSON object per span. Returns false if the file cannot be
  /// written.
  bool WriteJsonl(const std::string& path, const std::string& meta_json) const;

 private:
  double NowMs() const;
  void Record(const SpanRecord& rec);

  const std::chrono::steady_clock::time_point epoch_;
  uint64_t next_id_ = 1;
  uint64_t query_ = 0;
  std::vector<SpanRecord> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
