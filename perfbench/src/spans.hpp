// Host-time spans recorded by the benchmark around its calls into the
// program's layers (parse, environment build and teardown, statement
// execution, profiling, metrics export, the sweep pool).
//
// A span has a name, a layer, a start, an end and a parent. Spans are
// kept in memory and written once, at the end of a run, as Chrome-trace
// JSON. A layer's self time is the duration of its spans minus the part
// of each span's interval that its child spans cover.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  struct Span {
    std::uint32_t id = 0;
    std::uint32_t parent = 0;  // 0 = root
    const char* name = "";
    const char* layer = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint32_t tid = 0;
  };

  /// Opens a span on construction and records it on destruction. With a
  /// null recorder it does nothing, so untraced passes pay one branch.
  /// The parent is the innermost open span on this thread, or `parent`
  /// when given (a sweep point running on a worker thread).
  class Scope {
   public:
    Scope(SpanRecorder* recorder, const char* name, const char* layer,
          std::uint32_t parent = 0);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    std::uint32_t id() const { return span_.id; }

   private:
    SpanRecorder* recorder_;
    Span span_;
    std::uint32_t saved_current_ = 0;
  };

  /// Chrome tracing JSON ("X" events, microseconds).
  void write_chrome_trace(std::ostream& os) const;

  /// Self seconds per layer over every recorded span.
  std::map<std::string, double> self_seconds_by_layer() const;

 private:
  void record(const Span& span);

  mutable std::mutex mu_;
  std::vector<Span> spans_;  // guarded by mu_
};

}  // namespace perfbench
