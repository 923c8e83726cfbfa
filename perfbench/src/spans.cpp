#include "spans.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <ostream>
#include <unordered_map>

namespace perfbench {

namespace {

std::atomic<std::uint32_t> g_next_span{1};
std::atomic<std::uint32_t> g_next_tid{1};
thread_local std::uint32_t t_current = 0;  // innermost open span
thread_local std::uint32_t t_tid = 0;

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t this_tid() {
  if (t_tid == 0) t_tid = g_next_tid.fetch_add(1, std::memory_order_relaxed);
  return t_tid;
}

}  // namespace

SpanRecorder::Scope::Scope(SpanRecorder* recorder, const char* name, const char* layer,
                           std::uint32_t parent)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  span_.id = g_next_span.fetch_add(1, std::memory_order_relaxed);
  span_.parent = parent != 0 ? parent : t_current;
  span_.name = name;
  span_.layer = layer;
  span_.tid = this_tid();
  saved_current_ = t_current;
  t_current = span_.id;
  span_.start_ns = now_ns();
}

SpanRecorder::Scope::~Scope() {
  if (recorder_ == nullptr) return;
  span_.end_ns = now_ns();
  t_current = saved_current_;
  recorder_->record(span_);
}

void SpanRecorder::record(const Span& span) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(span);
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  std::lock_guard<std::mutex> lock(mu_);
  const std::int64_t t0 = spans_.empty() ? 0
                                         : std::min_element(spans_.begin(), spans_.end(),
                                                            [](const Span& a, const Span& b) {
                                                              return a.start_ns < b.start_ns;
                                                            })->start_ns;
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  for (const auto& s : spans_) {
    os << (first ? "\n" : ",\n");
    first = false;
    os << "{\"name\":\"" << s.name << "\",\"cat\":\"" << s.layer << "\",\"ph\":\"X\""
       << ",\"pid\":1,\"tid\":" << s.tid << ",\"ts\":" << (s.start_ns - t0) / 1000.0
       << ",\"dur\":" << (s.end_ns - s.start_ns) / 1000.0 << ",\"args\":{\"id\":" << s.id
       << ",\"parent\":" << s.parent << "}}";
  }
  os << "\n]}\n";
}

std::map<std::string, double> SpanRecorder::self_seconds_by_layer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint32_t, std::vector<const Span*>> children;
  for (const auto& s : spans_) {
    if (s.parent != 0) children[s.parent].push_back(&s);
  }
  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (const auto& s : spans_) {
    // Union of the child intervals clipped to this span: children run on
    // several threads under a sweep and may overlap each other.
    cover.clear();
    if (auto it = children.find(s.id); it != children.end()) {
      for (const Span* c : it->second) {
        const std::int64_t b = std::max(c->start_ns, s.start_ns);
        const std::int64_t e = std::min(c->end_ns, s.end_ns);
        if (b < e) cover.emplace_back(b, e);
      }
    }
    std::sort(cover.begin(), cover.end());
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [b, e] : cover) {
      const std::int64_t from = std::max(b, reach);
      if (e > from) {
        covered += e - from;
        reach = e;
      }
    }
    self[s.layer] += static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

}  // namespace perfbench
