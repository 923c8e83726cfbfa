// Unified metrics registry for the SCSQ stack.
//
// One Registry per simulated environment (the hw::Machine owns it) holds
// every labeled counter, gauge, and histogram the stack reports through:
// per-link transport counters, per-RP engine gauges, per-hop network
// utilization, and the simulation kernel's PerfCounters (bridged via
// obs/sim_bridge.hpp). Benches snapshot it once per sweep point; the
// scsql shell prints it on \metrics.
//
// Hot-path discipline (same as the kernel's PerfCounters): instruments
// resolve name+labels to a stable handle ONCE, at wiring time; the
// per-event operations are a single add (Counter/Gauge) or one
// upper_bound over a small fixed bucket array (Histogram). Nothing in
// the registry allocates or hashes on the per-frame path.
//
// Statement-path discipline: resolving a series that already exists
// allocates nothing — the lookup hashes the name and labels in place and
// builds no key string. Creating one stores its name once per registry,
// shares one stored Labels with the series created just before it when
// the labels are equal (an RP's ten engine.rp.* gauges, a link's five
// transport.link.* series) and keeps the instrument inline in
// address-stable storage, so a new series costs about one block,
// amortized.
//
// Threading: a Registry belongs to one Simulator and inherits its
// single-threaded discipline. Distinct Registries (one per sweep point)
// are independent and may live on different worker threads.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <variant>
#include <vector>

#include "util/logging.hpp"

namespace scsq::obs {

/// One key=value metric label. Labels distinguish instances of the same
/// metric name (e.g. transport.link.bytes{type=mpi,src=bg1,dst=bg0}).
struct Label {
  std::string key;
  std::string value;

  bool operator==(const Label&) const = default;
};

using Labels = std::vector<Label>;

/// Canonical registry key: `name` alone, or `name{k=v,...}` with labels
/// in registration order. This is the key every exporter and the
/// time-series sampler use, exposed so tools can reconstruct it.
std::string metric_key(std::string_view name, const Labels& labels);

/// Monotonic counter (events, bytes, frames...).
class Counter {
 public:
  void inc(std::uint64_t n = 1) { value_ += n; }

  /// Replaces the value with a cumulative total from an external source
  /// (e.g. the kernel's PerfCounters). Must not decrease.
  void set_total(std::uint64_t total) {
    SCSQ_CHECK(total >= value_) << "counter total went backwards";
    value_ = total;
  }

  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

/// Last-value gauge (utilization, seconds, depths...).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

/// Fixed-bucket histogram: `bounds` are upper bucket edges (inclusive),
/// plus an implicit +inf overflow bucket. Bucket counts are cumulative
/// only in the exporters; observe() touches exactly one slot.
class Histogram {
 public:
  explicit Histogram(std::vector<double> bounds);

  void observe(double v);

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  const std::vector<double>& bounds() const { return bounds_; }
  /// Per-bucket (non-cumulative) counts; size() == bounds().size() + 1,
  /// the last being the overflow bucket.
  const std::vector<std::uint64_t>& bucket_counts() const { return counts_; }

  /// `count` exponential bucket edges: start, start*factor, ...
  static std::vector<double> exp_buckets(double start, double factor, int count);

 private:
  std::vector<double> bounds_;
  std::vector<std::uint64_t> counts_;
  std::uint64_t count_ = 0;
  double sum_ = 0.0;
};

class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  /// Finds or creates a metric. The returned reference is stable for the
  /// lifetime of the Registry; instruments cache it and never look up
  /// again. Re-registering the same name+labels returns the same
  /// instance (a histogram keeps its first bounds) without allocating;
  /// re-registering under a different metric kind aborts (programmer
  /// error).
  Counter& counter(std::string_view name, const Labels& labels = {});
  Gauge& gauge(std::string_view name, const Labels& labels = {});
  Histogram& histogram(std::string_view name, const Labels& labels,
                       const std::vector<double>& bounds);
  Histogram& histogram(std::string_view name, const std::vector<double>& bounds) {
    return histogram(name, {}, bounds);
  }

  std::size_t size() const { return entries_.size(); }

  /// Read-only view of one registered metric. Exactly one of the
  /// instrument pointers is non-null. Indices are stable: entries_ is
  /// append-only, so a sampler can remember "I have seen the first N
  /// entries" and treat later indices as new series.
  struct EntryView {
    const std::string& name;
    const Labels& labels;
    const Counter* counter;
    const Gauge* gauge;
    const Histogram* histogram;
  };

  /// The i-th registered metric, in registration order (i < size()).
  EntryView entry(std::size_t i) const;

  /// Sum of every counter whose name equals `name` across all label
  /// sets (tests/diagnostics).
  std::uint64_t counter_total(std::string_view name) const;

  /// Attaches Prometheus `# HELP` text to a metric name (all label sets
  /// share it). Without one the exporter falls back to the dotted
  /// registry name, which at least survives the dot->underscore mangle.
  void set_help(std::string_view name, std::string help);

  /// Prometheus-style text exposition: one `name{labels} value` line per
  /// metric, histograms as _bucket/_sum/_count series with cumulative
  /// le-bucket counts. Dots in names become underscores. Series sharing
  /// a metric name are grouped under a single `# HELP` + `# TYPE` header
  /// pair (the exposition-format contract scrapers rely on); label
  /// values escape backslash, quote, and newline.
  void write_prometheus(std::ostream& os) const { write_prometheus(os, {}); }

  /// Filtered exposition: only metrics whose `name{k=v,...}` key contains
  /// `filter` as a substring (empty filter = everything). Returns the
  /// number of series written (the shell's `\metrics <filter>` summary).
  std::size_t write_prometheus(std::ostream& os, const std::string& filter) const;

  /// One JSON object: {"counters":{...},"gauges":{...},"histograms":
  /// {...}} keyed by "name{k=v,...}". Single line, valid JSON (keys are
  /// escaped), suitable for JSON-lines snapshot files.
  void write_json(std::ostream& os) const;
  std::string json() const;

 private:
  // Per metric name, stored once: the series share it by pointer.
  struct NameInfo {
    std::uint32_t id;                 // dense, in first-registration order
    std::optional<std::string> help;  // set_help text, if any
  };
  // Heterogeneous lookup: find a name by string_view without a copy.
  struct NameHash {
    using is_transparent = void;
    std::size_t operator()(std::string_view s) const {
      return std::hash<std::string_view>{}(s);
    }
  };
  using NameTable = std::unordered_map<std::string, NameInfo, NameHash, std::equal_to<>>;

  struct Entry {
    const NameTable::value_type* name;  // names_ node: stable
    const Labels* labels;               // labels_ element or kNoLabels
    std::size_t hash;                   // series_hash(name, labels)
    std::variant<Counter, Gauge, Histogram> instrument;
  };

  template <class T, class... Args>
  T& resolve(std::string_view name, const Labels& labels, const Args&... args);
  std::uint32_t& slot_for(std::size_t hash, std::string_view name, const Labels& labels);
  void grow_slots();
  NameTable::value_type& intern_name(std::string_view name);
  void write_prometheus_entry(std::ostream& os, const std::string& name,
                              const Entry& e) const;

  std::deque<Entry> entries_;         // registration order; stable addresses
  std::deque<Labels> labels_;         // stored label sets, shared by runs of series
  NameTable names_;                   // metric name -> id + HELP text
  std::vector<std::uint32_t> slots_;  // open-addressing index: entries_ slot + 1, 0 = empty
};

}  // namespace scsq::obs
