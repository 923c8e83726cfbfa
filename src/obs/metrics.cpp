#include "obs/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <ostream>
#include <sstream>

namespace scsq::obs {
namespace {

// Key under which a metric is exported: name plus canonical label
// render. Labels keep their registration order (instruments are
// consistent about it), so no sorting is needed for a stable key.
void append_key(std::string& out, std::string_view name, const Labels& labels) {
  out += name;
  if (labels.empty()) return;
  out += '{';
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (i) out += ',';
    out += labels[i].key;
    out += '=';
    out += labels[i].value;
  }
  out += '}';
}

// Shared by every label-less series.
const Labels kNoLabels;

// Hash of a series identity, computed from the pieces in place.
std::size_t series_hash(std::string_view name, const Labels& labels) {
  const std::hash<std::string_view> h;
  std::size_t seed = h(name);
  auto mix = [&seed](std::size_t v) {
    seed ^= v + 0x9e3779b97f4a7c15ull + (seed << 6) + (seed >> 2);
  };
  for (const auto& l : labels) {
    mix(h(l.key));
    mix(h(l.value));
  }
  return seed;
}

void write_json_escaped(std::ostream& os, std::string_view s) {
  for (char c : s) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      os << '\\' << c;
    } else if (u < 0x20) {
      const char* hex = "0123456789abcdef";
      os << "\\u00" << hex[(u >> 4) & 0xF] << hex[u & 0xF];
    } else {
      os << c;
    }
  }
}

// JSON numbers must be finite; histogram bounds may legitimately not be,
// and gauges could be fed an inf by a zero-duration run.
void write_json_number(std::ostream& os, double v) {
  if (std::isfinite(v)) {
    os << v;
  } else {
    os << '"' << (std::isnan(v) ? "nan" : (v > 0 ? "inf" : "-inf")) << '"';
  }
}

// Prometheus metric names use underscores; label values get quoted with
// backslash escapes.
std::string prom_name(std::string_view name) {
  std::string out(name);
  std::replace(out.begin(), out.end(), '.', '_');
  std::replace(out.begin(), out.end(), '-', '_');
  return out;
}

void write_prom_labels(std::ostream& os, const Labels& labels, const char* extra_key,
                       const std::string& extra_value) {
  if (labels.empty() && extra_key == nullptr) return;
  os << '{';
  bool first = true;
  for (const auto& l : labels) {
    if (!first) os << ',';
    first = false;
    os << l.key << "=\"";
    for (char c : l.value) {
      if (c == '"' || c == '\\') os << '\\';
      if (c == '\n') {
        os << "\\n";
        continue;
      }
      os << c;
    }
    os << '"';
  }
  if (extra_key != nullptr) {
    if (!first) os << ',';
    os << extra_key << "=\"" << extra_value << '"';
  }
  os << '}';
}

std::string format_bound(double b) {
  std::ostringstream os;
  os << b;
  return os.str();
}

}  // namespace

std::string metric_key(std::string_view name, const Labels& labels) {
  std::string key;
  append_key(key, name, labels);
  return key;
}

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  SCSQ_CHECK(std::is_sorted(bounds_.begin(), bounds_.end()))
      << "histogram bucket bounds must be sorted";
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::observe(double v) {
  const auto it = std::upper_bound(bounds_.begin(), bounds_.end(), v);
  // Values exactly on an edge land in that edge's bucket (le semantics):
  // upper_bound yields the first bound > v, but a bound == v belongs to
  // its own bucket, so step back when the previous bound equals v.
  std::size_t idx = static_cast<std::size_t>(it - bounds_.begin());
  if (idx > 0 && bounds_[idx - 1] == v) idx -= 1;
  counts_[idx] += 1;
  count_ += 1;
  sum_ += v;
}

std::vector<double> Histogram::exp_buckets(double start, double factor, int count) {
  SCSQ_CHECK(start > 0 && factor > 1.0 && count >= 1) << "bad exp_buckets parameters";
  std::vector<double> bounds;
  bounds.reserve(static_cast<std::size_t>(count));
  double b = start;
  for (int i = 0; i < count; ++i) {
    bounds.push_back(b);
    b *= factor;
  }
  return bounds;
}

Registry::NameTable::value_type& Registry::intern_name(std::string_view name) {
  auto it = names_.find(name);
  if (it == names_.end()) {
    it = names_.emplace(std::string(name),
                        NameInfo{static_cast<std::uint32_t>(names_.size()), {}})
             .first;
  }
  return *it;
}

// Linear probing over a power-of-two table. Returns the slot that holds
// the series, or the empty slot where it belongs.
std::uint32_t& Registry::slot_for(std::size_t hash, std::string_view name,
                                  const Labels& labels) {
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t i = hash & mask;; i = (i + 1) & mask) {
    std::uint32_t& slot = slots_[i];
    if (slot == 0) return slot;
    const Entry& e = entries_[slot - 1];
    if (e.hash == hash && e.name->first == name && *e.labels == labels) return slot;
  }
}

void Registry::grow_slots() {
  std::vector<std::uint32_t> old = std::move(slots_);
  slots_.assign(old.empty() ? 64 : old.size() * 2, 0);
  const std::size_t mask = slots_.size() - 1;
  for (const std::uint32_t slot : old) {
    if (slot == 0) continue;
    std::size_t i = entries_[slot - 1].hash & mask;
    while (slots_[i] != 0) i = (i + 1) & mask;
    slots_[i] = slot;
  }
}

template <class T, class... Args>
T& Registry::resolve(std::string_view name, const Labels& labels, const Args&... args) {
  const std::size_t hash = series_hash(name, labels);
  if (slots_.empty()) grow_slots();
  std::uint32_t* slot = &slot_for(hash, name, labels);
  if (*slot != 0) {
    auto* existing = std::get_if<T>(&entries_[*slot - 1].instrument);
    SCSQ_CHECK(existing != nullptr)
        << "metric '" << metric_key(name, labels) << "' re-registered as a different kind";
    return *existing;
  }
  // Keep the load factor at most 3/4, so probing always ends at an empty slot.
  if ((entries_.size() + 1) * 4 > slots_.size() * 3) {
    grow_slots();
    slot = &slot_for(hash, name, labels);
  }
  const Labels* stored = &kNoLabels;
  if (!labels.empty()) {
    if (labels_.empty() || labels_.back() != labels) labels_.push_back(labels);
    stored = &labels_.back();
  }
  Entry& e = entries_.emplace_back(Entry{&intern_name(name), stored, hash,
                                         std::variant<Counter, Gauge, Histogram>(
                                             std::in_place_type<T>, args...)});
  *slot = static_cast<std::uint32_t>(entries_.size());
  return std::get<T>(e.instrument);
}

Counter& Registry::counter(std::string_view name, const Labels& labels) {
  return resolve<Counter>(name, labels);
}

Gauge& Registry::gauge(std::string_view name, const Labels& labels) {
  return resolve<Gauge>(name, labels);
}

Histogram& Registry::histogram(std::string_view name, const Labels& labels,
                               const std::vector<double>& bounds) {
  return resolve<Histogram>(name, labels, bounds);
}

Registry::EntryView Registry::entry(std::size_t i) const {
  SCSQ_CHECK(i < entries_.size()) << "registry entry index out of range";
  const Entry& e = entries_[i];
  return EntryView{e.name->first, *e.labels, std::get_if<Counter>(&e.instrument),
                   std::get_if<Gauge>(&e.instrument), std::get_if<Histogram>(&e.instrument)};
}

void Registry::set_help(std::string_view name, std::string help) {
  intern_name(name).second.help = std::move(help);
}

std::uint64_t Registry::counter_total(std::string_view name) const {
  const auto it = names_.find(name);
  if (it == names_.end()) return 0;
  std::uint64_t total = 0;
  for (const auto& e : entries_) {
    if (e.name != &*it) continue;
    if (const auto* c = std::get_if<Counter>(&e.instrument)) total += c->value();
  }
  return total;
}

void Registry::write_prometheus_entry(std::ostream& os, const std::string& name,
                                      const Entry& e) const {
  const Labels& labels = *e.labels;
  if (const auto* c = std::get_if<Counter>(&e.instrument)) {
    os << name;
    write_prom_labels(os, labels, nullptr, {});
    os << ' ' << c->value() << '\n';
  } else if (const auto* g = std::get_if<Gauge>(&e.instrument)) {
    os << name;
    write_prom_labels(os, labels, nullptr, {});
    os << ' ' << g->value() << '\n';
  } else {
    const Histogram& h = std::get<Histogram>(e.instrument);
    std::uint64_t cumulative = 0;
    for (std::size_t b = 0; b < h.bucket_counts().size(); ++b) {
      cumulative += h.bucket_counts()[b];
      os << name << "_bucket";
      write_prom_labels(os, labels, "le",
                        b < h.bounds().size() ? format_bound(h.bounds()[b]) : "+Inf");
      os << ' ' << cumulative << '\n';
    }
    os << name << "_sum";
    write_prom_labels(os, labels, nullptr, {});
    os << ' ' << h.sum() << '\n';
    os << name << "_count";
    write_prom_labels(os, labels, nullptr, {});
    os << ' ' << h.count() << '\n';
  }
}

std::size_t Registry::write_prometheus(std::ostream& os, const std::string& filter) const {
  // Exposition-format contract: every series of one metric name sits in
  // a single block headed by exactly one # HELP / # TYPE pair. One pass
  // chains the (filtered) series of each name in registration order;
  // the blocks then follow in the order their names first appear.
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::vector<std::size_t> head(names_.size(), kNone);
  std::vector<std::size_t> tail(names_.size(), kNone);
  std::vector<std::size_t> next(entries_.size(), kNone);
  std::vector<std::uint32_t> order;  // name ids, by first selected series
  std::string key;
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const Entry& e = entries_[i];
    if (!filter.empty()) {
      key.clear();
      append_key(key, e.name->first, *e.labels);
      if (key.find(filter) == std::string::npos) continue;
    }
    const std::uint32_t id = e.name->second.id;
    if (head[id] == kNone) {
      head[id] = i;
      order.push_back(id);
    } else {
      next[tail[id]] = i;
    }
    tail[id] = i;
  }
  static constexpr const char* kTypeNames[] = {"counter", "gauge", "histogram"};
  std::size_t written = 0;
  for (const std::uint32_t id : order) {
    const Entry& lead = entries_[head[id]];
    const auto& [dotted, info] = *lead.name;
    const std::string name = prom_name(dotted);
    os << "# HELP " << name << ' ' << (info.help ? *info.help : dotted) << '\n';
    os << "# TYPE " << name << ' ' << kTypeNames[lead.instrument.index()] << '\n';
    for (std::size_t i = head[id]; i != kNone; i = next[i]) {
      write_prometheus_entry(os, name, entries_[i]);
      ++written;
    }
  }
  return written;
}

void Registry::write_json(std::ostream& os) const {
  auto write_section = [&](const char* title, auto instrument_of, auto&& body) {
    os << '"' << title << "\":{";
    bool first = true;
    for (const auto& e : entries_) {
      const auto* instrument = instrument_of(e);
      if (instrument == nullptr) continue;
      if (!first) os << ',';
      first = false;
      os << '"';
      write_json_escaped(os, e.name->first);
      if (!e.labels->empty()) {
        os << '{';
        for (std::size_t i = 0; i < e.labels->size(); ++i) {
          if (i) os << ',';
          write_json_escaped(os, (*e.labels)[i].key);
          os << '=';
          write_json_escaped(os, (*e.labels)[i].value);
        }
        os << '}';
      }
      os << "\":";
      body(*instrument);
    }
    os << '}';
  };
  os << '{';
  write_section(
      "counters", [](const Entry& e) { return std::get_if<Counter>(&e.instrument); },
      [&](const Counter& c) { os << c.value(); });
  os << ',';
  write_section(
      "gauges", [](const Entry& e) { return std::get_if<Gauge>(&e.instrument); },
      [&](const Gauge& g) { write_json_number(os, g.value()); });
  os << ',';
  write_section(
      "histograms", [](const Entry& e) { return std::get_if<Histogram>(&e.instrument); },
      [&](const Histogram& h) {
        os << "{\"bounds\":[";
        for (std::size_t i = 0; i < h.bounds().size(); ++i) {
          if (i) os << ',';
          write_json_number(os, h.bounds()[i]);
        }
        os << "],\"counts\":[";
        for (std::size_t i = 0; i < h.bucket_counts().size(); ++i) {
          if (i) os << ',';
          os << h.bucket_counts()[i];
        }
        os << "],\"count\":" << h.count() << ",\"sum\":";
        write_json_number(os, h.sum());
        os << '}';
      });
  os << '}';
}

std::string Registry::json() const {
  std::ostringstream os;
  write_json(os);
  return os.str();
}

}  // namespace scsq::obs
