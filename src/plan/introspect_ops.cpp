#include "plan/introspect_ops.hpp"

#include <utility>

#include "util/logging.hpp"

namespace scsq::plan {

using catalog::Bag;
using catalog::Object;

namespace {

const IntrospectFeed& feed_of(const PlanContext& ctx) {
  SCSQ_CHECK(ctx.introspect != nullptr && ctx.introspect->window != nullptr)
      << "introspection source built without a feed";
  return *ctx.introspect;
}

bool matches(const std::string& key, const std::string& pattern) {
  return pattern.empty() || key.find(pattern) != std::string::npos;
}

}  // namespace

MetricsStreamOp::MetricsStreamOp(PlanContext& ctx, std::string pattern)
    : ctx_(&ctx), pattern_(std::move(pattern)) {}

sim::Task<std::optional<Object>> MetricsStreamOp::next() {
  const auto& feed = feed_of(*ctx_);
  const auto& w = *feed.window;
  while (index_ < w.counters.size()) {
    const auto& c = w.counters[index_++];
    if (!matches(c.key, pattern_)) continue;
    Bag row;
    row.reserve(5);
    row.emplace_back(c.key);
    row.emplace_back(static_cast<std::int64_t>(c.delta));
    row.emplace_back(c.rate);
    row.emplace_back(w.t_start);
    row.emplace_back(w.t_end);
    co_return Object{std::move(row)};
  }
  co_return std::nullopt;
}

GaugeStreamOp::GaugeStreamOp(PlanContext& ctx, std::string pattern)
    : ctx_(&ctx), pattern_(std::move(pattern)) {}

sim::Task<std::optional<Object>> GaugeStreamOp::next() {
  const auto& feed = feed_of(*ctx_);
  const auto& w = *feed.window;
  while (index_ < w.gauges.size()) {
    const auto& g = w.gauges[index_++];
    if (!matches(g.key, pattern_)) continue;
    Bag row;
    row.reserve(3);
    row.emplace_back(g.key);
    row.emplace_back(g.value);
    row.emplace_back(w.t_end);
    co_return Object{std::move(row)};
  }
  co_return std::nullopt;
}

RateStreamOp::RateStreamOp(PlanContext& ctx, std::string pattern)
    : ctx_(&ctx), pattern_(std::move(pattern)) {}

sim::Task<std::optional<Object>> RateStreamOp::next() {
  const auto& feed = feed_of(*ctx_);
  const auto& w = *feed.window;
  while (index_ < w.counters.size()) {
    const auto& c = w.counters[index_++];
    if (!matches(c.key, pattern_)) continue;
    co_return Object{c.rate};
  }
  co_return std::nullopt;
}

}  // namespace scsq::plan
