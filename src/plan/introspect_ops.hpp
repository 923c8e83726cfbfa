// Introspection stream sources: the engine's own telemetry as SCSQL
// streams (the paper's thesis applied to the engine itself — stream
// queries are the measurement instrument, so the measurement instrument
// is itself queryable with stream queries).
//
// A monitor query (Engine::register_monitor) is compiled into a regular
// SQEP whose sources read an IntrospectFeed instead of a network driver:
// one obs::Sampler window per execution, each counter/gauge sample a
// stream element. The plan runs at every sampler window boundary inside
// the zero-duration sampler tick, under a PlanContext whose NodeParams
// are all zero and whose CPU resource is private and uncontended — every
// awaitable in the operator machinery then completes inline
// (Resource::acquire with a free slot, delay_until(now)), so a monitor
// plan never schedules a simulator event and the measured workload's
// timeline is byte-identical with monitors on or off (DESIGN.md §5.8).
//
// Row shapes (catalog::Bag fields, in order):
//   system.metrics([pattern])  {key, delta, rate, t_start, t_end}
//                              one row per counter with a nonzero delta
//                              in the window whose key contains pattern
//   system.gauges([pattern])   {key, value, t_end}
//   system.rates([pattern])    bare real stream of the matching
//                              counters' rates — composes with sum()
//                              (merge across links) and above()
#pragma once

#include <string>

#include "obs/sampler.hpp"
#include "plan/operator.hpp"

namespace scsq::plan {

/// The data an introspection plan reads: one sampler window. Owned by
/// the monitor runner (exec::Engine); valid only for the duration of one
/// plan run.
struct IntrospectFeed {
  const obs::Sampler::Window* window = nullptr;
  std::size_t window_index = 0;
};

/// system.metrics(pattern): one bag row per matching counter sample.
class MetricsStreamOp final : public Operator {
 public:
  MetricsStreamOp(PlanContext& ctx, std::string pattern);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "system.metrics"; }

 private:
  PlanContext* ctx_;
  std::string pattern_;
  std::size_t index_ = 0;
};

/// system.gauges(pattern): one bag row per matching gauge sample.
class GaugeStreamOp final : public Operator {
 public:
  GaugeStreamOp(PlanContext& ctx, std::string pattern);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "system.gauges"; }

 private:
  PlanContext* ctx_;
  std::string pattern_;
  std::size_t index_ = 0;
};

/// system.rates(pattern): bare real stream of matching counters' rates.
class RateStreamOp final : public Operator {
 public:
  RateStreamOp(PlanContext& ctx, std::string pattern);
  sim::Task<std::optional<catalog::Object>> next() override;
  std::string name() const override { return "system.rates"; }

 private:
  PlanContext* ctx_;
  std::string pattern_;
  std::size_t index_ = 0;
};

}  // namespace scsq::plan
