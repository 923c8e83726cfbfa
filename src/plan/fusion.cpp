#include "plan/fusion.hpp"

#include <string>
#include <utility>
#include <vector>

#include "funcs/fft.hpp"
#include "funcs/textgen.hpp"
#include "plan/op_costs.hpp"
#include "plan/operators.hpp"

namespace scsq::plan {
namespace {

using catalog::Kind;
using catalog::Object;
using scsql::ExprKind;
using scsql::ExprPtr;

/// A fused stateless chain: one operator standing in for
/// [count|sum]? (odd|even|fft)* over a batchable source. Per batch it
/// performs ONE aggregated CPU hold whose end time is the left-to-right
/// fold of the per-item cost expressions in per-item order (the same
/// floating-point additions the unfused tower performs), so the
/// simulated clock is bitwise-identical at every batch depth while the
/// host pays one suspension per batch instead of one per operator per
/// item.
class FusedPipelineOp final : public Operator {
 public:
  enum class SourceKind { kReceive, kGen, kBag, kGrep };
  enum class Terminal { kNone, kCount, kSum };

  struct Spec {
    SourceKind source = SourceKind::kGen;
    transport::ReceiverDriver* driver = nullptr;  // kReceive
    std::uint64_t gen_bytes = 0;                  // kGen
    std::int64_t gen_count = 0;                   // kGen; < 0 = unbounded
    catalog::Bag bag;                             // kBag (iota)
    std::string grep_pattern;                     // kGrep
    std::string grep_file;
    /// Array transforms in application order (source-side first).
    std::vector<ArrayMapOp::Fn> stages;
    Terminal terminal = Terminal::kNone;
    std::string name;  // e.g. "fused(count(receive))"
  };

  FusedPipelineOp(PlanContext& ctx, Spec spec) : ctx_(&ctx), spec_(std::move(spec)) {}

  std::string name() const override { return spec_.name; }

  sim::Task<std::optional<Object>> next() override {
    item_scratch_.reset();
    co_await next_batch(item_scratch_, 1);
    if (item_scratch_.empty()) co_return std::nullopt;
    co_return std::optional<Object>(std::move(item_scratch_[0]));
  }

  sim::Task<void> next_batch(ItemBatch& out, std::size_t max) override {
    if (done_) {
      out.mark_eos();
      co_return;
    }
    if (spec_.terminal == Terminal::kNone) {
      src_scratch_.reset();
      co_await fill_source(src_scratch_, max);
      if (!src_scratch_.empty()) {
        co_await charge_and_emit(src_scratch_, &out);
        count_batch(src_scratch_.size());
      }
      if (src_scratch_.eos()) {
        done_ = true;
        out.mark_eos();
      }
      co_return;
    }
    // Aggregating terminal: drain the whole source stream right here,
    // ctx->batch_size items per aggregated hold, regardless of how
    // deeply the engine pulls — a count(extract(...)) consumer stops
    // paying one operator-tower suspension per received item even when
    // it emits a single result.
    while (true) {
      src_scratch_.reset();
      co_await fill_source(src_scratch_, ctx_->batch_size);
      if (!src_scratch_.empty()) {
        co_await charge_and_emit(src_scratch_, nullptr);
        // For an aggregating terminal the consumed side is the
        // interesting fill: items folded per internal drain round
        // (EXPLAIN ANALYZE's batches/fill columns).
        count_batch(src_scratch_.size());
      }
      if (src_scratch_.eos()) break;
    }
    done_ = true;
    if (spec_.terminal == Terminal::kCount) {
      out.push(Object{count_});
    } else if (all_int_) {
      out.push(Object{int_sum_});
    } else {
      out.push(Object{real_sum_});
    }
    out.mark_eos();
  }

 private:
  /// Pulls up to `max` raw source items into `raw` and marks its EOS
  /// flag. Sources whose per-item cost is folded into the batch hold
  /// (gen, bag) charge nothing here; the receiver charges per *frame*
  /// (frame-granular, identical to the per-item path) and grep charges
  /// its one scan pass on first use.
  sim::Task<void> fill_source(ItemBatch& raw, std::size_t max) {
    switch (spec_.source) {
      case SourceKind::kReceive: {
        const std::size_t n = co_await spec_.driver->next_batch(raw, max);
        if (n == 0 || spec_.driver->exhausted()) raw.mark_eos();
        co_return;
      }
      case SourceKind::kGen: {
        if (spec_.gen_count >= 0 && produced_ >= spec_.gen_count) {
          raw.mark_eos();
          co_return;
        }
        std::size_t n = max;
        if (spec_.gen_count >= 0) {
          n = std::min<std::size_t>(n, static_cast<std::size_t>(spec_.gen_count - produced_));
        }
        for (std::size_t i = 0; i < n; ++i) {
          raw.push(Object{catalog::SynthArray{spec_.gen_bytes,
                                              static_cast<std::uint64_t>(produced_)}});
          ++produced_;
        }
        if (spec_.gen_count >= 0 && produced_ >= spec_.gen_count) raw.mark_eos();
        co_return;
      }
      case SourceKind::kBag: {
        const std::size_t n = std::min(max, spec_.bag.size() - bag_index_);
        for (std::size_t i = 0; i < n; ++i) raw.push(Object{spec_.bag[bag_index_++]});
        if (bag_index_ >= spec_.bag.size()) raw.mark_eos();
        co_return;
      }
      case SourceKind::kGrep: {
        if (!scanned_) {
          scanned_ = true;
          auto result = funcs::scan_file(spec_.grep_pattern, spec_.grep_file);
          matches_ = std::move(result.matches);
          co_await ctx_->cpu->use(op_costs::grep_scan(ctx_->node, result.scanned_bytes));
        }
        std::size_t n = 0;
        while (n < max && next_match_ < matches_.size()) {
          raw.push(Object{std::move(matches_[next_match_++])});
          ++n;
        }
        if (next_match_ == matches_.size()) raw.mark_eos();
        co_return;
      }
    }
  }

  /// The aggregated hold: acquire the CPU once, fold every per-item cost
  /// in per-item order into `end`, transform/accumulate the items on the
  /// host side, then sleep until `end`. The fold additions are the exact
  /// additions n individual use() calls would perform (op_costs.hpp is
  /// the single definition of each expression), so the release lands on
  /// the bitwise-identical timestamp. Safe because nothing else contends
  /// for this CPU inside the window: the RP's receiver charges happen
  /// sequentially in fill_source, and its sender has nothing to marshal
  /// until we emit (aggregating chains emit only at EOS; stateless
  /// chains at sender RPs run at engine depth 1, a one-item fold).
  sim::Task<void> charge_and_emit(ItemBatch& in, ItemBatch* out) {
    co_await ctx_->cpu->acquire();
    {
      sim::ResourceLock lock(*ctx_->cpu);
      sim::Time end = ctx_->sim->now();
      for (std::size_t i = 0; i < in.size(); ++i) {
        Object cur = std::move(in[i]);
        switch (spec_.source) {
          case SourceKind::kGen:
            end += op_costs::gen_array(ctx_->node, spec_.gen_bytes);
            break;
          case SourceKind::kBag:
            end += op_costs::invoke(ctx_->node);
            break;
          default:
            break;  // receive/grep charged in fill_source
        }
        for (auto fn : spec_.stages) {
          const auto& arr = cur.as_darray();
          end += fn == ArrayMapOp::Fn::kFft
                     ? op_costs::array_fft(ctx_->node, arr.size())
                     : op_costs::array_select(ctx_->node, arr.size());
          switch (fn) {
            case ArrayMapOp::Fn::kOdd:
              cur = Object{funcs::odd(arr)};
              break;
            case ArrayMapOp::Fn::kEven:
              cur = Object{funcs::even(arr)};
              break;
            case ArrayMapOp::Fn::kFft:
              cur = Object{funcs::fft(arr)};
              break;
          }
        }
        switch (spec_.terminal) {
          case Terminal::kNone:
            out->push(std::move(cur));
            break;
          case Terminal::kCount:
            end += op_costs::invoke(ctx_->node);
            ++count_;
            break;
          case Terminal::kSum:
            end += op_costs::invoke(ctx_->node);
            // SumOp's exact promotion semantics: integral until the
            // first non-int, then switch to the real accumulator.
            if (cur.kind() == Kind::kInt && all_int_) {
              int_sum_ += cur.as_int();
            } else {
              if (all_int_) {
                real_sum_ = static_cast<double>(int_sum_);
                all_int_ = false;
              }
              real_sum_ += cur.as_number();
            }
            break;
        }
      }
      co_await ctx_->sim->delay_until(end);
    }
  }

  PlanContext* ctx_;
  Spec spec_;
  bool done_ = false;
  std::int64_t produced_ = 0;   // kGen
  std::size_t bag_index_ = 0;   // kBag
  bool scanned_ = false;        // kGrep
  std::vector<std::string> matches_;
  std::size_t next_match_ = 0;
  // Terminal accumulators.
  std::int64_t count_ = 0;
  std::int64_t int_sum_ = 0;
  double real_sum_ = 0.0;
  bool all_int_ = true;
  ItemBatch src_scratch_;   // raw source items, recycled per round
  ItemBatch item_scratch_;  // next() adapter scratch
};

bool is_unary_call(const ExprPtr& e, const char* name) {
  return e != nullptr && e->kind == ExprKind::kCall && e->name == name &&
         e->args.size() == 1;
}

const char* fn_token(ArrayMapOp::Fn fn) {
  switch (fn) {
    case ArrayMapOp::Fn::kOdd: return "odd";
    case ArrayMapOp::Fn::kEven: return "even";
    case ArrayMapOp::Fn::kFft: return "fft";
  }
  return "?";
}

}  // namespace

OperatorPtr try_build_fused(const ExprPtr& expr, PlanContext& ctx) {
  if (ctx.batch_size <= 1) return nullptr;
  if (expr == nullptr || expr->kind != ExprKind::kCall) return nullptr;
  const ExprPtr* cur = &expr;

  // streamof() wrappers are timing-free pass-throughs: strip any number
  // of them above the terminal (streamof(count(...)) is the paper's
  // Fig. 6 consumer shape).
  while (is_unary_call(*cur, "streamof")) cur = &(*cur)->args[0];

  auto term = FusedPipelineOp::Terminal::kNone;
  if (is_unary_call(*cur, "count")) {
    term = FusedPipelineOp::Terminal::kCount;
    cur = &(*cur)->args[0];
  } else if (is_unary_call(*cur, "sum")) {
    term = FusedPipelineOp::Terminal::kSum;
    cur = &(*cur)->args[0];
  }

  // Stateless stages between terminal and source, collected outermost
  // first (applied source-side first below).
  std::vector<ArrayMapOp::Fn> outer_stages;
  while (true) {
    if (is_unary_call(*cur, "streamof")) {
      cur = &(*cur)->args[0];
    } else if (is_unary_call(*cur, "odd")) {
      outer_stages.push_back(ArrayMapOp::Fn::kOdd);
      cur = &(*cur)->args[0];
    } else if (is_unary_call(*cur, "even")) {
      outer_stages.push_back(ArrayMapOp::Fn::kEven);
      cur = &(*cur)->args[0];
    } else if (is_unary_call(*cur, "fft")) {
      outer_stages.push_back(ArrayMapOp::Fn::kFft);
      cur = &(*cur)->args[0];
    } else {
      break;
    }
  }
  // Nothing to fuse: a bare source (or source + streamof) gains nothing
  // from a fused operator; its native next_batch already batches.
  if (term == FusedPipelineOp::Terminal::kNone && outer_stages.empty()) return nullptr;

  if (*cur == nullptr || (*cur)->kind != ExprKind::kCall) return nullptr;
  const scsql::Expr& src = **cur;

  // Validate the source completely before committing: ctx.subscribe has
  // a side effect (it wires a stream connection), so it must only run
  // once the whole chain is known fusable. const_eval is side-effect
  // free; where it throws, the regular builder's identical const_eval
  // of the same argument would throw the same error.
  FusedPipelineOp::Spec spec;
  spec.terminal = term;
  spec.stages.assign(outer_stages.rbegin(), outer_stages.rend());
  std::string src_token;
  if (src.name == "extract") {
    if (src.args.size() != 1) return nullptr;
    Object target = ctx.const_eval(src.args[0]);
    if (target.kind() != Kind::kSp) return nullptr;
    spec.source = FusedPipelineOp::SourceKind::kReceive;
    spec.driver = &ctx.subscribe(target.as_sp());
    src_token = "receive";
  } else if (src.name == "gen_array") {
    if (src.args.size() != 2) return nullptr;
    Object bytes = ctx.const_eval(src.args[0]);
    Object count = ctx.const_eval(src.args[1]);
    if (bytes.kind() != Kind::kInt || count.kind() != Kind::kInt) return nullptr;
    if (bytes.as_int() < 0 || count.as_int() < 0) return nullptr;
    spec.source = FusedPipelineOp::SourceKind::kGen;
    spec.gen_bytes = static_cast<std::uint64_t>(bytes.as_int());
    spec.gen_count = count.as_int();
    src_token = "gen_array";
  } else if (src.name == "gen_stream") {
    if (src.args.size() != 1) return nullptr;
    Object bytes = ctx.const_eval(src.args[0]);
    if (bytes.kind() != Kind::kInt || bytes.as_int() < 0) return nullptr;
    spec.source = FusedPipelineOp::SourceKind::kGen;
    spec.gen_bytes = static_cast<std::uint64_t>(bytes.as_int());
    spec.gen_count = -1;
    src_token = "gen_stream";
  } else if (src.name == "iota") {
    Object bag = ctx.const_eval(*cur);
    if (bag.kind() != Kind::kBag) return nullptr;
    spec.source = FusedPipelineOp::SourceKind::kBag;
    spec.bag = bag.as_bag();
    src_token = "iota";
  } else if (src.name == "grep") {
    if (src.args.size() != 2) return nullptr;
    Object pattern = ctx.const_eval(src.args[0]);
    Object file = ctx.const_eval(src.args[1]);
    if (pattern.kind() != Kind::kStr || file.kind() != Kind::kStr) return nullptr;
    spec.source = FusedPipelineOp::SourceKind::kGrep;
    spec.grep_pattern = pattern.as_str();
    spec.grep_file = file.as_str();
    src_token = "grep";
  } else {
    return nullptr;
  }

  std::string nm = src_token;
  for (auto fn : spec.stages) nm = std::string(fn_token(fn)) + "(" + nm + ")";
  if (term == FusedPipelineOp::Terminal::kCount) nm = "count(" + nm + ")";
  if (term == FusedPipelineOp::Terminal::kSum) nm = "sum(" + nm + ")";
  spec.name = "fused(" + nm + ")";
  return std::make_unique<FusedPipelineOp>(ctx, std::move(spec));
}

}  // namespace scsq::plan
