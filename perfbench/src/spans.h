// perfbench/src/spans.h
//
// The traced binary's instrumentation, all of it in the benchmark's own
// files: spans recorded around calls into each layer, and a timing
// decorator around the pooled scheduler.
//
// A span has a name, a start, an end and a parent span; the spans of one
// operation (scenario, mc instance, fuzz iteration) share the operation id.
// Spans stay in memory and are written out once, at exit. A span's self time
// is its duration minus its child spans' durations, minus any aggregated
// child time charged to it (scheduler draws are too many and too short to
// record one span each, so the decorator sums them and the run span carries
// the total).

#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "report.h"
#include "sim/scheduler.h"

namespace perfbench {

namespace sim = udring::sim;

class SpanRecorder {
 public:
  static constexpr std::uint32_t kNoParent =
      std::numeric_limits<std::uint32_t>::max();

  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = kNoParent;
    std::uint64_t op = 0;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int64_t aggregated_ns = 0;  ///< child time not recorded as spans
  };

  SpanRecorder() : origin_(Clock::now()) {}

  /// Interns a span name.
  [[nodiscard]] std::uint32_t name(std::string_view text);

  [[nodiscard]] std::uint32_t begin(std::uint32_t name, std::uint32_t parent,
                                    std::uint64_t op) {
    spans_.push_back({name, parent, op, now_ns(), 0, 0});
    return static_cast<std::uint32_t>(spans_.size() - 1);
  }
  /// Ends `span`; returns its duration in ns.
  std::int64_t end(std::uint32_t span) {
    Span& s = spans_[span];
    s.end_ns = now_ns();
    return s.end_ns - s.start_ns;
  }
  /// Charges `ns` of child work named `name` to `span` without recording a
  /// span per call.
  void aggregate(std::uint32_t span, std::uint32_t name, std::int64_t ns) {
    spans_[span].aggregated_ns += ns;
    aggregated_by_name_[name] += ns;
  }

  /// Self time per span name, aggregated child time included under its own
  /// name, in seconds.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Drops every span (names stay interned).
  void clear();

  /// Writes the spans as tab-separated text: one header line, then
  /// `id parent op name start_ns end_ns aggregated_ns` per span, then one
  /// `aggregate name total_ns` line per aggregated child name.
  void write_tsv(const std::string& path) const;

 private:
  [[nodiscard]] std::int64_t now_ns() const {
    return elapsed_ns(origin_, Clock::now());
  }

  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
  std::map<std::uint32_t, std::int64_t> aggregated_by_name_;
};

/// RAII span: begins on construction, ends on finish() or destruction.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, std::uint32_t name, std::uint32_t parent,
             std::uint64_t op)
      : recorder_(recorder), id_(recorder.begin(name, parent, op)) {}
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (open_) recorder_.end(id_);
  }

  [[nodiscard]] std::uint32_t id() const noexcept { return id_; }
  /// Ends the span now; returns its duration in ns.
  std::int64_t finish() {
    open_ = false;
    return recorder_.end(id_);
  }

 private:
  SpanRecorder& recorder_;
  std::uint32_t id_;
  bool open_ = true;
};

/// Times every draw of the scheduler it wraps; forwards everything else, so
/// the wrapped scheduler makes exactly the choices it would make unwrapped.
/// Each timed draw includes about one clock read (trace.timer_ns).
class TimedScheduler final : public sim::Scheduler {
 public:
  void wrap(sim::Scheduler& inner) { inner_ = &inner; }

  void attach(const sim::ExecutionState& state) override { inner_->attach(state); }
  void reset(std::size_t agent_count) override { inner_->reset(agent_count); }
  void reseed(std::uint64_t seed) override { inner_->reseed(seed); }
  sim::AgentId pick(const std::vector<sim::AgentId>& enabled) override {
    const Clock::time_point start = Clock::now();
    const sim::AgentId id = inner_->pick(enabled);
    draw_ns_ += elapsed_ns(start, Clock::now());
    ++draws_;
    return id;
  }
  std::size_t pick_index(std::size_t bound) override {
    const Clock::time_point start = Clock::now();
    const std::size_t index = inner_->pick_index(bound);
    draw_ns_ += elapsed_ns(start, Clock::now());
    ++draws_;
    return index;
  }
  [[nodiscard]] std::string_view name() const override { return inner_->name(); }
  [[nodiscard]] std::uint64_t rounds() const override { return inner_->rounds(); }

  /// Draw time since the last call, in ns.
  [[nodiscard]] std::int64_t take_ns() noexcept {
    const std::int64_t ns = draw_ns_;
    draw_ns_ = 0;
    return ns;
  }
  [[nodiscard]] std::uint64_t draws() const noexcept { return draws_; }

 private:
  sim::Scheduler* inner_ = nullptr;
  std::int64_t draw_ns_ = 0;
  std::uint64_t draws_ = 0;
};

}  // namespace perfbench
