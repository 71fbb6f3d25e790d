// perfbench/src/report.h
//
// Shared plumbing of the two benchmark binaries: command-line arguments,
// clocks, medians, peak RSS, and the one-line JSON result both binaries print
// last on stdout (perfbench/run.py parses it, checks the pins and prints the
// final result line).

#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t elapsed_ns(Clock::time_point from,
                                             Clock::time_point to) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(to - from).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point from) {
  return static_cast<double>(elapsed_ns(from, Clock::now())) * 1e-9;
}

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty list.
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set of this process so far (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mib();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool smoke = false;         ///< small inputs, for the harness self-test
  std::string trace_out;      ///< traced binary: where the spans are written
};

/// Parses --workload W --seed N --seconds S [--smoke] [--trace-out PATH].
/// Throws std::invalid_argument on anything else.
[[nodiscard]] Args parse_args(int argc, char** argv);

/// Times a microsecond-sized setup in batches: each sample() runs `setup`
/// enough times to last about 2 ms and records the batch mean, so samples
/// taken between job repetitions span the whole run, like the job times do.
class SetupTimer {
 public:
  explicit SetupTimer(std::function<void()> setup);
  void sample();
  [[nodiscard]] std::size_t samples() const noexcept { return means_.size(); }
  /// Fastest batch mean, in seconds.
  [[nodiscard]] double min_seconds() const {
    return *std::min_element(means_.begin(), means_.end());
  }

 private:
  std::function<void()> setup_;
  std::int64_t calls_ = 1;
  std::vector<double> means_;
};

/// The raw result a binary prints as its last stdout line.
class Result {
 public:
  void metric(const std::string& name, double value, const std::string& unit);
  /// A correctness check; a failed one counts as one failed operation.
  void check(const std::string& name, bool ok, const std::string& detail = "");
  /// A produced output that perfbench/pins.json may pin (digests, verdicts).
  void output(const std::string& key, const std::string& value);
  /// A free-form report line (repetition counts, per-repetition times).
  void note(const std::string& text) { notes_.push_back(text); }

  std::uint64_t attempted = 0;  ///< operations run (scenarios, iterations, instances)
  std::uint64_t failed = 0;     ///< operations that failed (checks add to it)

  /// Prints one line per check and metric, then the JSON line.
  void print(std::ostream& out, const std::string& workload,
             std::uint64_t seed, bool smoke, bool traced) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  struct Check {
    std::string name;
    bool ok;
    std::string detail;
  };
  std::vector<Metric> metrics_;
  std::vector<Check> checks_;
  std::vector<std::pair<std::string, std::string>> outputs_;
  std::vector<std::string> notes_;
};

/// Exits with an error unless this is an optimized (NDEBUG) build: timings
/// of an assert-enabled build are not reported.
void require_release_build();

/// The CPUs this process may run on.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Moves the calling thread onto `cpu` (one of allowed_cpus()).
void run_on_cpu(int cpu);

}  // namespace perfbench
